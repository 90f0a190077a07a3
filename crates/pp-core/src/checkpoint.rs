//! Deterministic checkpoint/restore for every count-based engine.
//!
//! A [`Checkpoint`] is a versioned, self-describing snapshot of a running
//! engine's *complete* resumable state: the count vector, the interaction
//! counter, the position of every RNG stream the engine owns, and the
//! bookkeeping counters that flow into [`RunResult`](crate::RunResult)s.
//! Capture one with [`Checkpoint::capture`] (any engine implementing
//! [`EngineCheckpoint`]), serialize it with [`Checkpoint::to_json`] /
//! [`Checkpoint::save`], and hand it back to the matching engine's
//! `restore` constructor ([`CountSimulator::restore`],
//! [`BatchedEngine::restore`], [`ShardedEngine::restore`],
//! [`EnsembleEngine::restore`]).
//!
//! # The bit-exactness contract
//!
//! A run interrupted at a capture point and restored from the checkpoint
//! produces the **identical trajectory tail** — every configuration, every
//! interaction count, every final [`RunResult`](crate::RunResult) — as the
//! uninterrupted run, at every thread count.  Two rules make this hold:
//!
//! 1. **Capture between `advance` calls only.**  Every engine's RNG streams
//!    are consumed in whole-`advance` units; a checkpoint taken between two
//!    `advance` calls records every stream at a draw boundary.  (The
//!    `UsdSimulator` drive loop in `usd-core` captures exactly there.)
//! 2. **Resume against the same final limit.**  A skip-ahead engine's
//!    geometric draw near a budget boundary depends on the remaining
//!    headroom; both legs must run toward the same
//!    [`StopCondition`](crate::StopCondition) budget.  Memorylessness makes
//!    the overshoot re-sample exact, but only when the limit agrees.
//!
//! # What is captured — and what deliberately is not
//!
//! Captured: category counts, interaction counters, the xoshiro256++ state
//! words of every owned RNG stream (per-shard engine and cross RNGs, the
//! sharded allocator RNG, every ensemble replica's RNG), the incremental
//! maintenance switch, and the maintenance/throughput counters
//! (patches, rebuilds, skips, draws) so a restored run's reports continue
//! where the interrupted run left off.  The mean-field engine holds no RNG
//! at all; its [`MeanFieldSnapshot`] instead stores the exact IEEE-754 bit
//! patterns of its `f64` ODE state, so even the deterministic backend
//! resumes bit-identically.
//!
//! Not captured, because each is a pure function of the captured state and
//! is rebuilt deterministically on restore:
//!
//! * the batched engine's maintained row table (`rows`/`sums`/`total`) —
//!   rebuilt from the counts at the first event after restore, bit-identical
//!   to the maintained table (the restored run may therefore report **one
//!   extra `rows_rebuilt`** per engine than the uninterrupted run; result
//!   equality ignores maintenance bookkeeping),
//! * the exact engine's Fenwick tree (rebuilt from the counts),
//! * the sharded engine's merged configuration, pair weights, and per-epoch
//!   quota/scratch buffers (dead between `advance` calls — captures land on
//!   epoch boundaries),
//! * the sequential sampler's activation law in `consensus-dynamics` — a
//!   restored sampler builds it from the counts at its first refresh, with
//!   bit-identical values.
//!
//! # Format
//!
//! A checkpoint is one JSON document, `{"format": 1, "kind": "<engine>",
//! "engine": {…}}`, plus an optional `"meta": {…}` object of named `u64`
//! values that wrappers above the engine layer (the `usd-core` simulator)
//! use to stamp their own resumable state — seed, initial counts — onto an
//! engine checkpoint without a second file format.
//! Every value is an unsigned integer, an array or object of them, a
//! string or `null`; floats travel as their bit patterns.
//! [`CHECKPOINT_FORMAT_VERSION`] is bumped on any incompatible layout
//! change; [`Checkpoint::from_json`] rejects unknown versions with a named
//! [`PpError::Checkpoint`] diagnostic instead of misreading newer state.
//!
//! The document goes through the workspace's one JSON codec,
//! [`crate::json`].  [`Checkpoint::from_json`] parses with [`Json::parse`]
//! — whose nesting limit, [`json::MAX_NESTING`], keeps a hostile file from
//! overflowing the stack — and only interprets the fields.
//! [`Checkpoint::to_json`] streams the document instead of building a
//! value tree (periodic captures sit on a running job's path), escaping
//! names through the codec's [`json::write_json_string`]; its bytes are
//! exactly what [`Json::to_json`] writes for the parsed document.
//!
//! A run's periodic captures go to a [`CheckpointSink`] through
//! [`Captures`], which encodes each one into a reused buffer.  On disk a
//! checkpoint file is a [`CheckpointJournal`], the sink of a file: one
//! document a line, the last whole line being the one [`Checkpoint::load`]
//! returns.  Periodic captures append to it, and [`Checkpoint::save`]
//! writes a journal of one line.  A job server's sink appends to its job
//! log instead (`pp_service::job`).
//!
//! [`CountSimulator::restore`]: crate::CountSimulator::restore
//! [`BatchedEngine::restore`]: crate::BatchedEngine::restore
//! [`ShardedEngine::restore`]: crate::ShardedEngine::restore
//! [`EnsembleEngine::restore`]: crate::EnsembleEngine::restore

use crate::config::Configuration;
use crate::error::PpError;
use crate::json::{self, Json};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The current checkpoint layout version.  Bumped on any incompatible
/// change; loaders reject versions they do not understand.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Snapshot of one single-stream count engine: an exact simulator, a
/// standalone batched engine, one shard's engine, or one ensemble replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Per-opinion decided counts (length `k`).
    pub supports: Vec<u64>,
    /// Undecided-agent count.
    pub undecided: u64,
    /// Interactions elapsed (null interactions included).
    pub interactions: u64,
    /// The engine RNG's xoshiro256++ state words.
    pub rng: [u64; 4],
    /// Engine-specific bookkeeping counters (maintenance, skip/draw counts,
    /// runtime switches), stored by name so each engine round-trips only
    /// what it has.  Missing counters restore as their defaults — they are
    /// reporting state, never trajectory state.  An engine names them with
    /// `&'static str`s, so a capture allocates no name.
    pub counters: Vec<(Cow<'static, str>, u64)>,
}

impl EngineSnapshot {
    /// The named bookkeeping counter, if the snapshot carries it.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Rebuilds the configuration from the captured counts.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the counts are not a valid
    /// configuration (e.g. an all-zero population from a corrupt file).
    pub fn configuration(&self) -> Result<Configuration, PpError> {
        Configuration::from_counts(self.supports.clone(), self.undecided).map_err(|e| {
            PpError::Checkpoint {
                reason: format!("snapshot counts do not form a valid configuration: {e}"),
            }
        })
    }
}

/// Snapshot of one shard of a [`ShardedEngine`](crate::ShardedEngine): the
/// shard's batched engine plus its cross-block reconciliation RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's local batched engine.
    pub engine: EngineSnapshot,
    /// The shard's cross-reconciliation RNG state words.
    pub cross_rng: [u64; 4],
}

/// Snapshot of a [`ShardedEngine`](crate::ShardedEngine).  Self-contained:
/// the epoch length, thread count and re-balance cadence ride along, so
/// restore needs no [`ShardPlan`](crate::ShardPlan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedSnapshot {
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// The multinomial epoch allocator's RNG state words.
    pub alloc_rng: [u64; 4],
    /// Merged interactions elapsed.
    pub interactions: u64,
    /// Reconciliation epochs completed.
    pub epochs: u64,
    /// Epoch length in interactions.
    pub epoch_len: u64,
    /// Worker-thread cap (wall-clock only; never affects the trajectory).
    pub threads: u64,
    /// Re-balance cadence in epochs (`None` = never).
    pub rebalance_every: Option<u64>,
}

/// Snapshot of an [`EnsembleEngine`](crate::EnsembleEngine): every replica
/// plus the run's scheduling-window count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleSnapshot {
    /// Per-replica state, in construction order.
    pub replicas: Vec<EngineSnapshot>,
    /// Scheduling windows run since the run started.
    pub rounds: u64,
}

/// Snapshot of a mean-field (fluid-limit) engine.  The ODE state is `f64`,
/// which the checkpoint format's unsigned-integer fields cannot carry
/// directly, so every float is stored as its exact IEEE-754 bit pattern
/// ([`f64::to_bits`]) — the round trip is bit-exact, never a decimal
/// approximation.  The quantized configuration rides along as plain counts
/// (largest-remainder rounding of the exact fractions could disagree with
/// the captured configuration by one agent under floating-point re-derive,
/// so it is state, not a pure function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeanFieldSnapshot {
    /// Bit patterns of the per-opinion fractions `a_1..a_k`.
    pub fraction_bits: Vec<u64>,
    /// Bit pattern of the undecided fraction `w`.
    pub undecided_bits: u64,
    /// Per-opinion decided counts of the quantized configuration.
    pub supports: Vec<u64>,
    /// Undecided count of the quantized configuration.
    pub undecided: u64,
    /// Population size `n`.
    pub population: u64,
    /// Interactions elapsed (parallel time × `n`).
    pub interactions: u64,
    /// Bit pattern of the RK4 step size `dt`.
    pub dt_bits: u64,
}

/// The engine-specific payload of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineState {
    /// An exact per-interaction simulator.
    Exact(EngineSnapshot),
    /// A standalone batched skip-ahead engine.
    Batched(EngineSnapshot),
    /// A sharded parallel engine.
    Sharded(ShardedSnapshot),
    /// A lockstep replica ensemble.
    Ensemble(EnsembleSnapshot),
    /// A mean-field (fluid-limit) ODE engine.
    MeanField(MeanFieldSnapshot),
}

impl EngineState {
    /// The stable engine identifier stored in the `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            EngineState::Exact(_) => "exact",
            EngineState::Batched(_) => "batched",
            EngineState::Sharded(_) => "sharded",
            EngineState::Ensemble(_) => "ensemble",
            EngineState::MeanField(_) => "mean-field",
        }
    }
}

/// An engine that can capture its complete resumable state (the capture
/// half of the checkpoint contract; restore goes through each engine's
/// `restore` constructor because it needs the protocol or dynamics value,
/// which checkpoints deliberately do not serialize).
pub trait EngineCheckpoint {
    /// Captures the engine's state.  Must be called between `advance`
    /// calls — see the module docs for the exactness rules.
    fn capture_engine(&self) -> EngineState;
}

/// A replica engine that can be captured and rebuilt inside a generic
/// [`EnsembleEngine`](crate::EnsembleEngine) checkpoint.
pub trait ReplicaCheckpoint: Sized {
    /// What a restored replica needs besides its snapshot (the protocol
    /// for a batched engine, the dynamics for a sequential sampler).
    type Context;

    /// Captures this replica's resumable state.
    fn capture_replica(&self) -> EngineSnapshot;

    /// Rebuilds a replica from `snapshot`.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] (or the context's own construction
    /// error) when the snapshot does not fit the context.
    fn restore_replica(ctx: &Self::Context, snapshot: &EngineSnapshot) -> Result<Self, PpError>;
}

/// A versioned engine checkpoint (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    engine: EngineState,
    /// Named `u64` metadata stamped by wrappers above the engine layer
    /// (empty for bare engine checkpoints; never read by engine restores).
    meta: Vec<(Cow<'static, str>, u64)>,
}

impl Checkpoint {
    /// Wraps an engine state at the current format version.
    #[must_use]
    pub fn new(engine: EngineState) -> Self {
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            engine,
            meta: Vec::new(),
        }
    }

    /// Captures `engine` between `advance` calls.
    #[must_use]
    pub fn capture<E: EngineCheckpoint + ?Sized>(engine: &E) -> Self {
        Checkpoint::new(engine.capture_engine())
    }

    /// The format version this checkpoint was written at.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The engine payload.
    #[must_use]
    pub fn engine(&self) -> &EngineState {
        &self.engine
    }

    /// The stable engine identifier (`"exact"`, `"batched"`, `"sharded"`,
    /// `"ensemble"`, `"mean-field"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.engine.kind()
    }

    /// Adds (or replaces) a named metadata value.  Metadata is wrapper
    /// state — the `usd-core` simulator stamps its seed and initial counts
    /// here — and is never read by the engine-level restore constructors.
    /// A `&'static str` name is stored without allocating.
    #[must_use]
    pub fn with_meta(mut self, name: impl Into<Cow<'static, str>>, value: u64) -> Self {
        let name = name.into();
        if let Some(slot) = self.meta.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.meta.push((name, value));
        }
        self
    }

    /// The named metadata value, if present.
    #[must_use]
    pub fn meta(&self, name: &str) -> Option<u64> {
        self.meta.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serializes the checkpoint to its JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out, &[]);
        out
    }

    /// Appends to `out` the JSON document of this checkpoint with `stamp`
    /// added to its metadata — the bytes [`Checkpoint::to_json`] writes
    /// after one [`with_meta`](Self::with_meta) per entry, in order, without
    /// building that copy.  A wrapper that stamps the same names on every
    /// capture (the `usd-core` simulator's seed and initial counts) builds
    /// them once and encodes each capture into a reused buffer.  `stamp`
    /// names must be distinct.
    pub fn write_json(&self, out: &mut String, stamp: &[(String, u64)]) {
        write_field(out, "{\"format\":", u64::from(self.version));
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind());
        out.push_str("\",\"engine\":");
        match &self.engine {
            EngineState::Exact(s) | EngineState::Batched(s) => write_snapshot(out, s),
            EngineState::Sharded(s) => write_sharded(out, s),
            EngineState::Ensemble(s) => write_ensemble(out, s),
            EngineState::MeanField(s) => write_mean_field(out, s),
        }
        let stamped = |name: &str| stamp.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        // `with_meta` replaces a name in place and appends a new one.
        let own = self
            .meta
            .iter()
            .map(|(name, value)| (name.as_ref(), stamped(name).unwrap_or(*value)));
        let added = stamp
            .iter()
            .filter(|(name, _)| self.meta(name).is_none())
            .map(|(name, value)| (name.as_str(), *value));
        for (i, (name, value)) in own.chain(added).enumerate() {
            out.push_str(if i == 0 { ",\"meta\":{" } else { "," });
            json::write_json_string(name, out);
            write_field(out, ":", value);
        }
        if !self.meta.is_empty() || !stamp.is_empty() {
            out.push('}');
        }
        out.push('}');
    }

    /// Parses a checkpoint from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] on malformed JSON, a missing or
    /// misshaped field, an unknown `kind`, or a format version this build
    /// does not understand.
    pub fn from_json(text: &str) -> Result<Self, PpError> {
        let value =
            Json::parse(text).map_err(|e| bad(&format!("malformed checkpoint document: {e}")))?;
        let root = value.object("checkpoint root")?;
        let version = get(root, "format")?.uint("format")?;
        let version = u32::try_from(version).map_err(|_| bad("format version out of range"))?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(bad(&format!(
                "unsupported checkpoint format version {version} \
                 (this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )));
        }
        let kind = get(root, "kind")?.text("kind")?;
        let payload = get(root, "engine")?;
        let engine = match kind {
            "exact" => EngineState::Exact(read_snapshot(payload)?),
            "batched" => EngineState::Batched(read_snapshot(payload)?),
            "sharded" => EngineState::Sharded(read_sharded(payload)?),
            "ensemble" => EngineState::Ensemble(read_ensemble(payload)?),
            "mean-field" => EngineState::MeanField(read_mean_field(payload)?),
            other => return Err(bad(&format!("unknown engine kind {other:?}"))),
        };
        let meta = match root.iter().find(|(n, _)| n == "meta") {
            Some((_, v)) => v
                .object("meta")?
                .iter()
                .map(|(name, v)| Ok((Cow::Owned(name.clone()), v.uint(name)?)))
                .collect::<Result<Vec<_>, PpError>>()?,
            None => Vec::new(),
        };
        Ok(Checkpoint {
            version,
            engine,
            meta,
        })
    }

    /// Writes the checkpoint to `path` as a one-line [`CheckpointJournal`]
    /// (its JSON document and a newline, replaced atomically through
    /// [`write_atomic`]) and returns the document's bytes, newline
    /// excluded.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<u64, PpError> {
        let mut line = self.to_json();
        let bytes = line.len() as u64;
        line.push('\n');
        write_atomic(path, line.as_bytes()).map_err(|e| write_failed(path, &e))?;
        Ok(bytes)
    }

    /// Reads the checkpoint at `path`: the last newline-terminated line of
    /// a [`CheckpointJournal`].  A tail without a newline is a torn append
    /// and is ignored; a file without any newline is a single document
    /// (the layout before journals) and is parsed whole.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] on I/O failure or any
    /// [`Checkpoint::from_json`] diagnostic of that line.
    pub fn load(path: &Path) -> Result<Self, PpError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            bad(&format!(
                "failed to read checkpoint {}: {e}",
                path.display()
            ))
        })?;
        let last = match text.rfind('\n') {
            Some(end) => {
                let whole = &text[..end];
                &whole[whole.rfind('\n').map_or(0, |start| start + 1)..]
            }
            None => &text,
        };
        Self::from_json(last)
    }

    /// Unwraps a single-engine snapshot of the expected `kind`, with a
    /// named diagnostic on mismatch (the restore constructors' shared
    /// validation path).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind.
    pub fn expect_single(&self, kind: &'static str) -> Result<&EngineSnapshot, PpError> {
        match (&self.engine, kind) {
            (EngineState::Exact(s), "exact") | (EngineState::Batched(s), "batched") => Ok(s),
            _ => Err(self.kind_mismatch(kind)),
        }
    }

    /// The standard kind-mismatch diagnostic.
    pub(crate) fn kind_mismatch(&self, expected: &'static str) -> PpError {
        bad(&format!(
            "checkpoint holds {:?} engine state, expected {expected:?}",
            self.kind()
        ))
    }
}

/// Replaces `path` with `contents` so that a kill at any byte leaves either
/// the old file or the new one, never a torn mix: the bytes go to
/// `<path>.tmp` in the same directory, which is then renamed over `path`.
/// There is no fsync — a power loss may lose the newest write, but a killed
/// process cannot tear `path`.
///
/// The replaced version stays behind as `<path>.tmp`: it is hard-linked as
/// `<path>.old` before the rename and moved back to `<path>.tmp` after it,
/// and the next write reuses its inode.  A file rewritten several times — a
/// job record, or a [`CheckpointJournal`] starting a new cycle — thus
/// allocates and frees no inode per write.  On an ext4 volume of a 2-core
/// Xeon VM that allocation and release cost 0.1–0.6 ms of CPU per write in
/// a state directory of a few thousand files.  The rename over an existing
/// file still costs 80–94 µs of CPU there (ext4 pushes the file's pages
/// out before it returns), which is why periodic checkpoints append to a
/// journal instead.  A kill between the link and the last rename can
/// leave `<path>.old`; the next write tidies it.  Without hard-link support
/// this is a plain write-and-rename.
///
/// # Errors
///
/// Returns the I/O error of the failed step, with the step and the file
/// named in its message; the file at `path` is untouched then.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let (tmp, old) = (sibling(path, ".tmp"), sibling(path, ".old"));
    let named = |step: &str, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("{step} {}: {e}", tmp.display()))
    };
    std::fs::write(&tmp, contents).map_err(|e| named("cannot write", e))?;
    // Fails, harmlessly, when `path` is new or `<path>.old` is left over.
    let _ = std::fs::hard_link(path, &old);
    std::fs::rename(&tmp, path).map_err(|e| named("cannot rename", e))?;
    let _ = std::fs::rename(&old, &tmp);
    Ok(())
}

/// Where a run's captures go: a [`CheckpointJournal`] file, or a job
/// server's log.  Each [`store`](Self::store) hands over one encoded
/// checkpoint document, which becomes the newest capture the run resumes
/// from.  Drive loops encode through [`Captures`], which reuses one buffer.
pub trait CheckpointSink: Send {
    /// Stores `document` — one [`Checkpoint`] JSON document, which never
    /// holds a raw newline — as the newest capture.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the capture cannot be stored;
    /// the previous capture stays the one to resume from.
    fn store(&mut self, document: &str) -> Result<(), PpError>;
}

/// A [`CheckpointSink`] with the buffer its captures are encoded into, so
/// a capture allocates no document of its own.
pub struct Captures {
    sink: Box<dyn CheckpointSink>,
    document: String,
}

impl std::fmt::Debug for Captures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Captures")
            .field("document_capacity", &self.document.capacity())
            .finish_non_exhaustive()
    }
}

impl Captures {
    /// Captures going to `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn CheckpointSink>) -> Self {
        Captures {
            sink,
            document: String::new(),
        }
    }

    /// Encodes `checkpoint` with `stamp` added to its metadata (see
    /// [`Checkpoint::write_json`]), stores it, and returns the document's
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns the sink's [`PpError::Checkpoint`].
    pub fn store(
        &mut self,
        checkpoint: &Checkpoint,
        stamp: &[(String, u64)],
    ) -> Result<u64, PpError> {
        self.document.clear();
        checkpoint.write_json(&mut self.document, stamp);
        self.sink.store(&self.document)?;
        Ok(self.document.len() as u64)
    }
}

/// The most lines a [`CheckpointJournal`] file holds: the capture after
/// the 64th line starts the file over.
pub const JOURNAL_MAX_LINES: usize = 64;

/// A checkpoint file that periodic captures append to, one JSON document a
/// line, so a capture costs one `write` to an open file instead of a
/// whole-file replace.
///
/// The first capture, and every [`JOURNAL_MAX_LINES`]-th after it,
/// replaces the whole file with its single line through [`write_atomic`];
/// the others append their line.  [`Checkpoint::load`] reads the last
/// newline-terminated line.  A kill at any byte thus leaves the previous
/// capture readable: earlier bytes are never rewritten, the first line
/// appears only whole, and no document contains a raw newline (the writer
/// escapes control characters).  Every line is a standalone checkpoint.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    /// The append handle and the lines in the file; `None` before the
    /// first capture and after a failed append, so the next capture
    /// starts the file over rather than append behind a torn line.
    file: Option<(File, usize)>,
    /// The line being written, reused across captures.
    line: String,
}

impl CheckpointJournal {
    /// A journal at `path`.  Nothing is written until the first
    /// [`append`](Self::append), which replaces whatever the file held.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointJournal {
            path: path.into(),
            file: None,
            line: String::new(),
        }
    }

    /// Writes `checkpoint` as the journal's new last line and returns its
    /// document's bytes, newline excluded.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] wrapping the I/O failure; the
    /// previous capture stays the file's last whole line.
    pub fn append(&mut self, checkpoint: &Checkpoint) -> Result<u64, PpError> {
        self.line.clear();
        checkpoint.write_json(&mut self.line, &[]);
        let bytes = self.line.len() as u64;
        self.write_line()?;
        Ok(bytes)
    }

    /// Writes the document in `line` plus a newline as the last line.
    fn write_line(&mut self) -> Result<(), PpError> {
        self.line.push('\n');
        match self.file.take() {
            Some((mut file, lines)) if lines < JOURNAL_MAX_LINES => {
                file.write_all(self.line.as_bytes())
                    .map_err(|e| write_failed(&self.path, &e))?;
                self.file = Some((file, lines + 1));
            }
            _ => {
                write_atomic(&self.path, self.line.as_bytes())
                    .map_err(|e| write_failed(&self.path, &e))?;
                let file = OpenOptions::new()
                    .append(true)
                    .open(&self.path)
                    .map_err(|e| write_failed(&self.path, &e))?;
                self.file = Some((file, 1));
            }
        }
        Ok(())
    }
}

impl CheckpointSink for CheckpointJournal {
    fn store(&mut self, document: &str) -> Result<(), PpError> {
        self.line.clear();
        self.line.push_str(document);
        self.write_line()
    }
}

/// Deletes a file written by [`write_atomic`] together with the spare copy
/// of its previous version.
///
/// # Errors
///
/// Returns the I/O error of removing `path` itself.
pub fn remove_atomic(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(sibling(path, ".tmp"));
    std::fs::remove_file(path)
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

/// The diagnostic of a failed checkpoint write.
fn write_failed(path: &Path, e: &std::io::Error) -> PpError {
    bad(&format!(
        "failed to write checkpoint {}: {e}",
        path.display()
    ))
}

/// Shorthand for a named checkpoint diagnostic.
fn bad(reason: &str) -> PpError {
    PpError::Checkpoint {
        reason: reason.to_string(),
    }
}

// --- JSON writer --------------------------------------------------------

/// Appends `prefix` (the punctuation and field name before a value) and
/// `value`.
fn write_field(out: &mut String, prefix: &str, value: u64) {
    out.push_str(prefix);
    json::write_u64(out, value);
}

fn write_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_u64(out, v);
    }
    out.push(']');
}

fn write_snapshot(out: &mut String, s: &EngineSnapshot) {
    out.push_str("{\"supports\":");
    write_u64_array(out, &s.supports);
    write_field(out, ",\"undecided\":", s.undecided);
    write_field(out, ",\"interactions\":", s.interactions);
    out.push_str(",\"rng\":");
    write_u64_array(out, &s.rng);
    out.push_str(",\"counters\":{");
    for (i, (name, value)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_json_string(name, out);
        write_field(out, ":", *value);
    }
    out.push_str("}}");
}

fn write_sharded(out: &mut String, s: &ShardedSnapshot) {
    out.push_str("{\"shards\":[");
    for (i, shard) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        write_snapshot(out, &shard.engine);
        out.push_str(",\"cross_rng\":");
        write_u64_array(out, &shard.cross_rng);
        out.push('}');
    }
    out.push_str("],\"alloc_rng\":");
    write_u64_array(out, &s.alloc_rng);
    write_field(out, ",\"interactions\":", s.interactions);
    write_field(out, ",\"epochs\":", s.epochs);
    write_field(out, ",\"epoch_len\":", s.epoch_len);
    write_field(out, ",\"threads\":", s.threads);
    match s.rebalance_every {
        Some(v) => write_field(out, ",\"rebalance_every\":", v),
        None => out.push_str(",\"rebalance_every\":null"),
    }
    out.push('}');
}

fn write_ensemble(out: &mut String, s: &EnsembleSnapshot) {
    out.push_str("{\"replicas\":[");
    for (i, replica) in s.replicas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_snapshot(out, replica);
    }
    write_field(out, "],\"rounds\":", s.rounds);
    out.push('}');
}

fn write_mean_field(out: &mut String, s: &MeanFieldSnapshot) {
    out.push_str("{\"fraction_bits\":");
    write_u64_array(out, &s.fraction_bits);
    write_field(out, ",\"undecided_bits\":", s.undecided_bits);
    out.push_str(",\"supports\":");
    write_u64_array(out, &s.supports);
    write_field(out, ",\"undecided\":", s.undecided);
    write_field(out, ",\"population\":", s.population);
    write_field(out, ",\"interactions\":", s.interactions);
    write_field(out, ",\"dt_bits\":", s.dt_bits);
    out.push('}');
}

// --- Field interpretation ---------------------------------------------
//
// The document is parsed by the workspace codec (`crate::json`); what
// follows only reads fields out of the parsed value, naming the field in
// every diagnostic.

/// Typed reads of a parsed value that name the field on a mismatch.
trait Field {
    fn uint(&self, what: &str) -> Result<u64, PpError>;
    fn text(&self, what: &str) -> Result<&str, PpError>;
    fn array(&self, what: &str) -> Result<&[Json], PpError>;
    fn object(&self, what: &str) -> Result<&[(String, Json)], PpError>;
}

impl Field for Json {
    fn uint(&self, what: &str) -> Result<u64, PpError> {
        self.as_u64()
            .ok_or_else(|| not_a(what, "an unsigned integer"))
    }

    fn text(&self, what: &str) -> Result<&str, PpError> {
        self.as_str().ok_or_else(|| not_a(what, "a string"))
    }

    fn array(&self, what: &str) -> Result<&[Json], PpError> {
        self.as_array().ok_or_else(|| not_a(what, "an array"))
    }

    fn object(&self, what: &str) -> Result<&[(String, Json)], PpError> {
        self.as_object().ok_or_else(|| not_a(what, "an object"))
    }
}

fn not_a(what: &str, shape: &str) -> PpError {
    bad(&format!("field {what:?} is not {shape}"))
}

fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, PpError> {
    obj.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| bad(&format!("missing checkpoint field {name:?}")))
}

fn read_u64_array(value: &Json, what: &str) -> Result<Vec<u64>, PpError> {
    value.array(what)?.iter().map(|v| v.uint(what)).collect()
}

fn read_rng(value: &Json, what: &str) -> Result<[u64; 4], PpError> {
    let words = read_u64_array(value, what)?;
    <[u64; 4]>::try_from(words)
        .map_err(|w| bad(&format!("field {what:?} has {} words, expected 4", w.len())))
}

fn read_snapshot(value: &Json) -> Result<EngineSnapshot, PpError> {
    let obj = value.object("engine snapshot")?;
    let counters = get(obj, "counters")?
        .object("counters")?
        .iter()
        .map(|(name, v)| Ok((Cow::Owned(name.clone()), v.uint(name)?)))
        .collect::<Result<Vec<_>, PpError>>()?;
    Ok(EngineSnapshot {
        supports: read_u64_array(get(obj, "supports")?, "supports")?,
        undecided: get(obj, "undecided")?.uint("undecided")?,
        interactions: get(obj, "interactions")?.uint("interactions")?,
        rng: read_rng(get(obj, "rng")?, "rng")?,
        counters,
    })
}

fn read_sharded(value: &Json) -> Result<ShardedSnapshot, PpError> {
    let obj = value.object("sharded state")?;
    let shards = get(obj, "shards")?
        .array("shards")?
        .iter()
        .map(|shard| {
            let s = shard.object("shard")?;
            Ok(ShardSnapshot {
                engine: read_snapshot(get(s, "engine")?)?,
                cross_rng: read_rng(get(s, "cross_rng")?, "cross_rng")?,
            })
        })
        .collect::<Result<Vec<_>, PpError>>()?;
    let rebalance_every = match get(obj, "rebalance_every")? {
        Json::Null => None,
        v => Some(v.uint("rebalance_every")?),
    };
    Ok(ShardedSnapshot {
        shards,
        alloc_rng: read_rng(get(obj, "alloc_rng")?, "alloc_rng")?,
        interactions: get(obj, "interactions")?.uint("interactions")?,
        epochs: get(obj, "epochs")?.uint("epochs")?,
        epoch_len: get(obj, "epoch_len")?.uint("epoch_len")?,
        threads: get(obj, "threads")?.uint("threads")?,
        rebalance_every,
    })
}

fn read_ensemble(value: &Json) -> Result<EnsembleSnapshot, PpError> {
    let obj = value.object("ensemble state")?;
    Ok(EnsembleSnapshot {
        replicas: get(obj, "replicas")?
            .array("replicas")?
            .iter()
            .map(read_snapshot)
            .collect::<Result<Vec<_>, PpError>>()?,
        rounds: get(obj, "rounds")?.uint("rounds")?,
    })
}

fn read_mean_field(value: &Json) -> Result<MeanFieldSnapshot, PpError> {
    let obj = value.object("mean-field state")?;
    Ok(MeanFieldSnapshot {
        fraction_bits: read_u64_array(get(obj, "fraction_bits")?, "fraction_bits")?,
        undecided_bits: get(obj, "undecided_bits")?.uint("undecided_bits")?,
        supports: read_u64_array(get(obj, "supports")?, "supports")?,
        undecided: get(obj, "undecided")?.uint("undecided")?,
        population: get(obj, "population")?.uint("population")?,
        interactions: get(obj, "interactions")?.uint("interactions")?,
        dt_bits: get(obj, "dt_bits")?.uint("dt_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            supports: vec![12, 0, 7],
            undecided: 3,
            interactions: 123_456,
            rng: [1, u64::MAX, 0, 42],
            counters: vec![("events_drawn".into(), 99), ("incremental".into(), 1)],
        }
    }

    #[test]
    fn every_engine_state_round_trips_through_json() {
        let states = [
            EngineState::Exact(sample_snapshot()),
            EngineState::Batched(sample_snapshot()),
            EngineState::Sharded(ShardedSnapshot {
                shards: vec![
                    ShardSnapshot {
                        engine: sample_snapshot(),
                        cross_rng: [5, 6, 7, 8],
                    },
                    ShardSnapshot {
                        engine: sample_snapshot(),
                        cross_rng: [9, 10, 11, 12],
                    },
                ],
                alloc_rng: [13, 14, 15, 16],
                interactions: 999,
                epochs: 31,
                epoch_len: 32,
                threads: 4,
                rebalance_every: Some(64),
            }),
            EngineState::Ensemble(EnsembleSnapshot {
                replicas: vec![sample_snapshot(); 3],
                rounds: 17,
            }),
            EngineState::MeanField(MeanFieldSnapshot {
                fraction_bits: vec![
                    0.5f64.to_bits(),
                    (1.0f64 / 3.0).to_bits(),
                    f64::MIN_POSITIVE.to_bits(),
                ],
                undecided_bits: 0.2f64.to_bits(),
                supports: vec![500, 333, 0],
                undecided: 167,
                population: 1_000,
                interactions: 4_200,
                dt_bits: 0.01f64.to_bits(),
            }),
        ];
        for state in states {
            let checkpoint = Checkpoint::new(state);
            let json = checkpoint.to_json();
            let parsed =
                Checkpoint::from_json(&json).unwrap_or_else(|e| panic!("{e} while parsing {json}"));
            assert_eq!(parsed, checkpoint);
            assert_eq!(parsed.version(), CHECKPOINT_FORMAT_VERSION);
        }
    }

    #[test]
    fn none_rebalance_round_trips_as_null() {
        let checkpoint = Checkpoint::new(EngineState::Sharded(ShardedSnapshot {
            shards: vec![ShardSnapshot {
                engine: sample_snapshot(),
                cross_rng: [0, 1, 2, 3],
            }],
            alloc_rng: [4, 5, 6, 7],
            interactions: 1,
            epochs: 0,
            epoch_len: 10,
            threads: 1,
            rebalance_every: None,
        }));
        let json = checkpoint.to_json();
        assert!(json.contains("\"rebalance_every\":null"));
        assert_eq!(Checkpoint::from_json(&json).unwrap(), checkpoint);
    }

    #[test]
    fn unknown_format_versions_are_rejected_by_name() {
        let json = Checkpoint::new(EngineState::Exact(sample_snapshot()))
            .to_json()
            .replace("\"format\":1", "\"format\":9999");
        let err = Checkpoint::from_json(&json).unwrap_err();
        let PpError::Checkpoint { reason } = &err else {
            panic!("expected a checkpoint error, got {err:?}");
        };
        assert!(
            reason.contains("unsupported checkpoint format version 9999"),
            "diagnostic must name the version: {reason}"
        );
    }

    #[test]
    fn malformed_documents_fail_with_named_diagnostics() {
        for (doc, needle) in [
            ("", "unexpected end"),
            ("{\"format\":1}", "missing checkpoint field \"kind\""),
            ("[1,2,3]", "is not an object"),
            (
                "{\"format\":1,\"kind\":\"warp\",\"engine\":{}}",
                "unknown engine kind",
            ),
            ("{\"format\":1} trailing", "trailing characters"),
        ] {
            let err = Checkpoint::from_json(doc).unwrap_err();
            let PpError::Checkpoint { reason } = &err else {
                panic!("expected a checkpoint error for {doc:?}, got {err:?}");
            };
            assert!(reason.contains(needle), "{doc:?} gave {reason:?}");
        }
    }

    #[test]
    fn hostile_nesting_fails_with_the_named_limit() {
        let brackets = "[".repeat(300_000);
        let objects = "{\"a\":".repeat(300_000 / 5);
        for doc in [brackets, objects] {
            let err = Checkpoint::from_json(&doc).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than the limit"), "{err}");
        }
        // The limit itself is within the reader's reach (and then fails on
        // content, not depth).
        let at_limit = format!(
            "{}{}",
            "[".repeat(json::MAX_NESTING),
            "]".repeat(json::MAX_NESTING)
        );
        let err = Checkpoint::from_json(&at_limit).unwrap_err().to_string();
        assert!(!err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn counter_names_with_escapes_survive_the_round_trip() {
        let mut snap = sample_snapshot();
        snap.counters.push(("weird\"name\\with\nescapes".into(), 7));
        let checkpoint = Checkpoint::new(EngineState::Batched(snap));
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
        let EngineState::Batched(s) = parsed.engine() else {
            panic!("kind changed in flight");
        };
        assert_eq!(s.counter("weird\"name\\with\nescapes"), Some(7));
    }

    #[test]
    fn wrapper_metadata_rides_along_and_round_trips() {
        let bare = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        assert!(!bare.to_json().contains("\"meta\""));
        assert_eq!(bare.meta("sim.seed"), None);
        let stamped = bare
            .clone()
            .with_meta("sim.seed", 42)
            .with_meta("sim.consumed", 7)
            .with_meta("sim.seed", 43); // replaces, never duplicates
        assert_eq!(stamped.meta("sim.seed"), Some(43));
        assert_eq!(stamped.meta("sim.consumed"), Some(7));
        let parsed = Checkpoint::from_json(&stamped.to_json()).unwrap();
        assert_eq!(parsed, stamped);
        // Bare documents (no meta object) still parse.
        assert_eq!(Checkpoint::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn mean_field_bit_patterns_round_trip_exactly() {
        // Values with no finite decimal representation must survive the
        // round trip bit-for-bit — the whole point of the bits encoding.
        let awkward = [1.0f64 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0 - 1e-16];
        let state = EngineState::MeanField(MeanFieldSnapshot {
            fraction_bits: awkward.iter().map(|f| f.to_bits()).collect(),
            undecided_bits: (1.0f64 / 7.0).to_bits(),
            supports: vec![1, 2, 3, 4],
            undecided: 10,
            population: 20,
            interactions: 7,
            dt_bits: 0.001f64.to_bits(),
        });
        let parsed = Checkpoint::from_json(&Checkpoint::new(state.clone()).to_json()).unwrap();
        let EngineState::MeanField(s) = parsed.engine() else {
            panic!("kind changed in flight");
        };
        for (bits, original) in s.fraction_bits.iter().zip(awkward) {
            assert_eq!(f64::from_bits(*bits).to_bits(), original.to_bits());
        }
        assert_eq!(parsed, Checkpoint::new(state));
    }

    #[test]
    fn snapshot_rejects_invalid_counts() {
        let snap = EngineSnapshot {
            supports: vec![],
            undecided: 0,
            interactions: 0,
            rng: [0; 4],
            counters: Vec::new(),
        };
        assert!(matches!(
            snap.configuration(),
            Err(PpError::Checkpoint { .. })
        ));
    }

    #[test]
    fn expect_single_names_the_kind_mismatch() {
        let checkpoint = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        assert!(checkpoint.expect_single("exact").is_ok());
        let err = checkpoint.expect_single("batched").unwrap_err();
        let PpError::Checkpoint { reason } = err else {
            panic!("expected a checkpoint error");
        };
        assert!(reason.contains("\"exact\"") && reason.contains("\"batched\""));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let checkpoint = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        let dir = std::env::temp_dir().join("pp_core_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt.json");
        let bytes = checkpoint.save(&path).unwrap();
        assert!(bytes > 0);
        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint);
        let missing = dir.join("does-not-exist.ckpt.json");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(PpError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_replaces_an_existing_checkpoint_atomically() {
        let dir =
            std::env::temp_dir().join(format!("pp_core_checkpoint_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let tmp = dir.join("ckpt.json.tmp");
        let old = Checkpoint::new(EngineState::Exact(sample_snapshot()));
        old.save(&path).unwrap();
        assert!(!tmp.exists(), "a first save leaves nothing beside the file");
        let mut snapshot = sample_snapshot();
        snapshot.interactions += 1;
        let new = Checkpoint::new(EngineState::Exact(snapshot));
        new.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), new);
        // The replaced version is the spare the next save writes into.
        assert_eq!(Checkpoint::load(&tmp).unwrap(), old);
        assert!(!dir.join("ckpt.json.old").exists());
        old.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), old);
        assert_eq!(Checkpoint::load(&tmp).unwrap(), new);

        // A kill between the link and the last rename leaves `.old`; the
        // next save tidies it.
        std::fs::hard_link(&path, dir.join("ckpt.json.old")).unwrap();
        new.save(&path).unwrap();
        assert!(!dir.join("ckpt.json.old").exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), new);

        // A directory squatting on the temporary name fails the save with a
        // named error and leaves the previous checkpoint intact.
        std::fs::remove_file(&tmp).unwrap();
        std::fs::create_dir(&tmp).unwrap();
        let Err(PpError::Checkpoint { reason }) = old.save(&path) else {
            panic!("save over a blocked temporary file must fail");
        };
        assert!(
            reason.contains("ckpt.json.tmp") && reason.contains("cannot write"),
            "{reason}"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), new);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
