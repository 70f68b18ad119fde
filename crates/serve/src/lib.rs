//! `nnbo-serve` — a supervised, crash-safe, multi-session serving layer for
//! the Bayesian-optimization loop of `nnbo-core`.
//!
//! The paper's optimizer is built to sit in front of expensive, flaky
//! simulators for hours; this crate supplies the operational shell such a
//! deployment needs:
//!
//! * **One parallelism mechanism.**  Every session steps as a detached job
//!   on the process-wide [`nnbo_pool::WorkerPool`] (or a service-private
//!   pool), the same pool the linear-algebra and ensemble fan-outs run
//!   their scoped batches on.  No per-call thread spawning anywhere in the
//!   serving path — the only sacrificial threads are the deadline
//!   watchdogs, which must be abandonable by design (see
//!   [`DeadlineProblem`]).
//!
//! * **Panic isolation and supervision.**  A panic inside one session's
//!   step quarantines that session alone; its panic payload is recorded,
//!   the worker that ran it is recycled onto a fresh thread by the pool's
//!   supervisor (within a restart budget), and every other session keeps
//!   stepping.  See the supervision tree in the [`service`] module docs.
//!
//! * **Crash-safe persistence.**  Every completed step is checkpointed
//!   through [`SessionStore`] with an atomic write-then-rename protocol
//!   and checksum framing, so a `kill -9` at any instant loses at most the
//!   in-flight step and torn or bit-rotted files are *detected*, never
//!   resumed from.  Recovery is bit-identical: a restored session produces
//!   exactly the evaluations the uninterrupted run would have.  The full
//!   durability contract is in the [`store`] module docs.
//!
//! * **Deadlines and load shedding.**  A configurable per-evaluation
//!   deadline turns hung simulators into `EvalOutcome::Timeout`, which the
//!   loop's failure policy absorbs; admission control bounds the number of
//!   live sessions, parking the oldest idle session (checkpoint intact)
//!   under overload and rejecting with [`ServeError::Overloaded`] — the
//!   explicit backpressure signal — when nothing can be shed.
//!
//! * **Sharding, fault injection, and scrub.**  Every filesystem touch of
//!   the store goes through the [`io::StoreIo`] seam, so the same
//!   persistence code runs against the real disk ([`io::StdIo`]) or a
//!   deterministic fault injector ([`io::FaultIo`]) scripting EIO, ENOSPC,
//!   torn writes, dropped renames, and lost fsyncs.  [`ShardedStore`]
//!   spreads sessions across K directory shards with rendezvous-hash
//!   routing, retries transient faults with decorrelated-jitter backoff,
//!   and degrades per shard: a `Down` shard rejects only its own sessions
//!   with [`ServeError::ShardUnavailable`] while the rest keep serving.
//!   A [`ShardedStore::scrub`] pass walks the shards, repairs session
//!   generations (promoting intact backups over corrupt or missing
//!   `latest` files), revives recovered shards, and reports a typed
//!   [`ScrubReport`]; [`BoService::recover`] runs the per-session repair
//!   before loading, so a restart after any fault sequence converges to a
//!   consistent store.  The fault model — which faults are retried, which
//!   degrade a shard, and which lose data — is documented in the [`store`]
//!   module.
//!
//! The happy path:
//!
//! ```
//! use std::sync::Arc;
//! use nnbo_core::{BayesOpt, BoConfig, problems::ConstrainedBranin};
//! use nnbo_serve::{BoService, ServeConfig, SessionStore, SessionStatus};
//!
//! let dir = std::env::temp_dir().join(format!("nnbo-serve-doc-{}", std::process::id()));
//! let store = SessionStore::open(&dir).unwrap();
//! let service = BoService::new(store, ServeConfig::default());
//!
//! let config = BoConfig::fast(4, 8).with_seed(7);
//! service
//!     .submit("branin-7", BayesOpt::neural(config), Arc::new(ConstrainedBranin))
//!     .unwrap();
//! service.drain();
//!
//! assert_eq!(service.status("branin-7").unwrap(), SessionStatus::Completed);
//! let result = service.result("branin-7").unwrap();
//! assert_eq!(result.num_evaluations(), 8);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod deadline;
pub mod io;
pub mod scrub;
pub mod service;
pub mod shard;
pub mod store;

pub use deadline::DeadlineProblem;
pub use error::ServeError;
pub use io::{FaultIo, FaultKind, FaultPlan, StdIo, StoreIo};
pub use scrub::{ScrubAction, ScrubReport, SessionScrub};
pub use service::{percentile_of, BoService, ServeConfig, ServeStats, SessionStatus};
pub use shard::{RetryPolicy, ShardConfig, ShardHealth, ShardedStore};
pub use store::{fnv1a64, LoadedSession, SessionStore, SnapshotStore};
