//! # fx10-semantics
//!
//! The small-step operational semantics of FX10 (paper §3.3).
//!
//! A state is a triple `(p, A, T)` of the program, the shared-array state
//! [`ArrayState`], and an execution [`Tree`]:
//!
//! ```text
//! T ::= √  |  ⟨s⟩  |  T ▷ T  |  T ∥ T
//! ```
//!
//! `T₁ ▷ T₂` (from `finish`) requires `T₁` to complete before `T₂` runs;
//! `T₁ ∥ T₂` (from `async`) interleaves both sides; `√` is a completed
//! computation; `⟨s⟩` is a running statement.
//!
//! This crate provides:
//! - [`step`]: the transition rules (1)–(14) as a successor enumerator,
//! - [`interp`]: an interpreter parameterized by a [`interp::Scheduler`]
//!   (leftmost, rightmost, random),
//! - [`parallel`]: the `parallel(T)` / `FTlabels(T)` functions of Figure 3,
//!   used to define ground-truth MHP,
//! - [`explore`](mod@explore): exhaustive (sequential and multi-threaded) state-space
//!   exploration computing the *dynamic* may-happen-in-parallel relation
//!   `MHP(p) = ∪ { parallel(T) | (p,A₀,⟨s₀⟩) →* (p,A,T) }` and checking
//!   the deadlock-freedom theorem (Theorem 1) on every visited state.

#![warn(missing_docs)]
pub mod explore;
pub mod intern;
pub mod interp;
pub mod parallel;
pub mod shard;
pub mod snapshot;
pub mod state;
pub mod step;
pub mod tree;
pub mod witness;

pub use explore::{
    explore, explore_budgeted, explore_interned_budgeted, explore_parallel,
    explore_parallel_budgeted, explore_parallel_durable, explore_sampled, settle_outcome,
    CheckpointSpec, Durability, Exploration, ExploreConfig, FrontSample, WatchdogSpec,
};
pub use intern::{ArrayId, Interner, StmtId, TreeId};
pub use interp::{run, run_budgeted, run_result, RunOutcome, Scheduler};
pub use parallel::{ftlabels, parallel, LabelPair};
pub use shard::{
    explore_sharded, shard_of, shard_worker_main, shard_worker_net, NetWorkerOptions,
    ShardProvenance, ShardedOptions, StateDigests,
};
pub use snapshot::{fingerprint as snapshot_fingerprint, ExplorerSnapshot};
pub use state::ArrayState;
pub use tree::Tree;
pub use witness::{
    find_witness, find_witness_simple, find_witnesses, witness_exhibits, Witness, WitnessSearch,
};
