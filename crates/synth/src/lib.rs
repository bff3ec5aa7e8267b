//! # txmm-synth
//!
//! A Memalloy-equivalent synthesiser (§4 of the paper): exhaustive,
//! symmetry-reduced enumeration of candidate executions replaces the
//! Alloy/SAT search, and the ⊏ weakening order of Lustig et al. defines
//! minimally-forbidden ("Forbid") and maximally-allowed ("Allow")
//! conformance suites.
//!
//! * [`enumerate`] — candidate-execution generation per architecture,
//!   and [`walk`], the one enumeration walk every driver runs on
//!   (`workers = 1` is the sequential reference);
//! * [`consistent`] — the consistency-pruned walk and leaf checking;
//! * [`steal`] — the work-stealing pool the walk runs on;
//! * [`weaken`] — the ⊏ order: event removal, dependency removal,
//!   event downgrade, transaction-boundary stripping;
//! * [`suites`] — Forbid/Allow synthesis with discovery timestamps
//!   (regenerates Table 1 and Fig. 7);
//! * [`diff`] — model-difference search (Memalloy's original mode).
//!
//! ```
//! use txmm_synth::{suites::synthesise, EnumConfig};
//! use txmm_models::{Arch, Sc, Tsc};
//!
//! // At three events, TSC-vs-SC synthesis rediscovers the isolation
//! // shapes of Fig. 3.
//! let mut cfg = EnumConfig::hw(Arch::Sc, 3);
//! cfg.fences = false;
//! cfg.rmws = false;
//! cfg.max_threads = 2;
//! let r = synthesise(&cfg, &Tsc, &Sc, None);
//! assert!(r.forbid.len() >= 4);
//! ```

pub mod consistent;
pub mod diff;
pub mod enumerate;
pub mod steal;
pub mod suites;
pub mod weaken;

pub use consistent::{count_consistent_par_progress, oracle_for, visit_pruned_par, LeafChecker};
pub use diff::{distinguish, equivalent};
pub use enumerate::{
    count, count_par, count_reference, enumerate, enumerate_reference, enumerate_shape, stream_par,
    walk, walk_plan, CandSeq, EnumConfig, Frontier, Subtree, WalkPlan,
};
pub use steal::{run_with, worker_count, StealStats};
pub use suites::{
    synthesise, synthesise_seq, synthesise_streamed, synthesise_streamed_progress, txn_histogram,
    FoundTest, SuiteResult,
};
pub use txmm_core::canon::canon_key;
pub use weaken::weakenings;
