//! # txmm-verify
//!
//! The paper's metatheory (§8, Table 2), checked by bounded exhaustive
//! search:
//!
//! * [`monotonic`] — introducing/enlarging/coalescing transactions never
//!   allows new behaviour (§8.1; counterexamples for Power and ARMv8 at
//!   two events, via `TxnCancelsRMW`);
//! * [`compile`] — the C++-to-hardware mappings and their soundness
//!   (§8.2);
//! * [`elision`] — lock elision as a program transformation (§8.3,
//!   Table 3), rediscovering Example 1.1 on ARMv8;
//! * [`theorems`] — bounded validation of Theorems 7.2 and 7.3.
//!
//! ```
//! use txmm_verify::elision::{check_lock_elision, ElisionTarget};
//!
//! let r = check_lock_elision(ElisionTarget::Armv8, None);
//! assert!(r.counterexample.is_some(), "lock elision is unsound on ARMv8");
//! ```

pub mod compile;
pub mod elision;
pub mod monotonic;
mod sweep;
pub mod theorems;

pub use compile::{check_compilation, map_execution, CompileResult};
pub use elision::{check_lock_elision, expand, violates_cr_order, ElisionResult, ElisionTarget};
pub use monotonic::{check_monotonicity, txn_extensions, MonotonicityResult};
pub use theorems::{check_theorem_7_2, check_theorem_7_3, check_tm_conservative, TheoremResult};
