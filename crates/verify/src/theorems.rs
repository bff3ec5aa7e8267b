//! Bounded verification of the paper's theorems (§7).
//!
//! The paper proves these in Isabelle; we validate them exhaustively up
//! to a bound (the same regime Memalloy uses for Table 2) and leave
//! random deeper exploration to the proptest suites.
//!
//! Every check runs on the shared `sweep` helper (candidates checked
//! on whichever worker enumerates them); a counterexample on any worker
//! stops the others, and `workers = 1` is the sequential reference.

use std::time::Duration;

use txmm_core::{Execution, ExecutionAnalysis};
use txmm_models::{Arch, Cpp, Model, Tsc};
use txmm_synth::{worker_count, EnumConfig};

use crate::sweep::sweep;

/// The outcome of a bounded theorem check.
pub struct TheoremResult {
    /// An execution violating the theorem, if any.
    pub counterexample: Option<Execution>,
    /// Executions satisfying the hypotheses that were checked.
    pub checked: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

fn cpp_cfg(events: usize) -> EnumConfig {
    EnumConfig {
        arch: Arch::Cpp,
        events,
        max_threads: 2,
        max_locs: 2,
        fences: false,
        deps: false,
        rmws: false,
        txns: true,
        attrs: true,
        atomic_txns: true,
    }
}

/// Run one theorem's per-candidate predicate on `workers` threads.
///
/// `test` returns `None` when the hypotheses fail, `Some(false)` for a
/// checked candidate that satisfies the conclusion, and `Some(true)`
/// for a counterexample.
fn theorem_sweep(
    cfg: &EnumConfig,
    budget: Option<Duration>,
    workers: usize,
    test: impl Fn(&Execution, &ExecutionAnalysis<'_>) -> Option<bool> + Sync,
) -> TheoremResult {
    let r = sweep(cfg, budget, workers, |x| {
        test(x, &x.analysis()).map(|bad| bad.then(|| x.clone()))
    });
    TheoremResult {
        counterexample: r.counterexample,
        checked: r.checked,
        elapsed: r.elapsed,
    }
}

/// Theorem 7.2's per-candidate predicate.
fn theorem_7_2_test(m: &Cpp, x: &Execution, a: &ExecutionAnalysis<'_>) -> Option<bool> {
    if !m.consistent_analysis(a) || m.racy_analysis(a) || !Cpp::atomic_txns_wellformed(x) {
        return None;
    }
    if a.stxnat().is_empty() {
        return None;
    }
    Some(!a.strong_isol_atomic().is_acyclic())
}

/// Theorem 7.2: in race-free C++ executions whose atomic transactions
/// contain no atomic operations, atomic transactions are strongly
/// isolated: `acyclic(stronglift(com, stxnat))`.
pub fn check_theorem_7_2(events: usize, budget: Option<Duration>, workers: usize) -> TheoremResult {
    let m = Cpp::tm();
    theorem_sweep(&cpp_cfg(events), budget, workers, |x, a| {
        theorem_7_2_test(&m, x, a)
    })
}

/// Theorem 7.3's per-candidate predicate.
fn theorem_7_3_test(m: &Cpp, x: &Execution, a: &ExecutionAnalysis<'_>) -> Option<bool> {
    // Hypotheses: stxn = stxnat, Ato = SC, NoRace, consistency, plus
    // the specification's vocabulary condition on atomic transactions.
    if x.txns().iter().any(|t| !t.atomic) {
        return None;
    }
    if a.ato() != a.sc_events() {
        return None;
    }
    if !Cpp::atomic_txns_wellformed(x) {
        return None;
    }
    if !m.consistent_analysis(a) || m.racy_analysis(a) {
        return None;
    }
    Some(!Tsc.consistent_analysis(a))
}

/// Theorem 7.3 (transactional SC-DRF): a consistent C++ execution with
/// no relaxed transactions, no non-SC atomics and no races is consistent
/// under TSC.
pub fn check_theorem_7_3(events: usize, budget: Option<Duration>, workers: usize) -> TheoremResult {
    let m = Cpp::tm();
    theorem_sweep(&cpp_cfg(events), budget, workers, |x, a| {
        theorem_7_3_test(&m, x, a)
    })
}

/// The baseline sanity statement of §8: TM models agree with their
/// baselines on transaction-free executions.
pub fn check_tm_conservative(cfg: &EnumConfig, tm: &dyn Model, base: &dyn Model) -> TheoremResult {
    let mut cfg = cfg.clone();
    cfg.txns = false;
    theorem_sweep(&cfg, None, worker_count(), |_, a| {
        Some(tm.consistent_analysis(a) != base.consistent_analysis(a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::{Armv8, Power, X86};

    #[test]
    fn theorem_7_2_holds_to_three_events() {
        let r = check_theorem_7_2(3, None, worker_count());
        assert!(r.counterexample.is_none(), "Theorem 7.2 must hold");
        assert!(r.checked > 0, "hypotheses must be satisfiable");
    }

    #[test]
    fn theorem_7_3_holds_to_three_events() {
        let r = check_theorem_7_3(3, None, worker_count());
        assert!(r.counterexample.is_none(), "Theorem 7.3 must hold");
        assert!(r.checked > 0);
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let par = check_theorem_7_2(3, None, 3);
        let seq = check_theorem_7_2(3, None, 1);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.counterexample, seq.counterexample);
        let par = check_theorem_7_3(3, None, 3);
        let seq = check_theorem_7_3(3, None, 1);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.counterexample, seq.counterexample);
    }

    #[test]
    fn tm_models_conservative_over_baselines() {
        for (tm, base, arch) in [
            (
                Box::new(X86::tm()) as Box<dyn Model>,
                Box::new(X86::base()) as Box<dyn Model>,
                Arch::X86,
            ),
            (Box::new(Power::tm()), Box::new(Power::base()), Arch::Power),
            (Box::new(Armv8::tm()), Box::new(Armv8::base()), Arch::Armv8),
        ] {
            let cfg = EnumConfig {
                arch,
                events: 3,
                max_threads: 2,
                max_locs: 2,
                fences: true,
                deps: arch != Arch::X86,
                rmws: true,
                txns: false,
                attrs: arch == Arch::Armv8,
                atomic_txns: false,
            };
            let r = check_tm_conservative(&cfg, tm.as_ref(), base.as_ref());
            assert!(
                r.counterexample.is_none(),
                "{} must equal its baseline without transactions",
                tm.name()
            );
        }
    }
}
