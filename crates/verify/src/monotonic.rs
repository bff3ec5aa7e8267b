//! Monotonicity checking (§8.1): introducing, enlarging or coalescing
//! transactions must never make an inconsistent execution consistent.
//!
//! The bounded check runs on the shared `sweep` helper: candidates
//! are checked on whichever worker enumerates them, so one big thread
//! shape spreads across every core, and a counterexample found anywhere
//! stops the other workers early.

use std::time::Duration;

use txmm_core::{Execution, TxnClass};
use txmm_models::Model;
use txmm_synth::EnumConfig;

use crate::sweep::sweep;

/// The outcome of a bounded monotonicity check.
pub struct MonotonicityResult {
    /// A violating pair `(X, Y)`: `X` inconsistent, `Y = X` with more
    /// `stxn` edges, `Y` consistent.
    pub counterexample: Option<(Execution, Execution)>,
    /// Executions examined.
    pub checked: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Whether the whole space (at this bound) was covered.
    pub complete: bool,
}

/// One-step transaction *extensions* of `x`: the inverse of weakening
/// clause (v), plus coalescing of adjacent transactions.
pub fn txn_extensions(x: &Execution) -> Vec<Execution> {
    let mut out = Vec::new();
    let n = x.len();
    // Introduce: a new singleton transaction on an unclaimed event.
    for e in 0..n {
        if x.txn_of(e).is_none() {
            let mut y = x.clone();
            y.txns_mut().push(TxnClass {
                events: vec![e],
                atomic: false,
            });
            if y.check_wf().is_ok() {
                out.push(y);
            }
        }
    }
    // Enlarge: absorb the po-neighbour before the first or after the
    // last member; coalesce when the neighbour belongs to another txn.
    for ti in 0..x.txns().len() {
        let class = &x.txns()[ti];
        let tid = x.event(class.events[0]).tid;
        let thread = x.thread_events(tid);
        let first_pos = thread.index_of(class.events[0]).expect("member");
        let last = *class.events.last().expect("non-empty");
        let last_pos = thread.index_of(last).expect("member");
        let mut grow = |neighbour: usize, at_front: bool| {
            let mut y = x.clone();
            match x.txn_of(neighbour) {
                None => {
                    let c = &mut y.txns_mut()[ti];
                    if at_front {
                        c.events.insert(0, neighbour);
                    } else {
                        c.events.push(neighbour);
                    }
                }
                Some(tj) if tj != ti => {
                    // Coalesce classes ti and tj.
                    let other = y.txns_mut()[tj].events.clone();
                    let c = &mut y.txns_mut()[ti];
                    if at_front {
                        let mut evs = other;
                        evs.extend(c.events.iter().copied());
                        c.events = evs;
                    } else {
                        c.events.extend(other);
                    }
                    y.txns_mut().remove(tj);
                }
                _ => return,
            }
            if y.check_wf().is_ok() {
                out.push(y);
            }
        };
        if first_pos > 0 {
            grow(thread.get(first_pos - 1), true);
        }
        if last_pos + 1 < thread.len() {
            grow(thread.get(last_pos + 1), false);
        }
    }
    out
}

/// One candidate's worth of monotonicity checking; returns a violating
/// pair when the model is non-monotone at `x`.
fn violation_at(model: &dyn Model, x: &Execution) -> Option<(Execution, Execution)> {
    if model.consistent(x) {
        return None;
    }
    for y in txn_extensions(x) {
        if model.consistent(&y) {
            return Some((x.clone(), y));
        }
    }
    None
}

/// Bounded monotonicity check for one model at one event count, run on
/// `workers` threads (`workers = 1` is the sequential reference).
///
/// A counterexample on any worker stops the others at their next
/// candidate, so `checked` can undercount relative to one worker once a
/// violation exists; on violation-free (and unbudgeted) runs the counts
/// agree exactly. When several workers find violations, the earliest in
/// enumeration order is reported.
pub fn check_monotonicity(
    cfg: &EnumConfig,
    model: &dyn Model,
    budget: Option<Duration>,
    workers: usize,
) -> MonotonicityResult {
    let r = sweep(cfg, budget, workers, |x| Some(violation_at(model, x)));
    MonotonicityResult {
        counterexample: r.counterexample,
        checked: r.checked,
        elapsed: r.elapsed,
        complete: r.complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;
    use txmm_models::{Arch, Armv8, Power, X86};
    use txmm_synth::worker_count;

    #[test]
    fn extensions_cover_intro_enlarge_coalesce() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let c = b.read(t0, 0);
        let d = b.read(t0, 0);
        b.txn(&[a]);
        b.txn(&[c]);
        let _ = d;
        let x = b.build().unwrap();
        let exts = txn_extensions(&x);
        // Introduce on d; enlarge txn{a} to the right = coalesce with
        // txn{c}; enlarge txn{c} left = coalesce; enlarge txn{c} right
        // onto d.
        assert!(exts.iter().any(|y| y.txns().len() == 3));
        assert!(exts
            .iter()
            .any(|y| y.txns().len() == 1 && y.txns()[0].events.len() == 2));
        assert!(exts
            .iter()
            .any(|y| y.txns().iter().any(|t| t.events == vec![c, d])));
    }

    #[test]
    fn power_counterexample_at_two_events() {
        // §8.1: the split-rmw execution is inconsistent
        // (TxnCancelsRMW) but coalescing makes it consistent.
        let cfg = EnumConfig {
            arch: Arch::Power,
            events: 2,
            max_threads: 1,
            max_locs: 1,
            fences: false,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let r = check_monotonicity(&cfg, &Power::tm(), None, worker_count());
        let (x, y) = r.counterexample.expect("paper finds a c'ex at |E| = 2");
        // The violation is TxnCancelsRMW: an rmw straddling a
        // transaction boundary, cured by growing/merging the txn.
        assert!(!x.rmw().is_empty());
        assert!(!Power::tm().consistent(&x));
        assert!(Power::tm().consistent(&y));
        assert!(
            y.txns().iter().any(|t| t.events.len() == 2),
            "rmw reunited in one txn"
        );
    }

    #[test]
    fn armv8_counterexample_at_two_events() {
        let cfg = EnumConfig {
            arch: Arch::Armv8,
            events: 2,
            max_threads: 1,
            max_locs: 1,
            fences: false,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let r = check_monotonicity(&cfg, &Armv8::tm(), None, worker_count());
        assert!(r.counterexample.is_some());
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        // Violation-free sweep: the sharded and sequential checkers
        // examine the same space and agree exactly.
        let cfg = EnumConfig {
            arch: Arch::X86,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: false,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let par = check_monotonicity(&cfg, &X86::tm(), None, 3);
        let seq = check_monotonicity(&cfg, &X86::tm(), None, 1);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.complete, seq.complete);
        assert!(par.counterexample.is_none() && seq.counterexample.is_none());
        // Violating sweep: both find a counterexample.
        let cfg = EnumConfig {
            arch: Arch::Power,
            events: 2,
            max_threads: 1,
            max_locs: 1,
            fences: false,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        assert!(check_monotonicity(&cfg, &Power::tm(), None, 3)
            .counterexample
            .is_some());
        assert!(check_monotonicity(&cfg, &Power::tm(), None, 1)
            .counterexample
            .is_some());
    }

    #[test]
    fn x86_monotone_at_small_bounds() {
        // Table 2: no counterexample for x86 (paper checks 6 events; we
        // check 3 here, the bench pushes further).
        let cfg = EnumConfig {
            arch: Arch::X86,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: true,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let r = check_monotonicity(&cfg, &X86::tm(), None, worker_count());
        assert!(r.counterexample.is_none(), "x86 TM is monotone");
        assert!(r.complete);
        assert!(r.checked > 0);
    }
}
