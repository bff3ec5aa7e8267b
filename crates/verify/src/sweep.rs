//! The bounded sweep every metatheory check runs: one enumeration walk
//! that stops at the earliest counterexample.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use txmm_core::Execution;
use txmm_synth::{walk, CandSeq, EnumConfig};

/// The outcome of one sweep.
pub(crate) struct Sweep<T> {
    /// The earliest counterexample found, if any.
    pub counterexample: Option<T>,
    /// Candidates that satisfied the check's hypotheses.
    pub checked: usize,
    /// False when the time budget ran out first.
    pub complete: bool,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Run `test` over every candidate of `cfg` on `workers` threads
/// (`workers = 1` is the sequential reference).
///
/// `test` answers `None` when a candidate fails the check's hypotheses,
/// `Some(None)` when it was checked and passed, and `Some(Some(c))` for
/// a counterexample `c`. A counterexample on any worker, or an exhausted
/// `budget`, stops every worker at its next candidate, so `checked` can
/// undercount once a counterexample exists; violation-free, unbudgeted
/// sweeps agree exactly across worker counts. When several workers find
/// counterexamples, the earliest in enumeration order is reported.
pub(crate) fn sweep<T: Send>(
    cfg: &EnumConfig,
    budget: Option<Duration>,
    workers: usize,
    test: impl Fn(&Execution) -> Option<Option<T>> + Sync,
) -> Sweep<T> {
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let overrun = AtomicBool::new(false);
    let (states, _, _) = walk(
        cfg,
        None,
        workers,
        None,
        |_| (0usize, None::<(CandSeq, T)>),
        |seq, x, (checked, counterexample)| {
            if counterexample.is_some() || stop.load(Ordering::Relaxed) {
                return;
            }
            if let Some(b) = budget {
                if start.elapsed() > b {
                    overrun.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                    return;
                }
            }
            if let Some(found) = test(x) {
                *checked += 1;
                if let Some(c) = found {
                    *counterexample = Some((seq, c));
                    stop.store(true, Ordering::Relaxed);
                }
            }
        },
    );
    let mut checked = 0usize;
    let mut best: Option<(CandSeq, T)> = None;
    for (c, cex) in states {
        checked += c;
        if let Some((seq, found)) = cex {
            if best.as_ref().is_none_or(|(s, _)| seq < *s) {
                best = Some((seq, found));
            }
        }
    }
    Sweep {
        counterexample: best.map(|(_, found)| found),
        checked,
        complete: !overrun.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}
