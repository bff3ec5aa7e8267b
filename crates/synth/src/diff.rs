//! Model-difference search: Memalloy's original mode (§4).
//!
//! Given two models `M` and `N`, find executions that are inconsistent
//! under `M` but consistent under `N` — the seed operation behind axiom
//! refinement (§4.1).
//!
//! Both searches run on the enumeration [`walk`]: candidates are
//! checked on whichever worker enumerates them, and witnesses carry
//! their position in the sequential enumeration order, so a final sort
//! makes the result independent of the worker count (`workers = 1` is
//! the sequential reference).

use std::sync::atomic::{AtomicBool, Ordering};

use txmm_core::Execution;
use txmm_models::{consistent_pair, Model};

use crate::enumerate::{walk, CandSeq, EnumConfig};

/// Executions distinguishing `m` (forbids) from `n` (allows), up to the
/// configured size, searched on `workers` threads; keeps the first
/// `limit` witnesses (in enumeration order) when given.
pub fn distinguish(
    cfg: &EnumConfig,
    m: &dyn Model,
    n: &dyn Model,
    limit: Option<usize>,
    workers: usize,
) -> Vec<Execution> {
    let (states, _, _) = walk(
        cfg,
        None,
        workers,
        None,
        |_| Vec::new(),
        |seq, x, found: &mut Vec<(CandSeq, Execution)>| {
            let (mc, nc) = consistent_pair(m, n, x);
            if !mc && nc {
                found.push((seq, x.clone()));
            }
        },
    );
    let mut all: Vec<(CandSeq, Execution)> = states.into_iter().flatten().collect();
    all.sort_by_key(|(seq, _)| *seq);
    if let Some(l) = limit {
        all.truncate(l);
    }
    all.into_iter().map(|(_, x)| x).collect()
}

/// Are the two models equivalent on every execution up to the bound?
///
/// Candidates stream across `workers` threads; the first disagreement
/// anywhere stops every worker at its next candidate.
pub fn equivalent(cfg: &EnumConfig, m: &dyn Model, n: &dyn Model, workers: usize) -> bool {
    let diverged = AtomicBool::new(false);
    walk(
        cfg,
        None,
        workers,
        None,
        |_| (),
        |_, x, _| {
            if diverged.load(Ordering::Relaxed) {
                return;
            }
            let (mc, nc) = consistent_pair(m, n, x);
            if mc != nc {
                diverged.store(true, Ordering::Relaxed);
            }
        },
    );
    !diverged.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steal::worker_count;
    use txmm_core::canon::canon_key;
    use txmm_models::{Arch, Sc, Tsc, X86};

    #[test]
    fn sc_vs_tsc_differ_only_with_txns() {
        let cfg = EnumConfig {
            arch: Arch::Sc,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: false,
            deps: false,
            rmws: false,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let found = distinguish(&cfg, &Tsc, &Sc, Some(5), worker_count());
        assert!(!found.is_empty());
        for x in &found {
            assert!(
                !x.txns().is_empty(),
                "SC = TSC on transaction-free executions"
            );
        }
    }

    #[test]
    fn sc_stronger_than_x86() {
        // SC forbids store buffering; x86 allows it.
        let cfg = EnumConfig {
            arch: Arch::X86,
            events: 4,
            max_threads: 2,
            max_locs: 2,
            fences: false,
            deps: false,
            rmws: false,
            txns: false,
            attrs: false,
            atomic_txns: false,
        };
        let found = distinguish(&cfg, &Sc, &X86::base(), Some(1), worker_count());
        assert!(!found.is_empty());
        // The reverse direction finds nothing: x86 never forbids what SC
        // allows.
        let rev = distinguish(&cfg, &X86::base(), &Sc, Some(1), worker_count());
        assert!(rev.is_empty());
    }

    #[test]
    fn model_self_equivalence() {
        let cfg = EnumConfig {
            arch: Arch::X86,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: true,
            deps: false,
            rmws: true,
            txns: false,
            attrs: false,
            atomic_txns: false,
        };
        assert!(equivalent(&cfg, &X86::base(), &X86::base(), worker_count()));
        assert!(
            equivalent(&cfg, &X86::base(), &X86::tm(), worker_count()),
            "equal without transactions"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = EnumConfig {
            arch: Arch::Sc,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: false,
            deps: false,
            rmws: false,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let par: Vec<_> = distinguish(&cfg, &Tsc, &Sc, None, 3)
            .iter()
            .map(canon_key)
            .collect();
        let seq: Vec<_> = distinguish(&cfg, &Tsc, &Sc, None, 1)
            .iter()
            .map(canon_key)
            .collect();
        assert_eq!(par, seq, "same witnesses in the same enumeration order");
        // Limits truncate the same prefix.
        let par2: Vec<_> = distinguish(&cfg, &Tsc, &Sc, Some(3), 3)
            .iter()
            .map(canon_key)
            .collect();
        assert_eq!(par2, seq[..3]);
        assert_eq!(
            equivalent(&cfg, &Tsc, &Sc, 3),
            equivalent(&cfg, &Tsc, &Sc, 1)
        );
        assert_eq!(equivalent(&cfg, &Sc, &Sc, 3), equivalent(&cfg, &Sc, &Sc, 1));
    }
}
