//! Differential tests for consistency-guided pruning: the pruned
//! enumerators must be observationally identical to plain
//! enumerate-then-filter — the same consistent canonical-key sets, the
//! same allowed-outcome tables — on every model space we can afford.
//!
//! Four layers are exercised:
//!
//! * **Structure enumeration** (the pruned walk vs
//!   [`enumerate`] + `model.consistent`): six model spaces at |E| = 3
//!   in the regular suite, the cheap spaces at |E| = 4 behind
//!   `#[ignore]` for the CI `prune-smoke` release job.
//! * **Table 1 synthesis** ([`synthesise_streamed`], pruned by the
//!   baseline's oracle, vs [`enumerate`] filtered through the Forbid
//!   conditions and the Allow rule): the same ordered Forbid and Allow
//!   lists on 1 and 3 workers for every (tm, baseline) pair at |E| = 3,
//!   x86 and SC-TSC at |E| = 4 behind `#[ignore]`.
//! * **Outcome tables** (the Session's per-mask walk vs
//!   enumerate-then-filter over [`txmm::litmus::candidates`]): the
//!   per-model allowed sets, postcondition verdicts and closed-form
//!   candidate counts must agree over the generated corpus, including
//!   its transactional programs and a model without a prune oracle.
//! * **`.cat` oracles never over-prune**: on complete executions the
//!   monotone core is a weakening of the full model — it may accept
//!   more, never reject a consistent execution.

use std::collections::HashSet;

use txmm::core::{canon_key, ExecutionAnalysis, PruneOracle};
use txmm::models::{Arch, Armv8, Cpp, Model, Power, Sc, Tsc, X86};
use txmm::synth::{
    count_consistent_par_progress, enumerate, oracle_for, synthesise_streamed, visit_pruned_par,
    weakenings, EnumConfig, LeafChecker,
};
use txmm_bench::table1_config;

type Space = (&'static str, EnumConfig, Vec<Box<dyn Model>>);

/// The model spaces of the paper, each paired with the native models
/// whose oracles prune it.
fn spaces(events: usize) -> Vec<Space> {
    let cpp_atomic = EnumConfig {
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
    };
    vec![
        (
            "sc-tsc",
            EnumConfig::hw(Arch::Sc, events),
            vec![Box::new(Sc) as Box<dyn Model>, Box::new(Tsc)],
        ),
        (
            "x86",
            EnumConfig::hw(Arch::X86, events),
            vec![Box::new(X86::base()), Box::new(X86::tm())],
        ),
        (
            "power",
            EnumConfig::hw(Arch::Power, events),
            vec![Box::new(Power::tm())],
        ),
        (
            "armv8",
            EnumConfig::hw(Arch::Armv8, events),
            vec![Box::new(Armv8::tm())],
        ),
        (
            "cpp",
            EnumConfig::hw(Arch::Cpp, events),
            vec![Box::new(Cpp::tm())],
        ),
        ("cpp-atomic-txns", cpp_atomic, vec![Box::new(Cpp::tm())]),
    ]
}

/// The pruned stream equals plain enumerate-then-filter, class for
/// class and in the same order, and the oracle was actually consulted
/// along the way.
fn assert_pruned_matches_filtered(name: &str, cfg: &EnumConfig, model: &dyn Model) {
    let (states, st, _) = visit_pruned_par(
        cfg,
        oracle_for(model, false),
        1,
        |_| (Vec::new(), LeafChecker::new(model)),
        |_, x, (keys, check)| {
            if check.consistent(x) {
                keys.push(canon_key(x));
            }
        },
    );
    let pruned_keys: Vec<Vec<u8>> = states.into_iter().flat_map(|(keys, _)| keys).collect();
    assert_eq!(
        pruned_keys.iter().collect::<HashSet<_>>().len(),
        pruned_keys.len(),
        "{name}: pruned stream emitted a duplicate class"
    );

    let mut plain_keys = Vec::new();
    enumerate(cfg, &mut |x| {
        if model.consistent(x) {
            plain_keys.push(canon_key(x));
        }
    });

    assert!(
        pruned_keys == plain_keys,
        "{name}: pruned and filtered consistent-class streams differ \
         ({} vs {} classes, or the order diverged)",
        pruned_keys.len(),
        plain_keys.len()
    );
    if model.prune_oracle(false).is_some() {
        // Exact delta plans answer every probe incrementally, so the
        // full oracle may legitimately never run — but the viability
        // machinery as a whole must have been consulted.
        assert!(
            st.delta_answers + st.oracle_calls > 0,
            "{name}: the oracle never ran"
        );
    }
}

#[test]
fn all_spaces_at_three_events() {
    for (name, cfg, models) in spaces(3) {
        for model in &models {
            assert_pruned_matches_filtered(name, &cfg, model.as_ref());
        }
    }
}

#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn cheap_spaces_at_four_events() {
    for (name, cfg, models) in spaces(4) {
        if !matches!(cfg.arch, Arch::Sc | Arch::X86 | Arch::Cpp) {
            continue; // Power/ARMv8 at |E| = 4 are enumeration-smoke territory.
        }
        for model in &models {
            assert_pruned_matches_filtered(name, &cfg, model.as_ref());
        }
    }
}

/// The (transactional model, baseline) pair the synthesiser runs on
/// `arch`.
fn synthesis_pair(arch: Arch) -> (Box<dyn Model>, Box<dyn Model>) {
    match arch {
        Arch::Sc => (Box::new(Tsc), Box::new(Sc)),
        Arch::X86 => (Box::new(X86::tm()), Box::new(X86::base())),
        Arch::Power => (Box::new(Power::tm()), Box::new(Power::base())),
        Arch::Armv8 => (Box::new(Armv8::tm()), Box::new(Armv8::base())),
        Arch::Cpp => (Box::new(Cpp::tm()), Box::new(Cpp::base())),
    }
}

/// The unpruned reference: `enumerate` filtered through the four Forbid
/// conditions — a transaction, forbidden by `tm`, allowed by `base` with
/// transactions erased, every one-step weakening `tm`-consistent — then
/// the Allow rule: the `tm`-consistent weakenings of the Forbid tests,
/// deduplicated. Returns the ordered canonical keys of both lists.
fn reference_suite(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut forbid = Vec::new();
    enumerate(cfg, &mut |x| {
        if !x.txns().is_empty()
            && !tm.consistent(x)
            && base.consistent(&x.erase_txns())
            && weakenings(x, cfg.arch).iter().all(|w| tm.consistent(w))
        {
            forbid.push(x.clone());
        }
    });
    let mut allow = Vec::new();
    let mut seen = HashSet::new();
    for w in forbid.iter().flat_map(|f| weakenings(f, cfg.arch)) {
        if tm.consistent(&w) && seen.insert(canon_key(&w)) {
            allow.push(canon_key(&w));
        }
    }
    (forbid.iter().map(canon_key).collect(), allow)
}

/// Pruned synthesis on 1 and 3 workers yields the reference's Forbid
/// and Allow lists, test for test and in order.
fn assert_synthesis_matches_reference(events: usize, archs: &[Arch]) {
    for &arch in archs {
        let cfg = table1_config(arch, events);
        let (tm, base) = synthesis_pair(arch);
        let (tm, base) = (tm.as_ref(), base.as_ref());
        let (forbid, allow) = reference_suite(&cfg, tm, base);
        assert!(!forbid.is_empty(), "{}: no Forbid tests", tm.name());
        for workers in [1, 3] {
            let r = synthesise_streamed(&cfg, tm, base, None, workers);
            assert!(r.complete);
            let got: Vec<Vec<u8>> = r.forbid.iter().map(|f| canon_key(&f.exec)).collect();
            assert!(
                got == forbid,
                "{} on {workers} workers: Forbid list differs",
                tm.name()
            );
            let got: Vec<Vec<u8>> = r.allow.iter().map(canon_key).collect();
            assert!(
                got == allow,
                "{} on {workers} workers: Allow list differs",
                tm.name()
            );
        }
    }
}

#[test]
fn synthesis_matches_filtered_enumeration_at_three_events() {
    assert_synthesis_matches_reference(
        3,
        &[Arch::Sc, Arch::X86, Arch::Power, Arch::Armv8, Arch::Cpp],
    );
}

#[test]
#[ignore = "tens of seconds in debug; the CI prune-smoke job runs it in release"]
fn synthesis_matches_filtered_enumeration_at_four_events() {
    assert_synthesis_matches_reference(4, &[Arch::Sc, Arch::X86]);
}

/// Outcome tables: the Session's per-mask walk must serve exactly the
/// answers of an in-test enumerate-then-filter reference
/// ([`txmm::litmus::candidates`], the full model check per candidate)
/// over the generated corpus — same allowed sets, same postcondition
/// verdicts — for every native model and for `noor`, a `.cat` model
/// with no prune oracle (so the walk runs under `NoPrune`), on 1 and 4
/// workers. (Visited-class counts legitimately differ per model: the
/// walk never materialises classes its oracle refutes.)
#[test]
fn outcome_tables_agree_with_unpruned_session() {
    use txmm::hwsim::{Outcome, OutcomeSet, MAX_LOCS};
    use txmm::litmus::{candidate_count, candidates, parse_litmus};
    use txmm::session::Session;

    /// The simulators' fixed-width location layout.
    fn pad<T: Clone + Default>(v: &[T]) -> Vec<T> {
        let mut v = v.to_vec();
        v.resize(MAX_LOCS, T::default());
        v
    }

    let corpus = txmm::corpus::generate(3);
    assert!(
        corpus.iter().any(|(name, _)| name.contains("txn")),
        "the corpus must include transactional programs"
    );

    for workers in [1, 4] {
        let mut s = Session::new();
        s.set_outcome_workers(workers);
        let noor = s
            .register_cat_source("noor", "acyclic po | (co \\ rf) as X")
            .unwrap();
        assert!(
            s.model(noor).prune_oracle(true).is_none(),
            "noor must exercise the oracle-less walk"
        );
        for (name, src) in &corpus {
            let file = format!("{name}.litmus");
            let t = parse_litmus(src).expect("corpus sources parse");
            let r = s
                .outcomes(&file, &t, None)
                .unwrap_or_else(|e| panic!("{name}: refused: {e}"));
            assert_eq!(
                r.candidates as u128,
                candidate_count(&t).unwrap(),
                "{name}: candidate count"
            );
            let all = candidates(&t).unwrap();
            for (m, got) in s.models().zip(&r.per_model) {
                let model = s.model(m);
                let allowed: OutcomeSet = all
                    .iter()
                    .filter(|c| model.check(&c.exec).is_consistent())
                    .map(|c| Outcome {
                        regs: c.regs.clone(),
                        memory: pad(&c.memory),
                        txn_ok: c.txn_ok.clone(),
                        co_order: pad(&c.co_order),
                    })
                    .collect();
                let post_allowed =
                    (!t.post.is_empty()).then(|| allowed.iter().any(|o| o.passes(&t)));
                assert_eq!(got.model, model.name());
                assert_eq!(
                    got.allowed, allowed,
                    "{name} on {} workers: {} allowed set",
                    workers, got.model
                );
                assert_eq!(got.post_allowed, post_allowed, "{name}: {}", got.model);
            }
        }
        let st = s.stats();
        assert!(
            st.prune_oracle_calls + st.prune_delta_answers > 0,
            "pruning never engaged: {st:?}"
        );
    }
}

/// Incremental viability == recompute-from-scratch. With delta
/// validation armed, every probe that the per-model [`DeltaPlan`]
/// answers incrementally is cross-checked inside the engine against a
/// full [`ExecutionAnalysis`] re-derivation: exact plans must agree
/// bit-for-bit, inexact (conservative) plans must never declare a
/// candidate dead that the full oracle still accepts. Any divergence
/// panics inside `probe`, so driving the pruned enumerator over a
/// space *is* the assertion.
fn assert_delta_matches_recompute(events: usize, skip_slow: bool) {
    struct Arm;
    impl Drop for Arm {
        fn drop(&mut self) {
            txmm::core::set_delta_validation(false);
        }
    }
    txmm::core::set_delta_validation(true);
    let _disarm = Arm;

    for (name, cfg, models) in spaces(events) {
        if skip_slow && !matches!(cfg.arch, Arch::Sc | Arch::X86 | Arch::Cpp) {
            continue;
        }
        for model in &models {
            let (classes, st) = count_consistent_par_progress(&cfg, model.as_ref(), 1, None);
            assert!(classes > 0, "{name}: empty consistent space");
            if model.prune_oracle(false).is_some() {
                assert!(
                    st.delta_answers > 0,
                    "{name}: the delta plan never answered a probe"
                );
            }
        }
    }
}

#[test]
fn delta_viability_matches_recompute_at_three_events() {
    assert_delta_matches_recompute(3, false);
}

#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn delta_viability_matches_recompute_at_four_events() {
    assert_delta_matches_recompute(4, true);
}

/// The parallel per-abort-split walk must be byte-identical to the
/// sequential one: same JSONL report lines for every program in the
/// corpus, in particular the same candidate/class counts and the same
/// ordered allowed-outcome tables. Dead-mask subsumption and worker
/// scheduling may reorder *work*, never *output*.
#[test]
fn parallel_mask_walk_is_byte_identical_to_sequential() {
    use txmm::serve::{serve, Kind};
    use txmm::session::Session;

    let corpus = txmm::corpus::generate(3);
    assert!(
        corpus.iter().any(|(name, _)| name.contains("txn")),
        "the corpus must include transactional programs (abort splits)"
    );

    let mut seq = Session::new();
    seq.set_outcome_workers(1);
    let mut par = Session::new();
    par.set_outcome_workers(4);

    for (name, src) in &corpus {
        let file = format!("{name}.litmus");
        let a = serve(&mut seq, Kind::Outcomes, &file, src, None).line;
        let b = serve(&mut par, Kind::Outcomes, &file, src, None).line;
        assert_eq!(a, b, "{name}: parallel walk diverged from sequential");
    }
}

/// `.cat` oracles are *weakenings* of their models: on a complete
/// execution, full-model consistency implies oracle viability. (The
/// converse direction is what the downstream re-verdicting handles.)
#[test]
fn cat_oracles_never_overprune_complete_executions() {
    use txmm::cat::{all_cat_models, CatPruneOracle};

    let mut checked = 0usize;
    for model in all_cat_models() {
        let Some(oracle) = CatPruneOracle::derive("probe", &model, true) else {
            continue; // No monotone core: the engine simply doesn't prune.
        };
        let arch = match model.name {
            n if n.starts_with("x86") => Arch::X86,
            n if n.starts_with("power") => Arch::Power,
            n if n.starts_with("armv8") => Arch::Armv8,
            n if n.starts_with("cpp") => Arch::Cpp,
            _ => Arch::Sc,
        };
        let mut spot_checks = 0usize;
        enumerate(&EnumConfig::hw(arch, 3), &mut |x| {
            // Keep the per-model cost bounded: every 17th class is a
            // deterministic spot-check sample of the space.
            spot_checks += 1;
            if !spot_checks.is_multiple_of(17) {
                return;
            }
            let full = model.consistent(x).expect("full model evaluates");
            let a = ExecutionAnalysis::with_fr(x, x.fr());
            if full {
                assert!(
                    oracle.viable(&a),
                    "{}: oracle rejected a consistent execution",
                    model.name
                );
            }
        });
        checked += 1;
    }
    assert!(checked >= 4, "expected oracles for most shipped models");
}
