//! Golden `count_par` values per architecture, pinned so canonicalisation
//! regressions — over-pruning (counts drop) or under-pruning (counts
//! rise) — fail fast. The counts equal the number of canonical
//! (symmetry-reduced) classes of the default hardware spaces, and were
//! cross-checked against the seed generate-then-dedup path by the
//! differential suite.
//!
//! The CI `enumeration-smoke` job runs this in release mode including
//! the `#[ignore]`d heavyweight bounds. The `synthesis` goldens pin the
//! T columns of Table 1 (Forbid and Allow suite sizes).

use txmm::models::{Arch, Armv8, Model, Power, X86};
use txmm::synth::{count_consistent_par_progress, count_par, synthesise, worker_count, EnumConfig};
use txmm_bench::table1_config;

fn golden(arch: Arch, events: usize, expect: usize) {
    let got = count_par(&EnumConfig::hw(arch, events));
    assert_eq!(
        got, expect,
        "{arch:?} |E|={events}: canonical class count drifted (over- or under-pruning)"
    );
}

/// Golden *consistent*-class counts through the pruned walk: drops
/// mean over-pruning, rises mean the oracle or the model weakened.
fn golden_consistent(arch: Arch, model: &dyn Model, events: usize, expect: usize) {
    let (got, _) =
        count_consistent_par_progress(&EnumConfig::hw(arch, events), model, worker_count(), None);
    assert_eq!(
        got, expect,
        "{arch:?} |E|={events}: consistent class count drifted"
    );
}

#[test]
fn three_event_counts() {
    golden(Arch::Sc, 3, 2_641);
    golden(Arch::X86, 3, 3_699);
    golden(Arch::Power, 3, 33_193);
    golden(Arch::Armv8, 3, 232_796);
    golden(Arch::Cpp, 3, 3_123);
}

#[test]
fn four_event_counts_cheap_spaces() {
    golden(Arch::Sc, 4, 97_898);
    golden(Arch::X86, 4, 138_678);
    golden(Arch::Cpp, 4, 107_350);
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in release"]
fn four_event_count_power() {
    golden(Arch::Power, 4, 11_221_961);
}

#[test]
#[ignore = "about a minute in release on one core; CI runs it in release"]
fn four_event_count_armv8() {
    golden(Arch::Armv8, 4, 168_076_198);
}

#[test]
#[ignore = "the |E| = 5 bound the streaming engine unlocks; CI runs it in release"]
fn five_event_count_x86() {
    golden(Arch::X86, 5, 6_094_392);
}

#[test]
fn four_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 4, 60_352);
}

#[test]
#[ignore = "seconds in release; the CI prune-smoke job runs it"]
fn five_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 5, 1_715_002);
}

#[test]
#[ignore = "the |E| = 6 bound consistency-guided pruning unlocks (~1 min \
            single-core in release); the CI prune-smoke job runs it"]
fn six_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 6, 51_415_611);
}

#[test]
#[ignore = "~10 s in release; the CI prune-smoke job runs it"]
fn four_event_consistent_count_power() {
    golden_consistent(Arch::Power, &Power::tm(), 4, 3_441_758);
}

#[test]
#[ignore = "~1 min in release; the CI prune-smoke job runs it"]
fn four_event_consistent_count_armv8() {
    golden_consistent(Arch::Armv8, &Armv8::tm(), 4, 48_749_694);
}

#[test]
#[ignore = "~2 h single-core in release (2,479,467,883 classes; ~11.4B \
            candidates pruned); the CI prune-smoke job runs it"]
fn five_event_consistent_count_power() {
    golden_consistent(Arch::Power, &Power::tm(), 5, 2_479_467_883);
}

/// Golden Table 1 suite sizes: the Forbid and Allow tests synthesised
/// for `tm` against `base` over the Table 1 space.
fn golden_synthesis(
    arch: Arch,
    tm: &dyn Model,
    base: &dyn Model,
    events: usize,
    expect: [usize; 2],
) {
    let r = synthesise(&table1_config(arch, events), tm, base, None);
    assert!(r.complete);
    assert_eq!(
        [r.forbid.len(), r.allow.len()],
        expect,
        "{arch:?} |E|={events}: Table 1 Forbid/Allow counts drifted"
    );
}

#[test]
fn synthesis_x86_four_events() {
    golden_synthesis(Arch::X86, &X86::tm(), &X86::base(), 4, [22, 92]);
}

#[test]
#[ignore = "seconds in release; the CI prune-smoke job runs it"]
fn synthesis_x86_five_events() {
    golden_synthesis(Arch::X86, &X86::tm(), &X86::base(), 5, [36, 204]);
}

#[test]
#[ignore = "~10 s in release on two cores; the CI prune-smoke job runs it"]
fn synthesis_power_four_events() {
    golden_synthesis(Arch::Power, &Power::tm(), &Power::base(), 4, [60, 184]);
}

// ---- ARMv8 |E| = 5 and |E| = 6: measure-and-pin harnesses ------------
//
// None of these bounds has completed on a single core yet: the
// Power |E| = 4 → 5 wall-clock scale factor is ~700x, which projects
// ARMv8 |E| = 5 to half a day and the |E| = 6 bounds to weeks. There
// is no literal to pin,
// so the harnesses stay behind the existing slow-bench flag: a
// `PRUNE_BENCH_FULL=1` run prints the count, and the first completed
// run promotes it into the `Option` constants below, after which the
// test asserts it like every other golden.

/// Pinned heavyweight consistent-class counts; `None` until a full
/// run has completed (see ROADMAP "Push the pruned frontier").
const FIVE_EVENT_ARMV8: Option<usize> = None;
const SIX_EVENT_POWER: Option<usize> = None;
const SIX_EVENT_ARMV8: Option<usize> = None;

fn golden_consistent_full(arch: Arch, model: &dyn Model, events: usize, pinned: Option<usize>) {
    if std::env::var_os("PRUNE_BENCH_FULL").is_none() {
        eprintln!("{arch:?} |E|={events}: skipped (set PRUNE_BENCH_FULL=1 to run)");
        return;
    }
    let (got, _) =
        count_consistent_par_progress(&EnumConfig::hw(arch, events), model, worker_count(), None);
    match pinned {
        Some(expect) => assert_eq!(
            got, expect,
            "{arch:?} |E|={events}: consistent class count drifted"
        ),
        None => println!("{arch:?} |E|={events}: {got} consistent classes — pin this value"),
    }
}

#[test]
#[ignore = "hours single-core; runs only under PRUNE_BENCH_FULL=1"]
fn five_event_consistent_count_armv8() {
    golden_consistent_full(Arch::Armv8, &Armv8::tm(), 5, FIVE_EVENT_ARMV8);
}

#[test]
#[ignore = "most of a day single-core; runs only under PRUNE_BENCH_FULL=1"]
fn six_event_consistent_count_power() {
    golden_consistent_full(Arch::Power, &Power::tm(), 6, SIX_EVENT_POWER);
}

#[test]
#[ignore = "days single-core; runs only under PRUNE_BENCH_FULL=1"]
fn six_event_consistent_count_armv8() {
    golden_consistent_full(Arch::Armv8, &Armv8::tm(), 6, SIX_EVENT_ARMV8);
}
