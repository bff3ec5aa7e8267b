//! The paper's batch jobs: the consistent-class walks (x86-tm and
//! Power-tm) and Table 1 synthesis with every synthesised test observed
//! on the simulated hardware. `sweep` runs them at the paper's sizes;
//! the serve workloads run them at the sizes their requests are drawn
//! from (see README.md).

use std::hint::black_box;
use std::time::Instant;

use txmm::core::incr::PruneStats;
use txmm::core::Execution;
use txmm::models::{Arch, Model};
use txmm::obs::WalkProgress;
use txmm::synth::{
    count_consistent_par_progress, oracle_for, synthesise_streamed, visit_pruned_par, EnumConfig,
    LeafChecker, SuiteResult,
};
use txmm::Session;

use crate::metrics::{median, ratio, Report};
use crate::trace::{Layer, Layers};

/// Worker threads for every parallel job (the benchmark's machine has
/// two cores; pinning the count keeps runs comparable across hosts).
pub const WORKERS: usize = 2;

/// Sizes and expected answers of one workload's batch jobs.
pub struct WalkSpec {
    pub x86_events: usize,
    pub power_events: usize,
    pub synth_events: usize,
    /// Consistent x86-tm classes at `x86_events`.
    pub x86_golden: usize,
    /// Consistent Power-tm classes at `power_events`.
    pub power_golden: usize,
    /// Forbid and Allow tests synthesised at `synth_events`.
    pub forbid_golden: usize,
    pub allow_golden: usize,
}

/// The Table 1 synthesis configuration (`txmm_bench::table1_config`).
pub fn synth_config(events: usize) -> EnumConfig {
    txmm_bench::table1_config(Arch::X86, events)
}

/// The untraced batch jobs: every repetition's times, and what the last
/// repetition produced.
#[derive(Default)]
pub struct Walked {
    /// Synthesised Forbid then Allow tests, for the sweep's request stream.
    pub suite: Vec<(String, Execution)>,
    /// Wall time and prune counters of the last x86 and Power walk.
    pub x86: (f64, PruneStats),
    pub power: (f64, PruneStats),
    pub observe_s: f64,
    times: [Vec<f64>; 3],
}

fn model<'s>(session: &'s Session, name: &str) -> &'s dyn Model {
    session.model(session.resolve(name).expect("registered model"))
}

/// Count one phase against its golden.
fn expect(report: &mut Report, what: &str, got: usize, want: usize) {
    report.attempted += 1;
    if got != want {
        eprintln!("perfbench: {what}: got {got}, expected {want}");
        report.failed += 1;
        report.unexpected += 1;
    }
}

impl Walked {
    /// Start with an untimed warm-up walk: the steal pool's first
    /// threads and allocations.
    pub fn new(session: &Session) -> Walked {
        let cfg = EnumConfig::hw(Arch::X86, 3);
        count_consistent_par_progress(&cfg, model(session, "x86-tm"), WORKERS, None);
        Walked::default()
    }

    /// One repetition of every job on [`WORKERS`] workers, timed, with
    /// every count checked. `x86_reps` runs of the x86 walk are spread
    /// around the others: it is the shortest job, so extra runs are cheap.
    pub fn rep(
        &mut self,
        session: &Session,
        spec: &WalkSpec,
        x86_reps: usize,
        report: &mut Report,
    ) {
        self.walk_x86(session, spec, report);
        let t = Instant::now();
        let (n, st) = count_consistent_par_progress(
            &EnumConfig::hw(Arch::Power, spec.power_events),
            model(session, "power-tm"),
            WORKERS,
            None,
        );
        self.power = (t.elapsed().as_secs_f64(), st);
        self.times[1].push(self.power.0);
        expect(report, "power-tm walk", n, spec.power_golden);
        if x86_reps > 2 {
            self.walk_x86(session, spec, report);
        }
        self.synthesise(session, spec, report);
        if x86_reps > 1 {
            self.walk_x86(session, spec, report);
        }
    }

    fn walk_x86(&mut self, session: &Session, spec: &WalkSpec, report: &mut Report) {
        let t = Instant::now();
        let (n, st) = count_consistent_par_progress(
            &EnumConfig::hw(Arch::X86, spec.x86_events),
            model(session, "x86-tm"),
            WORKERS,
            None,
        );
        self.x86 = (t.elapsed().as_secs_f64(), st);
        self.times[0].push(self.x86.0);
        expect(report, "x86-tm walk", n, spec.x86_golden);
    }

    fn synthesise(&mut self, session: &Session, spec: &WalkSpec, report: &mut Report) {
        let t = Instant::now();
        let suite = synthesise_streamed(
            &synth_config(spec.synth_events),
            model(session, "x86-tm"),
            model(session, "x86"),
            None,
            WORKERS,
        );
        let observed = Instant::now();
        let seen = observe(&suite);
        self.observe_s = observed.elapsed().as_secs_f64();
        self.times[2].push(t.elapsed().as_secs_f64());
        check_suite(report, &suite, seen, spec);
        self.suite = suite
            .forbid
            .into_iter()
            .enumerate()
            .map(|(i, f)| (format!("x86-forbid-{i}"), f.exec))
            .chain(
                suite
                    .allow
                    .into_iter()
                    .enumerate()
                    .map(|(i, a)| (format!("x86-allow-{i}"), a)),
            )
            .collect();
    }

    /// Record the `walk_*`/`synth_*` end-to-end metrics: the median over
    /// repetitions.
    pub fn report(&self, report: &mut Report) {
        report.set("walk_x86_s", median(&self.times[0]));
        report.set("walk_power_s", median(&self.times[1]));
        report.set("synth_x86_s", median(&self.times[2]));
    }
}

/// Observe every synthesised test on the x86 simulator through
/// `Session::observable` (Table 1's "Seen" column), on a fresh Session
/// so every pass starts with cold caches; returns how many Forbid tests
/// were seen.
fn observe(suite: &SuiteResult) -> usize {
    let mut s = Session::new();
    for a in &suite.allow {
        black_box(s.observable(a, Arch::X86));
    }
    suite
        .forbid
        .iter()
        .filter(|f| s.observable(&f.exec, Arch::X86) == Some(true))
        .count()
}

fn check_suite(report: &mut Report, suite: &SuiteResult, seen: usize, spec: &WalkSpec) {
    expect(
        report,
        "synthesised Forbid tests",
        suite.forbid.len(),
        spec.forbid_golden,
    );
    expect(
        report,
        "synthesised Allow tests",
        suite.allow.len(),
        spec.allow_golden,
    );
    expect(report, "Forbid tests seen on the simulator", seen, 0);
}

/// One consistent-class walk on a single worker, optionally timing
/// every leaf check: `(wall s, classes, leaf-check s, prune counters)`.
pub fn walk_single(
    cfg: &EnumConfig,
    model: &dyn Model,
    timed: bool,
) -> (f64, usize, f64, PruneStats) {
    let t = Instant::now();
    let (states, st, _) = visit_pruned_par(
        cfg,
        oracle_for(model, false),
        1,
        |_| (0usize, 0u64, LeafChecker::new(model)),
        |_, x, (n, leaf_ns, check)| {
            let ok = if timed {
                let t = Instant::now();
                let ok = check.consistent(x);
                *leaf_ns += t.elapsed().as_nanos() as u64;
                ok
            } else {
                check.consistent(x)
            };
            *n += usize::from(ok);
        },
    );
    let wall = t.elapsed().as_secs_f64();
    let n = states.iter().map(|s| s.0).sum();
    let leaf = states.iter().map(|s| s.1).sum::<u64>() as f64 / 1e9;
    (wall, n, leaf, st)
}

/// The traced half of the batch jobs: each job once more on one worker
/// with its layers timed. Adds the traced jobs' wall time to `total`;
/// returns `(traced s, untraced s)` of the x86 walk run both ways, for
/// the tracing overhead.
pub fn trace(
    session: &Session,
    spec: &WalkSpec,
    walked: &Walked,
    layers: &mut Layers,
    total: &mut f64,
    report: &mut Report,
) -> (f64, f64) {
    let mut traced = 0.0;
    let mut untraced = 0.0;
    let jobs = [
        (
            "x86",
            "x86-tm",
            EnumConfig::hw(Arch::X86, spec.x86_events),
            spec.x86_golden,
            walked.x86.0,
        ),
        (
            "power",
            "power-tm",
            EnumConfig::hw(Arch::Power, spec.power_events),
            spec.power_golden,
            walked.power.0,
        ),
    ];
    for (arch, name, cfg, golden, par_s) in jobs {
        let m = model(session, name);
        let (wall, n, leaf, st) = walk_single(&cfg, m, true);
        expect(report, "traced walk", n, golden);
        // The untimed twin of the x86 walk gives the walks' share of the
        // tracing overhead; the Power walk is too long to run twice.
        let plain = if arch == "x86" {
            let (plain, n, _, _) = walk_single(&cfg, m, false);
            expect(report, "single-worker walk", n, golden);
            untraced += plain;
            traced += wall;
            plain
        } else {
            wall
        };
        let oracle = st.oracle_micros as f64 / 1e6;
        let (oracle_layer, leaf_layer) = if arch == "x86" {
            (Layer::X86Oracle, Layer::X86Leaf)
        } else {
            (Layer::PowerOracle, Layer::PowerLeaf)
        };
        layers.add_secs(oracle_layer, oracle, 1);
        layers.add_secs(leaf_layer, leaf, 1);
        *total += wall;
        report.set(&format!("walk.{arch}.oracle_s"), oracle);
        report.set(&format!("walk.{arch}.leaf_s"), leaf);
        report.set(
            &format!("walk.{arch}.delta_answers"),
            st.delta_answers as f64,
        );
        report.set(&format!("walk.{arch}.fallbacks"), st.fallbacks as f64);
        report.set(
            &format!("walk.{arch}.delta_share"),
            ratio(
                st.delta_answers as f64,
                (st.delta_answers + st.fallbacks) as f64,
            ),
        );
        report.set(&format!("walk.{arch}.subtrees_cut"), st.subtrees_cut as f64);
        report.set(
            &format!("walk.{arch}.candidates_skipped"),
            st.candidates_skipped as f64,
        );
        report.set(
            &format!("walk.{arch}.par_efficiency"),
            ratio(plain, WORKERS as f64 * par_s),
        );
    }

    // Synthesis on one worker, then the Session observing every test.
    let cfg = synth_config(spec.synth_events);
    let t = Instant::now();
    let suite = synthesise_streamed(
        &cfg,
        model(session, "x86-tm"),
        model(session, "x86"),
        None,
        1,
    );
    let suite_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let seen = observe(&suite);
    let observe_s = t.elapsed().as_secs_f64();
    check_suite(report, &suite, seen, spec);
    layers.add_secs(Layer::Suite, suite_s, 1);
    layers.add_secs(Layer::SweepObserve, observe_s, 1);
    *total += suite_s + observe_s;
    report.set("synth.suite_s", suite_s);
    report.set("synth.forbid", suite.forbid.len() as f64);
    report.set("synth.allow", suite.allow.len() as f64);
    report.set("hwsim.sweep_observe_s", walked.observe_s);

    // The enumeration alone, over the same synthesis space.
    let t = Instant::now();
    black_box(txmm::synth::count_par(&cfg));
    report.set("synth.enumerate_s", t.elapsed().as_secs_f64());

    // Steal-pool lanes of one more x86 walk on WORKERS workers.
    let progress = WalkProgress::new();
    let cfg = EnumConfig::hw(Arch::X86, spec.x86_events);
    let (n, _) =
        count_consistent_par_progress(&cfg, model(session, "x86-tm"), WORKERS, Some(&progress));
    expect(report, "x86-tm walk with progress", n, spec.x86_golden);
    let lanes = progress.snapshot().workers;
    let busy: u64 = lanes.iter().map(|l| l.busy_micros).sum();
    let idle: u64 = lanes.iter().map(|l| l.idle_micros).sum();
    report.set(
        "steal.jobs",
        lanes.iter().map(|l| l.jobs).sum::<u64>() as f64,
    );
    report.set(
        "steal.steals",
        lanes.iter().map(|l| l.steals).sum::<u64>() as f64,
    );
    report.set("steal.busy_share", ratio(busy as f64, (busy + idle) as f64));
    (traced, untraced)
}
