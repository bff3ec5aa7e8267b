//! Measurement driver for the pruned-enumeration numbers cited in the
//! README and pinned in `tests/enumeration_golden.rs`.
//!
//! Subcommands: `quick` (the |E| ≤ 4 spaces plus x86 |E| = 5),
//! `x866`/`power5`/`power6`/`armv85`/`armv86` (one heavyweight bound
//! each, hours+ for the latter three on one core), `profile` (walk
//! vs walk+check phase split) and `micro` (per-operation costs of the
//! shared-slot leaf-check path).
//!
//! Every subcommand also takes `--progress[=SECS]` (heartbeat JSONL
//! frames on stderr) and `--metrics-listen ADDR` (scrapeable live
//! metrics) so the hours-long bounds can be watched; see
//! "Watching long runs" in the README.
use std::sync::Arc;
use std::time::{Duration, Instant};
use txmm::models::{Arch, Armv8, Model, Power, X86};
use txmm::obs::{serve_metrics, ProgressSink, Reporter, WalkProgress};
use txmm::synth::{count_consistent_par_progress, visit_pruned_par, worker_count, EnumConfig};

/// Telemetry requested on the command line: progress accumulator plus
/// the heartbeat/sidecar it feeds (`None` fields when not asked for).
struct Telemetry {
    progress: Arc<WalkProgress>,
    reporter: Option<Reporter>,
    _sidecar: Option<txmm::obs::MetricsSidecar>,
}

fn telemetry() -> Option<Telemetry> {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut interval: Option<f64> = None;
    let mut listen: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--progress" {
            interval = Some(1.0);
        } else if let Some(v) = a.strip_prefix("--progress=") {
            interval = v.parse().ok().filter(|s| *s > 0.0).or(Some(1.0));
        } else if a == "--metrics-listen" {
            listen = it.next().cloned();
        }
    }
    if interval.is_none() && listen.is_none() {
        return None;
    }
    txmm::obs::publish_process_info();
    let progress = Arc::new(WalkProgress::new());
    let sidecar = listen.map(|addr| {
        let s = serve_metrics(&addr).expect("metrics sidecar");
        eprintln!("metrics sidecar listening on {}", s.addr());
        s
    });
    let reporter = interval.map(|secs| {
        Reporter::start(
            progress.clone(),
            Duration::from_secs_f64(secs),
            ProgressSink::Stderr,
        )
        .expect("progress reporter")
    });
    Some(Telemetry {
        progress,
        reporter,
        _sidecar: sidecar,
    })
}

fn run(tele: Option<&Telemetry>, name: &str, arch: Arch, model: &dyn Model, events: usize) {
    let t0 = Instant::now();
    let (n, st) = count_consistent_par_progress(
        &EnumConfig::hw(arch, events),
        model,
        worker_count(),
        tele.map(|t| t.progress.as_ref()),
    );
    println!(
        "{name} |E|={events}: {n} consistent in {:.2}s (cut={} skipped={} calls={} delta={} fallback={} batches={})",
        t0.elapsed().as_secs_f64(),
        st.subtrees_cut,
        st.candidates_skipped,
        st.oracle_calls,
        st.delta_answers,
        st.fallbacks,
        st.batches,
    );
}

/// Phase split of the single-threaded x86 |E| = 5 pruned walk.
fn profile_phases() {
    use txmm::synth::{oracle_for, LeafChecker};
    let cfg = EnumConfig::hw(Arch::X86, 5);
    let model = X86::tm();
    let oracle = oracle_for(&model, false);

    let t0 = Instant::now();
    let (visited, _, _) = visit_pruned_par(&cfg, oracle, 1, |_| 0usize, |_, _, n| *n += 1);
    println!(
        "walk+clone+canon: {} visited in {:.2}s",
        visited[0],
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let (n, _, _) = visit_pruned_par(
        &cfg,
        oracle,
        1,
        |_| 0usize,
        |_, x, n| {
            if model.consistent(x) {
                *n += 1;
            }
        },
    );
    println!(
        "walk+check: {} consistent in {:.2}s",
        n[0],
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let (n, _, _) = visit_pruned_par(
        &cfg,
        oracle,
        1,
        |_| (0usize, LeafChecker::new(&model)),
        |_, x, (n, check)| {
            if check.consistent(x) {
                *n += 1;
            }
        },
    );
    println!(
        "walk+shared-check: {} consistent in {:.2}s",
        n[0].0,
        t0.elapsed().as_secs_f64()
    );
}

fn microbench() {
    use txmm::core::TxnFreeBase;
    use txmm::synth::oracle_for;
    let cfg = EnumConfig::hw(Arch::X86, 5);
    let model = X86::tm();
    let oracle = oracle_for(&model, false);

    // Sample the survivor stream (every 60th, up to 30k candidates).
    let (mut states, _, _) = visit_pruned_par(
        &cfg,
        oracle,
        1,
        |_| (0usize, Vec::new()),
        |_, x, (seen, samples): &mut (usize, Vec<txmm::core::Execution>)| {
            if seen.is_multiple_of(60) && samples.len() < 30_000 {
                samples.push(x.clone());
            }
            *seen += 1;
        },
    );
    let (seen, samples) = states.pop().expect("one worker");
    println!("sampled {} of {seen}", samples.len());
    let reps = 5;

    let t0 = Instant::now();
    let mut n = 0usize;
    for _ in 0..reps {
        for x in &samples {
            if model.consistent(x) {
                n += 1;
            }
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("full consistent: {per}ns each (n={n})");

    let base = TxnFreeBase::capture(&{
        let a = samples[0].analysis();
        model.consistent_analysis(&a);
        a
    });
    let t0 = Instant::now();
    let mut m = 0usize;
    for _ in 0..reps {
        for x in &samples {
            if base.matches(x) {
                m += 1;
            }
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("matches: {per}ns each (hits={m})");

    // seed+check on self-matching bases: capture per sample, then time
    // seed + consistent_analysis (the LeafChecker hit path).
    let bases: Vec<TxnFreeBase> = samples
        .iter()
        .map(|x| {
            let a = x.analysis();
            model.consistent_analysis(&a);
            TxnFreeBase::capture(&a)
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        for (x, b) in samples.iter().zip(&bases) {
            let a = b.seed(x);
            std::hint::black_box(&a);
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("seed only: {per}ns each");

    let t0 = Instant::now();
    let mut n = 0usize;
    for _ in 0..reps {
        for (x, b) in samples.iter().zip(&bases) {
            if model.consistent_analysis(&b.seed(x)) {
                n += 1;
            }
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("seed+check: {per}ns each (n={n})");

    let t0 = Instant::now();
    for _ in 0..reps {
        for x in &samples {
            let b = TxnFreeBase::capture(&{
                let a = x.analysis();
                model.consistent_analysis(&a);
                a
            });
            std::hint::black_box(&b);
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("check+capture: {per}ns each");

    let t0 = Instant::now();
    for _ in 0..reps {
        for x in &samples {
            let y = x.with_txns(x.txns().to_vec());
            std::hint::black_box(&y);
        }
    }
    let per = t0.elapsed().as_nanos() / (reps * samples.len()) as u128;
    println!("with_txns clone: {per}ns each");
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    // One telemetry setup for the whole invocation: multi-bound
    // subcommands (`quick`) accumulate into the same progress stream
    // and keep one sidecar socket.
    let tele = telemetry();
    let t = tele.as_ref();
    match which.as_str() {
        "power5" => run(t, "power", Arch::Power, &Power::tm(), 5),
        "armv85" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 5),
        "x866" => run(t, "x86", Arch::X86, &X86::tm(), 6),
        "power6" => run(t, "power", Arch::Power, &Power::tm(), 6),
        "armv86" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 6),
        "profile" => profile_phases(),
        "micro" => microbench(),
        "quick" => {
            run(t, "x86", Arch::X86, &X86::tm(), 4);
            run(t, "x86", Arch::X86, &X86::tm(), 5);
            run(t, "power", Arch::Power, &Power::tm(), 4);
            run(t, "armv8", Arch::Armv8, &Armv8::tm(), 4);
        }
        other => eprintln!("unknown target {other:?}"),
    }
    if let Some(t) = tele {
        if let Some(r) = t.reporter {
            r.finish();
        }
    }
}
