//! The txmm benchmark: one process serving a 2-shard daemon to two
//! closed-loop clients, and running the paper's batch jobs, with every
//! answer checked. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <serve-cold|serve-warm|sweep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`). With `--trace 1` standard error
//! also carries a `perfbench-trace {...}` line with each layer's self
//! time, the remainder and the traced total they add up to.

pub mod metrics;
pub mod rng;
pub mod serve;
pub mod stream;
pub mod trace;
pub mod verify;
pub mod walks;

use std::process::ExitCode;
use std::time::Duration;

use txmm::daemon::SessionPool;
use txmm::protocol::{Json, Request};
use txmm::Session;

use metrics::{median, quantile, ratio, Report};
use serve::{num, Record, Slice};
use stream::{Kind, Stream};
use trace::Replay;
use walks::{WalkSpec, Walked};

const USAGE: &str =
    "usage: perfbench --workload <serve-cold|serve-warm|sweep> --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Serving windows per run; the serving metrics are medians over them.
/// On `sweep` each window serves the whole suite on a fresh daemon.
const SLICES: usize = 10;

/// `serve-cold` sends `--seconds` × this many distinct programs: about
/// `--seconds` of serving on the reference machine.
const COLD_RATE: usize = 3_000;

/// Requests per alternating chunk of the traced replay.
const REPLAY_CHUNK: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Name {
    ServeCold,
    ServeWarm,
    Sweep,
}

/// Workload names as `--workload` takes them.
pub const WORKLOADS: [(&str, Name); 3] = [
    ("serve-cold", Name::ServeCold),
    ("serve-warm", Name::ServeWarm),
    ("sweep", Name::Sweep),
];

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|(n, _)| *n == value);
                workload = Some(found.ok_or(format!("unknown workload {value:?}"))?.1)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The batch jobs each workload runs: the paper's sizes on `sweep`,
/// the sizes the serve workloads' requests come from otherwise.
pub fn walk_spec(w: Name) -> WalkSpec {
    match w {
        Name::Sweep => WalkSpec {
            x86_events: 5,
            power_events: 4,
            synth_events: 5,
            x86_golden: 1_715_002,
            power_golden: 3_441_758,
            forbid_golden: 36,
            allow_golden: 204,
        },
        Name::ServeCold | Name::ServeWarm => WalkSpec {
            x86_events: 4,
            power_events: 3,
            synth_events: 4,
            x86_golden: 60_352,
            power_golden: POWER_TM_3,
            forbid_golden: FORBID_4,
            allow_golden: ALLOW_4,
        },
    }
}

/// Consistent Power-tm classes at |E| = 3, and the x86 Table 1 suite
/// at |E| = 4. The crate's tests pin these against the unpruned
/// reference (`enumerate` + filter) and `synthesise_seq`.
pub const POWER_TM_3: usize = 17_725;
pub const FORBID_4: usize = 22;
pub const ALLOW_4: usize = 92;

/// Requests the traced run replays in-process.
fn replay_len(w: Name, stream: &Stream) -> usize {
    let n = match w {
        Name::ServeCold => 3_000,
        Name::ServeWarm => 20_000,
        Name::Sweep => usize::MAX,
    };
    n.min(stream.requests.len())
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latencies in ms of one request kind, ascending.
fn latencies(stream: &Stream, records: &[Record], kind: Kind) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter(|r| stream.requests[r.request].kind == kind)
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Parse the process arguments, run, and print the result line.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", report.line(args.trace));
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let spec = walk_spec(w);
    let mut report = Report::default();

    // Inputs first, untimed.
    let generated = match w {
        Name::ServeCold => Some(stream::cold(args.seed, args.seconds as usize * COLD_RATE)),
        Name::ServeWarm => Some(stream::warm(args.seed, args.seconds as usize * 60_000)),
        Name::Sweep => None,
    };

    // The batch jobs: once on `sweep`, before its suite is served; on
    // the serve workloads once before each serving window, so their
    // median samples the whole run rather than one stretch of it.
    let session = Session::new();
    let mut walked = Walked::new(&session);
    if w == Name::Sweep {
        walked.rep(&session, &spec, 3, &mut report);
    }
    let stream = generated.unwrap_or_else(|| stream::suite(args.seed, walked.suite.clone()));

    // Serving: set-up, priming, the timed windows. The serve workloads
    // split their stream over windows on one daemon, each window on new
    // connections; `sweep` serves its whole suite once per fresh daemon.
    // Each window is one slice: the serving metrics are medians over them.
    let probe = stream::probe_line();
    let (daemons, windows) = match w {
        Name::Sweep => (SLICES, 1),
        _ => (1, SLICES),
    };
    let mut setups = Vec::new();
    for _ in daemons..SETUPS {
        let (server, secs) = serve::setup(&probe);
        setups.push(secs);
        server.stop();
    }
    let n = stream.requests.len();
    let (deadline, share) = match w {
        // Fixed work: the whole suite, or the whole cold stream (so the
        // arena, and with it peak RSS, grows by the same programs in
        // every run). The deadline only guards against a wedged daemon.
        Name::Sweep => (Duration::from_secs(60), n),
        Name::ServeCold => (
            Duration::from_secs(3 * args.seconds) / SLICES as u32,
            n / SLICES,
        ),
        Name::ServeWarm => (
            Duration::from_secs(args.seconds) / SLICES as u32,
            n / SLICES,
        ),
    };
    let mut records = Vec::new();
    let mut slices = Vec::new();
    let mut elapsed = 0.0;
    let mut stats = Json::Null;
    for _ in 0..daemons {
        let (server, secs) = serve::setup(&probe);
        setups.push(secs);
        if stream.prime {
            serve::prime(&server.addr, &stream);
        }
        for k in 0..windows {
            let range = if w == Name::Sweep {
                0..n
            } else {
                walked.rep(&session, &spec, 1, &mut report);
                k * share..(k + 1) * share
            };
            let win = serve::window(&server.addr, &stream, range, deadline);
            slices.push(serve::slice(&stream, &win));
            records.extend(win.records);
            elapsed += win.elapsed.as_secs_f64();
        }
        stats = serve::stats(&server.addr);
        server.stop();
    }
    walked.report(&mut report);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss_mb());

    let over_slices = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    report.set("check_p50_ms", over_slices(&|s| quantile(&s.checks, 0.5)));
    report.set("check_p90_ms", over_slices(&|s| quantile(&s.checks, 0.9)));
    report.set(
        "outcomes_p50_ms",
        over_slices(&|s| quantile(&s.outcomes, 0.5)),
    );
    report.set(
        "outcomes_p90_ms",
        over_slices(&|s| quantile(&s.outcomes, 0.9)),
    );
    report.set("throughput_rps", over_slices(&|s| s.rate));
    let checks = latencies(&stream, &records, Kind::Check);
    let outcomes = latencies(&stream, &records, Kind::Outcomes);

    let defects = verify::check(&stream, &records, &mut report);
    eprintln!(
        "perfbench: {} requests in {elapsed:.2}s; empty-Test programs x86={} power={} armv8={}",
        records.len(),
        defects.x86,
        defects.power,
        defects.armv8
    );
    if !args.trace {
        return report;
    }

    // ---- The traced run's extras -------------------------------------
    report.set("serve.check_p99_ms", quantile(&checks, 0.99));
    report.set("serve.check_samples", checks.len() as f64);
    report.set("serve.outcomes_p99_ms", quantile(&outcomes, 0.99));
    report.set("serve.outcomes_samples", outcomes.len() as f64);
    report.set(
        "error_rate",
        ratio(report.failed as f64, report.attempted as f64),
    );
    report.set("litmus.empty_test.x86", defects.x86 as f64);
    report.set("litmus.empty_test.power", defects.power as f64);
    report.set("litmus.empty_test.armv8", defects.armv8 as f64);
    report_stats(&stats, &mut report);

    let n = replay_len(w, &stream);
    let pool_p50_us = pool_replay(&stream, &probe, n);
    report.set("daemon.pool_us", pool_p50_us);
    report.set(
        "daemon.transport_us",
        quantile(&checks, 0.5) * 1e3 - pool_p50_us,
    );

    // The same requests replayed untimed and timed on two Sessions in
    // the same state, chunk by chunk, alternating which goes first so
    // drift cancels out of the tracing overhead.
    let mut plain = Replay::primed(&stream, &probe);
    let mut timed = Replay::primed(&stream, &probe);
    timed.trace();
    let lines: Vec<&str> = trace::lines(&stream, n).collect();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (i, chunk) in lines.chunks(REPLAY_CHUNK).enumerate() {
        if i % 2 == 0 {
            traced_s += timed.run(chunk.iter().copied());
            plain_s += plain.run(chunk.iter().copied());
        } else {
            plain_s += plain.run(chunk.iter().copied());
            traced_s += timed.run(chunk.iter().copied());
        }
    }
    drop(plain);
    trace::report_layers(timed.layers(), &timed.tables, &mut report);
    trace::kernels(&timed.samples, &mut report);
    let mut layers = timed.into_layers();

    let mut total = traced_s;
    let (walk_traced, walk_plain) = walks::trace(
        &session,
        &spec,
        &walked,
        &mut layers,
        &mut total,
        &mut report,
    );
    report.set("trace.total_s", total);
    report.set("trace.remainder_s", total - layers.total_secs());
    report.set(
        "trace.overhead",
        (traced_s + walk_traced) / (plain_s + walk_plain) - 1.0,
    );
    report.set("trace.requests", n as f64);
    eprintln!("perfbench-trace {}", layers.breakdown(total));
    report
}
/// p50 in µs of the in-process `SessionPool::check` call over the first
/// `n` requests (outcomes requests go through `SessionPool::outcomes`
/// and are not in the p50), on a fresh pool primed like the daemon's.
fn pool_replay(stream: &Stream, probe: &str, n: usize) -> f64 {
    let pool = SessionPool::new(&serve::pool_config()).expect("the shipped models register");
    let call = |line: &str| -> (bool, f64) {
        let t = std::time::Instant::now();
        match Request::parse(line.trim_end()).expect("benchmark request lines parse") {
            Request::Check { file, src, .. } => {
                let t = std::time::Instant::now();
                std::hint::black_box(pool.check(&file, &src, None));
                (true, t.elapsed().as_secs_f64() * 1e6)
            }
            Request::Outcomes { file, src, .. } => {
                std::hint::black_box(pool.outcomes(&file, &src, None, None));
                (false, t.elapsed().as_secs_f64() * 1e6)
            }
            _ => unreachable!("streams hold only check and outcomes requests"),
        }
    };
    call(probe);
    if stream.prime {
        for p in &stream.programs {
            call(p.line(Kind::Check));
            call(p.line(Kind::Outcomes));
        }
    }
    let mut checks: Vec<f64> = trace::lines(stream, n)
        .map(call)
        .filter(|(is_check, _)| *is_check)
        .map(|(_, us)| us)
        .collect();
    pool.shutdown();
    checks.sort_by(f64::total_cmp);
    quantile(&checks, 0.5)
}

/// Session cache and shard counters from the daemon's `stats` answer.
fn report_stats(stats: &Json, report: &mut Report) {
    let hit = |h: &str, m: &str| ratio(num(stats, h), num(stats, h) + num(stats, m));
    report.set(
        "session.verdict_hit_ratio",
        hit("verdict_hits", "verdict_misses"),
    );
    report.set(
        "session.observe_hit_ratio",
        hit("observability_hits", "observability_misses"),
    );
    report.set(
        "session.outcome_hit_ratio",
        hit("outcome_hits", "outcome_misses"),
    );
    report.set("session.interned", num(stats, "interned"));
    report.set("cat.compile_misses", num(stats, "compile_misses"));
    report.set("cat.compile_ms", num(stats, "compile_micros") / 1e3);
    let served: Vec<f64> = stats
        .get("per_shard")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| num(s, "served"))
        .collect();
    let max = served.iter().copied().fold(0.0, f64::max);
    report.set("daemon.shard_max_share", ratio(max, served.iter().sum()));
}
