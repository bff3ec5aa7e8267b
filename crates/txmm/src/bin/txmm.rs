//! The `txmm` command-line front-end: batch litmus serving on top of a
//! long-lived [`Session`], one-shot or as a socket daemon over the
//! sharded Session pool.
//!
//! ```text
//! txmm models                        list every registered model
//! txmm gen <dir> [--events N]        write a litmus corpus (catalog +
//!                                    synthesised Forbid/Allow tests)
//! txmm serve <dir|file...> [opts]    answer verdicts + observability
//!                                    as JSONL, one line per test
//! txmm outcomes <dir|file...> [opts] enumerate every candidate
//!                                    execution per program and answer
//!                                    the per-model allowed final-state
//!                                    table as JSONL
//! txmm serve --listen <addr> [opts]  run the txmm-serverd daemon on a
//!                                    TCP (host:port) or unix:<path>
//!                                    socket; --shards N sets the pool,
//!                                    --max-conns N caps concurrent
//!                                    connections (busy error past it)
//! txmm check <file...> [opts]        alias for serve
//! txmm client <addr> <request>       talk to a running daemon:
//!                                    check <file> | batch <dir> |
//!                                    outcomes <file|dir> | reload |
//!                                    models | stats | metrics |
//!                                    shutdown
//!
//! serve/check options:
//!   --model NAME   restrict verdicts to NAME (repeatable)
//!   --cat FILE     register a user-supplied .cat model (repeatable)
//!   --with-cat     also register the shipped .cat twins (<name>.cat)
//!   --warm         serve the corpus twice and report cold-vs-warm
//!                  timing (the analysis-cache speedup) on stderr
//!   --prom         dump the process metrics registry as Prometheus
//!                  text exposition on stderr after the run
//!
//! outcomes options (also accepted by `client ... outcomes`):
//!   --max-candidates N  raise (or lower) the candidate-count refusal
//!                       threshold from its default of 65536
//!
//! telemetry options (gen and outcomes):
//!   --progress[=SECS]     emit one JSONL progress frame per interval
//!                         (default 1s) on stderr: fraction done,
//!                         candidates/sec, ETA, per-worker utilisation
//!   --progress-file FILE  write the frames to FILE instead of stderr
//!   --metrics-listen ADDR serve the live metrics registry on a TCP
//!                         socket speaking the daemon's metrics frame,
//!                         so `txmm client ADDR metrics` scrapes a
//!                         one-shot run mid-walk
//!
//! client options:
//!   --trace ID     (check/outcomes) ask the daemon to echo ID back
//!                  with a per-stage span timeline on the response
//!   --prom         (metrics) fetch Prometheus text exposition instead
//!                  of the one-line JSON dump
//!   --watch SECS   (metrics) re-poll on an interval, reconnecting each
//!                  round, until the target goes away
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::protocol::Request;
use txmm::serve::{collect_litmus_files, serve_file, Kind};
use txmm::session::{ModelRef, Session, SessionStats};

/// Print a usage message; usage errors exit with failure.
fn usage(text: &str) -> ExitCode {
    eprintln!("{text}");
    ExitCode::FAILURE
}

const USAGE: &str = "usage: txmm <command>\n\
     \n\
     commands:\n\
     \u{20} models                        list registered models\n\
     \u{20} gen <dir> [--events N]        generate a litmus corpus\n\
     \u{20} serve <dir|file...> [opts]    serve verdicts as JSONL\n\
     \u{20} serve --listen <addr> [opts]  run the socket daemon\n\
     \u{20} outcomes <dir|file...> [opts] serve allowed-outcome tables\n\
     \u{20} check <file...> [opts]        alias for serve\n\
     \u{20} client <addr> <request>       query a running daemon\n\
     \n\
     serve options: --model NAME, --cat FILE, --with-cat, --warm, --prom,\n\
     \u{20}               --listen ADDR, --shards N, --max-conns N\n\
     outcomes options: serve options plus --workers N, --max-candidates N\n\
     \u{20} --workers N spreads each model's abort-split walk over N\n\
     \u{20} work-stealing threads (1 = fully sequential)\n\
     telemetry (gen/outcomes): --progress[=SECS] heartbeat JSONL frames on\n\
     \u{20} stderr, --progress-file FILE to redirect them, --metrics-listen\n\
     \u{20} ADDR to scrape live metrics from the one-shot process\n\
     client requests: check <file>, batch <dir>, outcomes <file|dir>,\n\
     \u{20}                reload, models, stats, metrics [--prom], shutdown\n\
     client options: --trace ID (check/outcomes span timeline),\n\
     \u{20}               --watch SECS (re-poll metrics on an interval)";

/// Every command reports a failure by returning its message; `main`
/// prints it once, as `error: <message>`, and exits with failure.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("models") => cmd_models(rest),
        Some("gen") => cmd_gen(rest),
        Some("serve") | Some("check") => cmd_serve(rest, Kind::Check),
        Some("outcomes") => cmd_serve(rest, Kind::Outcomes),
        Some("client") => cmd_client(rest),
        _ => Ok(usage(USAGE)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_models(args: &[String]) -> Result<ExitCode, String> {
    let mut session = Session::with_shipped_cat();
    for path in flag_values(args, "--cat") {
        session.register_cat_file(&PathBuf::from(path))?;
    }
    for m in session.models().collect::<Vec<_>>() {
        let model = session.model(m);
        println!(
            "{:<14} arch={:<6} tm={}",
            model.name(),
            model.arch().name(),
            model.is_tm()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Positional (non-flag) arguments: skips `--flag value` pairs for the
/// value-taking flags and bare `--flags` entirely.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--model" | "--cat" | "--events" | "--listen" | "--shards" | "--max-conns"
            | "--workers" | "--max-candidates" | "--trace" | "--progress-file"
            | "--metrics-listen" | "--watch" => i += 2,
            a if a.starts_with("--") => i += 1,
            a => {
                out.push(a);
                i += 1;
            }
        }
    }
    out
}

fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    let Some(&dir) = positionals(args).first() else {
        return Ok(usage(
            "usage: txmm gen <dir> [--events N] [--progress[=SECS]] [--progress-file FILE] \
             [--metrics-listen ADDR]",
        ));
    };
    let events = number_flag(args, "--events", false)?.unwrap_or(3);
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let telemetry = parse_telemetry(args)?;
    let mut session = Session::new();
    if let Some(t) = &telemetry {
        session.set_walk_progress(Some(t.progress.clone()));
    }
    let corpus = txmm::corpus::generate_on(&session, events);
    if let Some(t) = telemetry {
        t.finish();
    }
    for (i, (name, text)) in corpus.iter().enumerate() {
        let path = dir.join(format!("{i:02}-{name}.litmus"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("wrote {} litmus files to {}", corpus.len(), dir.display());
    Ok(ExitCode::SUCCESS)
}

/// Walk telemetry requested on the command line: the shared progress
/// accumulator plus the optional heartbeat reporter and metrics
/// sidecar it feeds. `None` when no telemetry flag was given, so the
/// default paths carry zero overhead.
struct Telemetry {
    progress: std::sync::Arc<txmm::obs::WalkProgress>,
    reporter: Option<txmm::obs::Reporter>,
    sidecar: Option<txmm::obs::MetricsSidecar>,
}

impl Telemetry {
    /// Stop the heartbeat (emitting the final frame, totals now equal
    /// the walk's returned counts) and close the sidecar listener.
    fn finish(self) {
        if let Some(r) = self.reporter {
            r.finish();
        }
        drop(self.sidecar);
    }
}

/// Parse `--progress[=SECS]`, `--progress-file FILE` and
/// `--metrics-listen ADDR`. Progress frames and sidecar announcements
/// go to stderr (or the file), never stdout: JSONL output stays
/// byte-identical with telemetry on.
fn parse_telemetry(args: &[String]) -> Result<Option<Telemetry>, String> {
    let mut interval: Option<f64> = None;
    for a in args {
        if a == "--progress" {
            interval = Some(1.0);
        } else if let Some(v) = a.strip_prefix("--progress=") {
            match v.parse::<f64>() {
                Ok(secs) if secs > 0.0 => interval = Some(secs),
                _ => {
                    return Err(format!(
                        "--progress={v}: expected a positive number of seconds"
                    ))
                }
            }
        }
    }
    let file = flag_values(args, "--progress-file")
        .last()
        .map(PathBuf::from);
    let listen = flag_values(args, "--metrics-listen").last().copied();
    if interval.is_none() && file.is_none() && listen.is_none() {
        return Ok(None);
    }
    txmm::obs::publish_process_info();
    let progress = std::sync::Arc::new(txmm::obs::WalkProgress::new());
    let sidecar = match listen {
        Some(addr) => {
            let s = txmm::obs::serve_metrics(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!("metrics sidecar listening on {}", s.addr());
            Some(s)
        }
        None => None,
    };
    // A sidecar alone still wants the walk counters ticking, but only
    // an explicit --progress[-file] starts the heartbeat thread.
    let reporter = if interval.is_some() || file.is_some() {
        let sink = match file {
            Some(p) => txmm::obs::ProgressSink::File(p),
            None => txmm::obs::ProgressSink::Stderr,
        };
        let iv = std::time::Duration::from_secs_f64(interval.unwrap_or(1.0));
        Some(
            txmm::obs::Reporter::start(progress.clone(), iv, sink)
                .map_err(|e| format!("cannot start progress reporter: {e}"))?,
        )
    } else {
        None
    };
    Ok(Some(Telemetry {
        progress,
        reporter,
        sidecar,
    }))
}

fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            if let Some(v) = it.next() {
                out.push(v.as_str());
            }
        }
    }
    out
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The last value of a numeric flag; `None` when the flag is absent.
/// A value that does not parse (or is zero, when `positive`) is an
/// error rather than a silent fallback to the default.
fn number_flag<T: FromStr + Default + PartialEq>(
    args: &[String],
    flag: &str,
    positive: bool,
) -> Result<Option<T>, String> {
    let Some(v) = flag_values(args, flag).last().copied() else {
        return Ok(None);
    };
    match v.parse::<T>() {
        Ok(n) if !(positive && n == T::default()) => Ok(Some(n)),
        _ => Err(format!(
            "{flag} must be a {} integer, got {v:?}",
            if positive { "positive" } else { "non-negative" }
        )),
    }
}

/// Daemon mode: `txmm serve --listen <addr>`.
fn cmd_serve_daemon(args: &[String], listen: &str) -> Result<ExitCode, String> {
    let cfg = PoolConfig {
        shards: number_flag(args, "--shards", false)?.unwrap_or(0),
        with_cat: has_flag(args, "--with-cat"),
        cat_files: flag_values(args, "--cat")
            .iter()
            .map(PathBuf::from)
            .collect(),
    };
    let max_conns = number_flag(args, "--max-conns", false)?.unwrap_or(0);
    let pool = SessionPool::new(&cfg)?;
    let shards = pool.shard_count();
    let daemon = Daemon::bind(&ListenAddr::parse(listen), pool)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?
        .with_max_conns(max_conns);
    eprintln!(
        "txmm-serverd listening on {} ({} shards)",
        daemon.local_addr(),
        shards
    );
    daemon.run().map_err(|e| e.to_string())?;
    eprintln!("txmm-serverd: clean shutdown");
    Ok(ExitCode::SUCCESS)
}

/// Connect to a daemon at `addr` (`host:port` or `unix:<path>`).
fn connect(addr: &str) -> std::io::Result<Box<dyn ReadWrite>> {
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        return Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?));
    }
    Ok(Box::new(std::net::TcpStream::connect(addr)?))
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let pos = positionals(args);
    let (addr, what, arg) = match pos.as_slice() {
        [addr, what] => (*addr, *what, None),
        [addr, what, arg] => (*addr, *what, Some(*arg)),
        _ => {
            return Ok(usage(
                "usage: txmm client <addr> check <file> | batch <dir> | models | stats | \
                 metrics [--prom] | shutdown [--model NAME] [--trace ID]",
            ))
        }
    };
    let trace = flag_values(args, "--trace").last().map(|s| s.to_string());
    let model_names = flag_values(args, "--model");
    let models = if model_names.is_empty() {
        None
    } else {
        Some(model_names.iter().map(|s| s.to_string()).collect())
    };
    let max_candidates = number_flag(args, "--max-candidates", true)?;
    let read =
        |file: &str| std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"));
    let request = match (what, arg) {
        ("check", Some(file)) => Request::Check {
            file: file.to_string(),
            src: read(file)?,
            models,
            trace,
        },
        ("batch", Some(dir)) => Request::Batch {
            dir: dir.to_string(),
            models,
        },
        // A directory asks the server to batch over it; a file ships
        // its source inline.
        ("outcomes", Some(path)) if std::path::Path::new(path).is_dir() => Request::OutcomesBatch {
            dir: path.to_string(),
            models,
            max_candidates,
        },
        ("outcomes", Some(file)) => Request::Outcomes {
            file: file.to_string(),
            src: read(file)?,
            models,
            max_candidates,
            trace,
        },
        ("reload", None) => Request::Reload,
        ("models", None) => Request::Models,
        ("stats", None) => Request::Stats,
        ("metrics", None) => Request::Metrics {
            prom: has_flag(args, "--prom"),
        },
        ("shutdown", None) => Request::Shutdown,
        _ => return Err(format!("unknown client request {what} {arg:?}")),
    };
    // `metrics --watch SECS` polls on an interval, reconnecting each
    // round (one-shot sidecars and daemons alike serve one frame per
    // connection), until the target goes away or the user interrupts.
    let watch = match flag_values(args, "--watch")
        .last()
        .map(|s| s.parse::<f64>())
    {
        None => None,
        Some(Ok(secs)) if secs > 0.0 => Some(secs),
        Some(_) => return Err("--watch expects a positive number of seconds".into()),
    };
    if let Some(secs) = watch {
        if !matches!(request, Request::Metrics { .. }) {
            return Err("--watch only applies to the metrics request".into());
        }
        use std::io::IsTerminal;
        let clear = std::io::stdout().is_terminal();
        loop {
            if clear {
                // Clear between frames, watch(1)-style, when
                // interactive; piped output stays plain JSONL.
                print!("\x1b[2J\x1b[H");
            }
            client_round_trip(addr, &request)?;
            let _ = std::io::Write::flush(&mut std::io::stdout());
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        }
    }
    match client_round_trip(addr, &request)? {
        0 => Ok(ExitCode::SUCCESS),
        failures => {
            eprintln!("{failures} error responses");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// One request/response frame against a daemon or metrics sidecar:
/// connect, send, print response lines up to the blank terminator.
/// Returns how many of them were error responses.
fn client_round_trip(addr: &str, request: &Request) -> Result<usize, String> {
    let stream = connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut stream = BufReader::new(stream);
    stream
        .get_mut()
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .map_err(|_| format!("cannot send request to {addr}"))?;
    let mut failures = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match stream.read_line(&mut line) {
            Ok(0) => break, // server closed
            Ok(_) => {
                let l = line.trim_end_matches('\n');
                if l.is_empty() {
                    break; // frame terminator
                }
                if l.starts_with("{\"error\"") || l.contains("\"error\":") {
                    failures += 1;
                }
                println!("{l}");
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(failures)
}

/// The inputs `txmm serve` and `txmm outcomes` share: register every
/// `--cat` file on `session`, resolve the `--model` filter (`None` =
/// every model), and expand directories in `paths` into their
/// `.litmus` files.
fn load_inputs(
    session: &mut Session,
    args: &[String],
    paths: Vec<PathBuf>,
) -> Result<(Option<Vec<ModelRef>>, Vec<PathBuf>), String> {
    for path in flag_values(args, "--cat") {
        session.register_cat_file(&PathBuf::from(path))?;
    }
    let model_names = flag_values(args, "--model");
    let filter = if model_names.is_empty() {
        None
    } else {
        let mut ms = Vec::new();
        for name in model_names {
            let m = session.resolve(name);
            ms.push(m.ok_or_else(|| format!("unknown model {name} (try `txmm models`)"))?);
        }
        Some(ms)
    };
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            let fs = collect_litmus_files(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            files.extend(fs);
        } else {
            files.push(p);
        }
    }
    if files.is_empty() {
        return Err("no .litmus files found".into());
    }
    Ok((filter, files))
}

/// One-shot serving of either kind: `txmm serve <dir|file...>` (the
/// per-model verdicts) or `txmm outcomes <dir|file...>` (every candidate
/// execution per program and the per-model allowed-outcome table), one
/// JSONL line per test on stdout, byte-identical to the daemon's answers
/// over the same tests.
fn cmd_serve(args: &[String], kind: Kind) -> Result<ExitCode, String> {
    if kind == Kind::Check {
        if let Some(listen) = flag_values(args, "--listen").first() {
            return cmd_serve_daemon(args, listen);
        }
    }
    // Positional arguments are directories or litmus files.
    let paths: Vec<PathBuf> = positionals(args).into_iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Ok(usage(match kind {
            Kind::Check => {
                "usage: txmm serve <dir|file...> [--model NAME] [--cat FILE] [--with-cat] [--warm]\n\
                 \u{20}      txmm serve --listen <addr> [--shards N] [--max-conns N] [--cat FILE] [--with-cat]"
            }
            Kind::Outcomes => {
                "usage: txmm outcomes <dir|file...> [--model NAME] [--cat FILE] [--with-cat] \
                 [--warm] [--workers N] [--max-candidates N]"
            }
        }));
    }

    let mut session = if has_flag(args, "--with-cat") {
        Session::with_shipped_cat()
    } else {
        Session::new()
    };
    if kind == Kind::Outcomes {
        let workers = number_flag(args, "--workers", false)?.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        });
        session.set_outcome_workers(workers);
        if let Some(cap) = number_flag(args, "--max-candidates", true)? {
            session.set_max_candidates(cap);
        }
    }
    let (filter, files) = load_inputs(&mut session, args, paths)?;
    let telemetry = match kind {
        Kind::Check => None,
        Kind::Outcomes => parse_telemetry(args)?,
    };
    if let Some(t) = &telemetry {
        session.set_walk_progress(Some(t.progress.clone()));
    }

    let mut failures = 0usize;
    // Each pass sums the serving stages alone, not JSONL rendering or
    // stdout throughput, so the cold/warm comparison measures the
    // caches; a --warm rerun serves the same files, so failures are
    // counted in the first pass only.
    let mut pass = |session: &mut Session, print: bool| -> u64 {
        let mut serving = 0;
        for f in &files {
            let reply = serve_file(session, kind, f, filter.as_deref());
            serving += reply.stages.total();
            if print {
                failures += usize::from(!reply.ok);
                println!("{}", reply.line);
            }
        }
        serving
    };

    let cold = pass(&mut session, true);
    if let Some(t) = telemetry {
        t.finish();
    }
    let warm = has_flag(args, "--warm").then(|| pass(&mut session, false));
    eprintln!(
        "{}",
        summary(kind, files.len(), cold, warm, &session.stats())
    );
    if has_flag(args, "--prom") {
        eprint!("{}", txmm::obs::global().render_prom());
    }
    if failures > 0 {
        eprintln!("{failures} tests failed to serve");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The stderr summary of a one-shot run: serving time per pass (with
/// the cold/warm speedup under `--warm`) and the cache counters of the
/// kind served.
fn summary(kind: Kind, n: usize, cold: u64, warm: Option<u64>, s: &SessionStats) -> String {
    let (what, counters) = match (kind, warm) {
        (Kind::Check, _) => (
            "tests",
            format!(
                "{} interned, {} verdict hits / {} misses",
                s.interned, s.verdict_hits, s.verdict_misses
            ),
        ),
        (Kind::Outcomes, Some(_)) => (
            "outcome tables",
            format!(
                "{} candidates in {} classes, {} outcome entries, \
                 {} outcome hits / {} misses",
                s.outcome_candidates,
                s.outcome_classes,
                s.outcome_entries,
                s.outcome_hits,
                s.outcome_misses
            ),
        ),
        (Kind::Outcomes, None) => (
            "outcome tables",
            format!(
                "{} candidates in {} classes ({} outcome entries)",
                s.outcome_candidates, s.outcome_classes, s.outcome_entries
            ),
        ),
    };
    match warm {
        Some(warm) => format!(
            "served {n} {what}: cold {cold}us, warm {warm}us ({:.1}x speedup); {counters}",
            cold as f64 / warm.max(1) as f64
        ),
        None => format!("served {n} {what} in {cold}us; {counters}"),
    }
}
