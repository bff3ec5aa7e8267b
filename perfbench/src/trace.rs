//! The traced run's accounting. The request stream is replayed
//! in-process, request by request, through each layer's public function
//! in pipeline order, timing every call; the batch jobs add their own
//! layers (see `walks::trace`). Layer self times plus an explicit
//! remainder add up to the traced total.

use std::hint::black_box;
use std::time::Instant;

use txmm::core::{Execution, Rel};
use txmm::litmus::{execution_from_litmus, parse_litmus};
use txmm::protocol::Request;
use txmm::serve::{
    jsonl_line, outcomes_jsonl_line, Served, ServedOutcomes, StageMicros, TestFailure, TestReport,
};
use txmm::synth::canon_key;
use txmm::{ModelRef, Session};

use crate::metrics::{ratio, Report, MODELS};
use crate::stream::{Kind, Stream};

/// Timed layers. The 20 registered models (10 native, then their `.cat`
/// twins, in registry order) follow the fixed layers.
#[derive(Clone, Copy)]
pub enum Layer {
    Decode,
    Parse,
    Convert,
    Canon,
    Observe,
    Outcomes,
    Encode,
    X86Oracle,
    X86Leaf,
    PowerOracle,
    PowerLeaf,
    Suite,
    SweepObserve,
    Model(usize),
}

const FIXED: [&str; 13] = [
    "protocol.decode",
    "litmus.parse",
    "litmus.convert",
    "core.canon",
    "hwsim.observe",
    "outcomes.table",
    "protocol.encode",
    "walk.x86.oracle",
    "walk.x86.leaf",
    "walk.power.oracle",
    "walk.power.leaf",
    "synth.suite",
    "hwsim.sweep_observe",
];
const LAYERS: usize = FIXED.len() + 2 * MODELS.len();

impl Layer {
    fn index(self) -> usize {
        match self {
            Layer::Model(i) => FIXED.len() + i,
            Layer::Decode => 0,
            Layer::Parse => 1,
            Layer::Convert => 2,
            Layer::Canon => 3,
            Layer::Observe => 4,
            Layer::Outcomes => 5,
            Layer::Encode => 6,
            Layer::X86Oracle => 7,
            Layer::X86Leaf => 8,
            Layer::PowerOracle => 9,
            Layer::PowerLeaf => 10,
            Layer::Suite => 11,
            Layer::SweepObserve => 12,
        }
    }
}

fn layer_name(i: usize) -> String {
    match i.checked_sub(FIXED.len()) {
        None => FIXED[i].to_string(),
        Some(m) if m < MODELS.len() => format!("models.{}", MODELS[m]),
        Some(m) => format!("cat.{}", MODELS[m - MODELS.len()]),
    }
}

/// Self time and call count per layer.
pub struct Layers {
    nanos: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Layers {
    fn new() -> Layers {
        Layers {
            nanos: [0; LAYERS],
            calls: [0; LAYERS],
        }
    }

    pub fn add_secs(&mut self, layer: Layer, secs: f64, calls: u64) {
        self.nanos[layer.index()] += (secs * 1e9) as u64;
        self.calls[layer.index()] += calls;
    }

    /// Mean self time per call, in `unit` seconds (1e-6 for µs).
    pub fn mean(&self, layer: Layer, unit: f64) -> f64 {
        let i = layer.index();
        ratio(self.nanos[i] as f64 / 1e9 / unit, self.calls[i] as f64)
    }

    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }

    /// The breakdown as one JSON object: every layer's self time and
    /// calls, the remainder, and the total they add up to.
    pub fn breakdown(&self, total_s: f64) -> String {
        let layers = (0..LAYERS)
            .map(|i| {
                format!(
                    "\"{}\":{{\"self_s\":{},\"calls\":{}}}",
                    layer_name(i),
                    self.nanos[i] as f64 / 1e9,
                    self.calls[i]
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"total_s\":{total_s},\"remainder_s\":{},\"layers\":{{{layers}}}}}",
            total_s - self.total_secs()
        )
    }
}

/// Run `f`, adding its wall time to `layer` when `layers` is present.
fn timed<T>(layers: &mut Option<&mut Layers>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match layers {
        Some(l) => {
            let t = Instant::now();
            let out = f();
            l.nanos[layer.index()] += t.elapsed().as_nanos() as u64;
            l.calls[layer.index()] += 1;
            out
        }
        None => f(),
    }
}

/// Outcome-table sizes seen during a replay.
#[derive(Default)]
pub struct Tables {
    pub requests: u64,
    pub candidates: u64,
    pub classes: u64,
}

/// Converted executions a traced replay keeps for the `core` kernels.
const SAMPLES: usize = 2_000;

/// An in-process replay of the request stream on a Session like a
/// daemon shard's. Untimed until [`Replay::trace`] turns timing on.
pub struct Replay {
    session: Session,
    refs: Vec<ModelRef>,
    layers: Option<Layers>,
    pub tables: Tables,
    pub samples: Vec<Execution>,
}

impl Replay {
    /// A replay in the state the daemon's shards were in when the
    /// window opened: the set-up probe answered, and on `serve-warm`
    /// every program served once per kind.
    pub fn primed(stream: &Stream, probe: &str) -> Replay {
        let session = Session::with_shipped_cat();
        let refs = MODELS
            .iter()
            .map(|n| n.to_string())
            .chain(MODELS.iter().map(|n| format!("{n}.cat")))
            .map(|n| session.resolve(&n).expect("registered model"))
            .collect();
        let mut r = Replay {
            session,
            refs,
            layers: None,
            tables: Tables::default(),
            samples: Vec::new(),
        };
        r.run(std::iter::once(probe));
        if stream.prime {
            r.run(
                stream
                    .programs
                    .iter()
                    .flat_map(|p| [p.line(Kind::Check), p.line(Kind::Outcomes)]),
            );
        }
        r
    }

    /// Time every call from now on, and keep sample executions.
    pub fn trace(&mut self) {
        self.layers = Some(Layers::new());
    }

    pub fn layers(&self) -> &Layers {
        self.layers.as_ref().expect("a traced replay")
    }

    pub fn into_layers(self) -> Layers {
        self.layers.expect("a traced replay")
    }

    /// Replay `lines` in order: `Request::parse`, `parse_litmus`,
    /// `execution_from_litmus`, `canon_key`, every model's `check`,
    /// `Session::observable` (a check) or `Session::outcomes` (an
    /// outcomes request), and `jsonl_line`/`outcomes_jsonl_line`.
    /// Returns the wall time in seconds.
    pub fn run<'a>(&mut self, lines: impl Iterator<Item = &'a str>) -> f64 {
        let Replay {
            session,
            refs,
            layers,
            tables,
            samples,
        } = self;
        let l = &mut layers.as_mut();
        let keep = if l.is_some() { SAMPLES } else { 0 };
        let start = Instant::now();
        for line in lines {
            let req = timed(l, Layer::Decode, || Request::parse(line.trim_end()))
                .expect("benchmark request lines parse");
            let (file, src, is_check) = match req {
                Request::Check { file, src, .. } => (file, src, true),
                Request::Outcomes { file, src, .. } => (file, src, false),
                _ => unreachable!("streams hold only check and outcomes requests"),
            };
            let encode_failure = |l: &mut Option<&mut Layers>, file: String, error: String| {
                let failure = TestFailure { file, error };
                black_box(timed(l, Layer::Encode, || {
                    if is_check {
                        jsonl_line(&Served::Failure(failure))
                    } else {
                        outcomes_jsonl_line(&ServedOutcomes::Failure(failure))
                    }
                }));
            };
            let t = match timed(l, Layer::Parse, || parse_litmus(&src)) {
                Ok(t) => t,
                Err(e) => {
                    encode_failure(l, file, e.to_string());
                    continue;
                }
            };
            if !is_check {
                match timed(l, Layer::Outcomes, || session.outcomes(&file, &t, None)) {
                    Ok(r) => {
                        tables.requests += 1;
                        tables.candidates += r.candidates as u64;
                        tables.classes += r.classes as u64;
                        let served = ServedOutcomes::Report(r);
                        black_box(timed(l, Layer::Encode, || outcomes_jsonl_line(&served)));
                    }
                    Err(e) => encode_failure(l, file, e),
                }
                continue;
            }
            let x = match timed(l, Layer::Convert, || execution_from_litmus(&t)) {
                Ok(x) => x,
                Err(e) => {
                    encode_failure(l, file, e.to_string());
                    continue;
                }
            };
            black_box(timed(l, Layer::Canon, || canon_key(&x)));
            let verdicts = refs
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let model = session.model(m);
                    let v = timed(l, Layer::Model(i), || model.check(&x));
                    (model.name().to_string(), v)
                })
                .collect();
            let observable = timed(l, Layer::Observe, || session.observable(&x, t.arch));
            let report = TestReport {
                file,
                name: t.name,
                arch: t.arch,
                events: x.len(),
                verdicts,
                observable,
                cached: false,
                stages: StageMicros::default(),
            };
            black_box(timed(l, Layer::Encode, || {
                jsonl_line(&Served::Report(report))
            }));
            if samples.len() < keep {
                samples.push(x);
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// Record the replay layers' per-call means.
pub fn report_layers(layers: &Layers, tables: &Tables, report: &mut Report) {
    let us = 1e-6;
    report.set("protocol.decode_us", layers.mean(Layer::Decode, us));
    report.set("protocol.encode_us", layers.mean(Layer::Encode, us));
    report.set("litmus.parse_us", layers.mean(Layer::Parse, us));
    report.set("litmus.convert_us", layers.mean(Layer::Convert, us));
    report.set("core.canon_us", layers.mean(Layer::Canon, us));
    report.set("hwsim.observe_us", layers.mean(Layer::Observe, us));
    report.set("outcomes.table_ms", layers.mean(Layer::Outcomes, 1e-3));
    let n = tables.requests as f64;
    report.set("outcomes.candidates", ratio(tables.candidates as f64, n));
    report.set("outcomes.classes", ratio(tables.classes as f64, n));
    for (i, name) in MODELS.iter().enumerate() {
        report.set(
            &format!("models.{name}.check_us"),
            layers.mean(Layer::Model(i), us),
        );
        report.set(
            &format!("cat.{name}.check_us"),
            layers.mean(Layer::Model(MODELS.len() + i), us),
        );
    }
}

/// Time `f` over `items` in whole passes until at least 50 ms have
/// gone by; returns nanoseconds per item.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut done = 0usize;
    while done == 0 || start.elapsed().as_secs_f64() < 0.05 {
        for it in items {
            f(it);
        }
        done += items.len();
    }
    start.elapsed().as_nanos() as f64 / done.max(1) as f64
}

/// `core` kernels on the workload's own executions: building an
/// analysis, and `plus`/`seq`/acyclicity on `po ∪ com`.
pub fn kernels(samples: &[Execution], report: &mut Report) {
    report.set(
        "core.analysis_us",
        per_item(samples, |x| {
            let a = x.analysis();
            black_box(a.com());
        }) / 1e3,
    );
    let rels: Vec<Rel> = samples
        .iter()
        .map(|x| {
            let a = x.analysis();
            a.po().union(a.com())
        })
        .collect();
    report.set(
        "core.rel.plus_ns",
        per_item(&rels, |r| {
            black_box(r.plus());
        }),
    );
    report.set(
        "core.rel.seq_ns",
        per_item(&rels, |r| {
            black_box(r.seq(r));
        }),
    );
    report.set(
        "core.rel.acyclic_ns",
        per_item(&rels, |r| {
            black_box(r.is_acyclic());
        }),
    );
}

/// The replay's request lines: the first `n` requests of the stream.
pub fn lines(stream: &Stream, n: usize) -> impl Iterator<Item = &str> {
    stream.requests.iter().take(n).map(|&r| stream.line(r))
}
