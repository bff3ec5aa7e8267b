//! Request streams, generated from the seed before any timing starts:
//! the programs a workload sends and the order and kind of its requests.

use txmm::core::Execution;
use txmm::litmus::{litmus_from_execution, parse_litmus, render};
use txmm::models::{catalog, Arch};
use txmm::protocol::Request;
use txmm::synth::{enumerate, EnumConfig};

use crate::rng::Rng;

/// The spaces `serve-cold` samples its programs from.
pub const COLD_SPACES: [(Arch, usize); 3] = [(Arch::X86, 4), (Arch::Power, 3), (Arch::Armv8, 3)];

/// Share of requests, in percent, that are `outcomes` (the rest `check`).
pub const OUTCOMES_PERCENT: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Check,
    Outcomes,
}

/// Where a program's execution comes from, for the answer checks.
pub enum Source {
    /// Position `index` in the enumeration of `COLD_SPACES[space]`.
    Space { space: usize, index: u32 },
    /// `catalog::all()[i]`: checked against the paper's expectations too.
    Catalog(usize),
    /// The execution the program was rendered from, kept in memory.
    Exec(Box<Execution>),
    /// Only the text is known; the checks convert it back.
    Text,
}

pub struct Program {
    pub arch: Arch,
    pub source: Source,
    /// The rendered postcondition is empty: the known render/parse
    /// defect (`parse_litmus` rejects the empty `Test:` line).
    pub empty_test: bool,
    /// Encoded request lines (newline-terminated) by [`Kind`].
    pub check_line: Option<String>,
    pub outcomes_line: Option<String>,
}

impl Program {
    fn new(
        file: &str,
        src: &str,
        arch: Arch,
        source: Source,
        empty_test: bool,
        kinds: [bool; 2],
    ) -> Program {
        let line = |kind: Kind| {
            let req = match kind {
                Kind::Check => Request::Check {
                    file: file.to_string(),
                    src: src.to_string(),
                    models: None,
                    trace: None,
                },
                Kind::Outcomes => Request::Outcomes {
                    file: file.to_string(),
                    src: src.to_string(),
                    models: None,
                    max_candidates: None,
                    trace: None,
                },
            };
            format!("{}\n", req.to_line())
        };
        Program {
            arch,
            source,
            empty_test,
            check_line: kinds[0].then(|| line(Kind::Check)),
            outcomes_line: kinds[1].then(|| line(Kind::Outcomes)),
        }
    }

    pub fn line(&self, kind: Kind) -> &str {
        match kind {
            Kind::Check => self.check_line.as_deref(),
            Kind::Outcomes => self.outcomes_line.as_deref(),
        }
        .expect("request line encoded for this kind")
    }
}

#[derive(Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    pub program: u32,
}

pub struct Stream {
    pub programs: Vec<Program>,
    pub requests: Vec<Req>,
    /// Serve every program once (both kinds) before timing starts.
    pub prime: bool,
}

impl Stream {
    pub fn line(&self, r: Req) -> &str {
        self.programs[r.program as usize].line(r.kind)
    }
}

fn kind(rng: &mut Rng) -> Kind {
    if rng.percent(OUTCOMES_PERCENT) {
        Kind::Outcomes
    } else {
        Kind::Check
    }
}

/// `serve-cold`: up to `max` distinct canonical executions sampled
/// uniformly from the union of [`COLD_SPACES`], each rendered once and
/// sent once, in a seeded order.
pub fn cold(seed: u64, max: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let sizes: Vec<usize> = COLD_SPACES
        .iter()
        .map(|&(arch, events)| {
            let mut n = 0usize;
            enumerate(&EnumConfig::hw(arch, events), &mut |_| n += 1);
            n
        })
        .collect();
    let total: usize = sizes.iter().sum();
    let picks = rng.sample(total, max);
    let kinds: Vec<Kind> = picks.iter().map(|_| kind(&mut rng)).collect();
    // Global enumeration index → stream position.
    let mut position = vec![u32::MAX; total];
    for (pos, &g) in picks.iter().enumerate() {
        position[g as usize] = pos as u32;
    }
    let mut slots: Vec<Option<Program>> = (0..picks.len()).map(|_| None).collect();
    let mut base = 0usize;
    for (space, &(arch, events)) in COLD_SPACES.iter().enumerate() {
        let mut index = 0u32;
        enumerate(&EnumConfig::hw(arch, events), &mut |x| {
            let pos = position[base + index as usize];
            if pos != u32::MAX {
                let name = format!("{}-{events}-{index}", arch.name());
                let t = litmus_from_execution(&name, x, arch);
                let k = kinds[pos as usize];
                slots[pos as usize] = Some(Program::new(
                    &format!("{name}.litmus"),
                    &render::pseudocode(&t),
                    arch,
                    Source::Space { space, index },
                    t.post.is_empty(),
                    [k == Kind::Check, k == Kind::Outcomes],
                ));
            }
            index += 1;
        });
        base += sizes[space];
    }
    Stream {
        programs: slots
            .into_iter()
            .map(|p| p.expect("every pick rendered"))
            .collect(),
        requests: kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Req {
                kind,
                program: i as u32,
            })
            .collect(),
        prime: false,
    }
}

/// `serve-warm`: `len` requests drawn with repeats from the shipped
/// corpus `txmm::corpus::generate(4)`.
pub fn warm(seed: u64, len: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let entries = catalog::all();
    let programs: Vec<Program> = txmm::corpus::generate(4)
        .into_iter()
        .enumerate()
        .map(|(i, (name, src))| {
            let t = parse_litmus(&src).expect("corpus programs parse");
            let source = match entries.get(i) {
                Some(e) if txmm::corpus::sanitise(e.name) == name => Source::Catalog(i),
                _ => Source::Text,
            };
            Program::new(
                &format!("{name}.litmus"),
                &src,
                t.arch,
                source,
                t.post.is_empty(),
                [true, true],
            )
        })
        .collect();
    let requests = (0..len)
        .map(|_| Req {
            kind: kind(&mut rng),
            program: rng.below(programs.len()) as u32,
        })
        .collect();
    Stream {
        programs,
        requests,
        prime: true,
    }
}

/// `sweep`: every synthesised test once as `check`, then every test once
/// as `outcomes`, each half in a seeded order. Kept apart, a check never
/// queues behind an outcome table: with half the requests `outcomes`,
/// that queueing would put the check median on the edge of a slow mode.
pub fn suite(seed: u64, tests: Vec<(String, Execution)>) -> Stream {
    let mut rng = Rng::new(seed);
    let programs: Vec<Program> = tests
        .into_iter()
        .map(|(name, x)| {
            let t = litmus_from_execution(&name, &x, Arch::X86);
            Program::new(
                &format!("{name}.litmus"),
                &render::pseudocode(&t),
                Arch::X86,
                Source::Exec(Box::new(x)),
                t.post.is_empty(),
                [true, true],
            )
        })
        .collect();
    let n = programs.len();
    let requests = [Kind::Check, Kind::Outcomes]
        .into_iter()
        .flat_map(|kind| {
            rng.sample(n, n)
                .into_iter()
                .map(move |program| Req { kind, program })
        })
        .collect();
    Stream {
        programs,
        requests,
        prime: false,
    }
}

/// The request every set-up answers first: the paper's SB test.
pub fn probe_line() -> String {
    let t = litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86);
    format!(
        "{}\n",
        Request::Check {
            file: "sb.litmus".into(),
            src: render::pseudocode(&t),
            models: None,
            trace: None,
        }
        .to_line()
    )
}
