//! Answer checks for every served request, independent of the daemon
//! path: verdicts against `Model::check` on the execution the program was
//! rendered from, `.cat` twins against their native model, catalog
//! entries against the paper's expectations, and outcome tables against
//! the operational simulators (`unsound_sim_outcomes`).

use std::collections::HashMap;

use txmm::core::Execution;
use txmm::litmus::{execution_from_litmus, parse_litmus};
use txmm::models::{catalog, registry, Arch, Model};
use txmm::protocol::{parse_json, Json, Request};
use txmm::serve::{outcomes_jsonl_line, ServedOutcomes};
use txmm::synth::{enumerate, EnumConfig};
use txmm::{unsound_sim_outcomes, Session};

use crate::metrics::{Report, MODELS};
use crate::serve::Record;
use crate::stream::{Kind, Source, Stream, COLD_SPACES};

/// `(consistent, violated axioms)` per native model, in [`MODELS`] order.
type Expected = Vec<(bool, Vec<&'static str>)>;

fn expected(models: &[Box<dyn Model>], x: &Execution) -> Expected {
    models
        .iter()
        .map(|m| {
            let v = m.check(x);
            (v.is_consistent(), v.violations().to_vec())
        })
        .collect()
}

/// Per-architecture counts of the known render/parse defect.
#[derive(Default)]
pub struct Defects {
    pub x86: u64,
    pub power: u64,
    pub armv8: u64,
}

impl Defects {
    fn count(&mut self, arch: Arch) {
        match arch {
            Arch::X86 => self.x86 += 1,
            Arch::Power => self.power += 1,
            Arch::Armv8 => self.armv8 += 1,
            _ => {}
        }
    }
}

/// Check every record; failures and wrong answers land in `report`.
pub fn check(stream: &Stream, records: &[Record], report: &mut Report) -> Defects {
    let models: Vec<Box<dyn Model>> = MODELS
        .iter()
        .map(|n| registry::by_name(n).expect("registered native model"))
        .collect();
    let entries = catalog::all();

    // Expected verdicts per program with a successful check answer.
    let mut want: HashMap<u32, Expected> = HashMap::new();
    let mut by_space: Vec<HashMap<u32, u32>> = vec![HashMap::new(); COLD_SPACES.len()];
    for r in records {
        let req = stream.requests[r.request];
        if req.kind != Kind::Check || r.response.contains("\"error\":") {
            continue;
        }
        let p = &stream.programs[req.program as usize];
        match &p.source {
            Source::Space { space, index } => {
                by_space[*space].insert(*index, req.program);
            }
            Source::Catalog(i) => {
                want.insert(req.program, expected(&models, &entries[*i].exec));
            }
            Source::Exec(x) => {
                want.insert(req.program, expected(&models, x));
            }
            Source::Text => {
                let src = request_src(stream.line(req));
                let x = parse_litmus(&src)
                    .ok()
                    .and_then(|t| execution_from_litmus(&t).ok())
                    .expect("corpus program converts");
                want.insert(req.program, expected(&models, &x));
            }
        }
    }
    for (space, wanted) in by_space.iter().enumerate() {
        if wanted.is_empty() {
            continue;
        }
        let (arch, events) = COLD_SPACES[space];
        let mut index = 0u32;
        enumerate(&EnumConfig::hw(arch, events), &mut |x| {
            if let Some(&program) = wanted.get(&index) {
                want.insert(program, expected(&models, x));
            }
            index += 1;
        });
    }

    let mut defects = Defects::default();
    let mut outcome_answers: HashMap<u32, String> = HashMap::new();
    let mut session = Session::with_shipped_cat();
    for r in records {
        report.attempted += 1;
        let req = stream.requests[r.request];
        let p = &stream.programs[req.program as usize];
        let v = match parse_json(&r.response) {
            Ok(v) => v,
            Err(e) => {
                fail(report, &format!("unparsable response {e}: {}", r.response));
                continue;
            }
        };
        if let Some(err) = v.get("error").and_then(Json::as_str) {
            report.failed += 1;
            if p.empty_test && err.contains("bad check") {
                defects.count(p.arch);
            } else {
                report.unexpected += 1;
                eprintln!("perfbench: unexpected error: {}", r.response);
            }
            continue;
        }
        let problem = match req.kind {
            Kind::Check => check_verdicts(&v, &want[&req.program], &p.source, &entries),
            Kind::Outcomes => {
                // One recomputation per program; every answer must match it.
                let reference = outcome_answers
                    .entry(req.program)
                    .or_insert_with(|| outcome_reference(&mut session, stream.line(req)));
                if **reference != *r.response {
                    Some(format!(
                        "outcomes answer differs from a fresh Session: {reference}"
                    ))
                } else if reference.starts_with("unsound") {
                    Some(reference.clone())
                } else {
                    None
                }
            }
        };
        if let Some(problem) = problem {
            fail(report, &format!("{problem} (answer: {})", r.response));
        }
    }
    defects
}

fn fail(report: &mut Report, msg: &str) {
    report.failed += 1;
    report.unexpected += 1;
    eprintln!("perfbench: wrong answer: {msg}");
}

fn request_src(line: &str) -> String {
    match Request::parse(line.trim_end()).expect("benchmark request lines parse") {
        Request::Check { src, .. } | Request::Outcomes { src, .. } => src,
        _ => unreachable!("streams hold only check and outcomes requests"),
    }
}

/// Compare one `check` answer with the expected verdicts.
fn check_verdicts(
    v: &Json,
    want: &Expected,
    source: &Source,
    entries: &[catalog::CatalogEntry],
) -> Option<String> {
    let verdicts = v.get("verdicts")?;
    let got = |name: &str| -> Option<(bool, Vec<String>)> {
        let m = verdicts.get(name)?;
        let consistent = matches!(m.get("consistent"), Some(Json::Bool(true)));
        let violations = m
            .get("violations")?
            .as_arr()?
            .iter()
            .filter_map(|a| a.as_str().map(str::to_string))
            .collect();
        Some((consistent, violations))
    };
    for (name, (consistent, violations)) in MODELS.iter().zip(want) {
        let Some((c, vs)) = got(name) else {
            return Some(format!("no verdict for {name}"));
        };
        if c != *consistent || vs != *violations {
            return Some(format!(
                "{name}: Model::check says {consistent} {violations:?}"
            ));
        }
        match got(&format!("{name}.cat")) {
            Some((twin, _)) if twin == c => {}
            _ => return Some(format!("{name}.cat disagrees with {name}")),
        }
    }
    if let Source::Catalog(i) = source {
        for (name, expect) in &entries[*i].expect {
            let allowed = *expect == catalog::Expect::Consistent;
            if got(name).map(|(c, _)| c) != Some(allowed) {
                return Some(format!("{name}: the paper expects {expect:?}"));
            }
        }
    }
    None
}

/// The outcome answer a fresh Session gives, or `unsound …` when the
/// architecture's simulator observes a final state the transactional
/// model's allowed set lacks.
fn outcome_reference(session: &mut Session, line: &str) -> String {
    let Ok(Request::Outcomes { file, src, .. }) = Request::parse(line.trim_end()) else {
        unreachable!("an outcomes request line");
    };
    let t = parse_litmus(&src).expect("answered programs parse");
    let r = match session.outcomes(&file, &t, None) {
        Ok(r) => r,
        Err(e) => return format!("reference failed: {e}"),
    };
    let tm = match t.arch {
        Arch::X86 => "x86-tm",
        Arch::Power => "power-tm",
        Arch::Armv8 => "armv8-tm",
        _ => "",
    };
    if let Some(m) = r.per_model.iter().find(|m| m.model == tm) {
        if let Some(bad) = unsound_sim_outcomes(&t, &m.allowed) {
            if !bad.is_empty() {
                return format!("unsound: the {tm} simulator observes {bad:?}");
            }
        }
    }
    outcomes_jsonl_line(&ServedOutcomes::Report(r))
}
