//! Outcome-engine throughput: allowed-final-state tables over the
//! generated 50-test corpus, warm Session vs cold, plus the
//! candidate-space numbers (how many candidates the programs expand to
//! and how many canonical classes survive the symmetry pruning).
//!
//! The headline prints before the criterion measurements:
//!
//! ```text
//! outcomes/headline: corpus=50 candidates=1214 classes=1200 | cold
//! 2506 tables/s | warm 105042 tables/s (41.9x cold)
//! ```

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use txmm::serve::{serve, Kind};
use txmm::session::Session;

fn corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

/// Serve every corpus program's outcome table once, rendering the JSONL
/// line (the full serving path `txmm outcomes` takes).
fn pass(session: &mut Session, corpus: &[(String, String)]) -> usize {
    let mut bytes = 0usize;
    for (file, src) in corpus {
        bytes += serve(session, Kind::Outcomes, file, src, None).line.len();
    }
    bytes
}

fn headline(corpus: &[(String, String)]) {
    let mut cold_session = Session::new();
    let start = Instant::now();
    pass(&mut cold_session, corpus);
    let cold = start.elapsed();
    let stats = cold_session.stats();

    // Warm: same session, every table from the outcome-set cache.
    let reps = 5;
    let mut warm = Duration::ZERO;
    for _ in 0..reps {
        let start = Instant::now();
        pass(&mut cold_session, corpus);
        warm += start.elapsed();
    }
    let warm = warm / reps;

    let n = corpus.len() as f64;
    println!(
        "outcomes/headline: corpus={} candidates={} classes={} | \
         cold {:.0} tables/s | warm {:.0} tables/s ({:.1}x cold)",
        corpus.len(),
        stats.outcome_candidates,
        stats.outcome_classes,
        n / cold.as_secs_f64(),
        n / warm.as_secs_f64(),
        cold.as_secs_f64() / warm.as_secs_f64(),
    );
}

fn bench_outcomes(c: &mut Criterion) {
    let corpus = corpus();
    headline(&corpus);

    // Cold: a fresh Session per iteration — enumeration, canonical
    // interning and model checking all on the clock.
    c.bench_function("outcomes/cold-corpus", |b| {
        b.iter(|| {
            let mut s = Session::new();
            pass(&mut s, &corpus)
        })
    });

    // Warm: one long-lived Session, tables served from the per-program
    // outcome-set cache.
    let mut warm_session = Session::new();
    pass(&mut warm_session, &corpus);
    c.bench_function("outcomes/warm-corpus", |b| {
        b.iter(|| pass(&mut warm_session, &corpus))
    });
}

criterion_group!(benches, bench_outcomes);
criterion_main!(benches);
