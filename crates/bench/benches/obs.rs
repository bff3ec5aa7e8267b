//! Observability overhead: what the metrics registry and span plumbing
//! cost on the hot path.
//!
//! Before the criterion measurements, a headline comparison is printed
//! pinning the acceptance number: a warm in-process `check` pass with
//! the registry live must stay within 2% of the same pass timed around
//! the registry (the PR 7 baseline is the untraced warm pass — the
//! registry handles were free-standing atomics then, so the untraced
//! number IS the baseline shape; the traced pass shows the worst case
//! with a span timeline recorded per request).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use txmm::daemon::{PoolConfig, SessionPool};
use txmm::obs;
use txmm::serve::Kind;

fn corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

fn warm_pool(corpus: &[(String, String)]) -> SessionPool {
    let pool = SessionPool::new(&PoolConfig {
        shards: 2,
        ..PoolConfig::default()
    })
    .expect("pool builds");
    for (file, src) in corpus {
        pool.check(file, src, None);
    }
    pool
}

/// One warm pass; returns wall-clock time.
fn pass(pool: &SessionPool, corpus: &[(String, String)], traced: bool) -> Duration {
    let start = Instant::now();
    for (file, src) in corpus {
        if traced {
            let trace = obs::Trace::new("bench");
            let item = vec![(file.clone(), src.clone())];
            criterion::black_box(pool.serve(Kind::Check, item, None, None, Some(&trace)));
        } else {
            criterion::black_box(pool.check(file, src, None));
        }
    }
    start.elapsed()
}

fn headline(corpus: &[(String, String)]) {
    let pool = warm_pool(corpus);
    let reps = 20;
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    // Interleave so drift hits both variants equally.
    for _ in 0..reps {
        plain += pass(&pool, corpus, false);
        traced += pass(&pool, corpus, true);
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / (reps * corpus.len()) as f64;
    println!(
        "obs-overhead/headline: warm check {:.1} µs/req | traced {:.1} µs/req \
         ({:+.1}% for trace_id + span timeline; acceptance: registry \u{2264} 2% over PR 7 baseline)",
        per(plain),
        per(traced),
        (per(traced) / per(plain) - 1.0) * 100.0,
    );
}

fn bench_obs(c: &mut Criterion) {
    let corpus = corpus();
    headline(&corpus);

    // Registry primitives: the per-event costs every subsystem pays.
    let counter = obs::global().counter("bench_obs_counter_total", "bench counter");
    let histogram = obs::global().histogram("bench_obs_histogram_microseconds", "bench histogram");
    let mut g = c.benchmark_group("obs-primitives");
    g.bench_function("counter-inc", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram-record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            histogram.record(v >> 40);
        })
    });
    // Span guard with no trace installed: the untraced-request cost.
    g.bench_function("span-untraced", |b| {
        b.iter(|| obs::SpanGuard::enter("bench.span").finish())
    });
    // Span guard inside a live trace: the traced-request cost.
    g.bench_function("span-traced", |b| {
        let trace = obs::Trace::new("bench");
        b.iter(|| {
            obs::with_trace(Some(&trace), || {
                obs::SpanGuard::enter("bench.span").finish()
            })
        })
    });
    g.finish();

    // The warm check hot path, in-process (no socket noise), both
    // flavours — the numbers the headline summarises.
    let pool = warm_pool(&corpus);
    let mut g = c.benchmark_group("obs-warm-check");
    g.bench_function("untraced-pass", |b| b.iter(|| pass(&pool, &corpus, false)));
    g.bench_function("traced-pass", |b| b.iter(|| pass(&pool, &corpus, true)));
    g.finish();

    // Rendering: what a Prometheus scrape costs against the warmed-up
    // global registry.
    c.bench_function("obs/render-prom", |b| {
        b.iter(|| criterion::black_box(obs::global().render_prom()).len())
    });
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
