//! Enumeration-throughput benchmarks: the streaming, incrementally
//! canonicalised engine against the seed generate-then-dedup path, and
//! the work-stealing pool on the |E| = 4 space.
//!
//! The headline is the bound push: `x86-5-stream` enumerates the full
//! |E| = 5 x86 hardware space (6,094,392 canonical classes) in seconds
//! with bounded memory, where the seed path pays |threads|! full-
//! execution serialisations per candidate plus a canonical-key set the
//! size of the space per shape.
//!
//! `shape-imbalance` prints (once, untimed) how much of the |E| = 4
//! candidate space the single largest thread shape holds — the share
//! that bounds any static per-shape split, and the reason the
//! work-stealing pool splits *within* shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txmm_bench::table1_config;
use txmm_models::Arch;
use txmm_synth::enumerate::config_shapes;
use txmm_synth::{count, count_par, count_reference, enumerate_shape, stream_par, EnumConfig};

fn bench_streaming_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate");
    g.sample_size(10);
    for events in [3, 4] {
        let cfg = EnumConfig::hw(Arch::X86, events);
        g.bench_with_input(BenchmarkId::new("x86-stream", events), &cfg, |b, cfg| {
            b.iter(|| count(std::hint::black_box(cfg)))
        });
        g.bench_with_input(BenchmarkId::new("x86-reference", events), &cfg, |b, cfg| {
            b.iter(|| count_reference(std::hint::black_box(cfg)))
        });
    }
    let power = EnumConfig::hw(Arch::Power, 3);
    g.bench_with_input(BenchmarkId::new("power-stream", 3), &power, |b, cfg| {
        b.iter(|| count(std::hint::black_box(cfg)))
    });
    g.bench_with_input(BenchmarkId::new("power-reference", 3), &power, |b, cfg| {
        b.iter(|| count_reference(std::hint::black_box(cfg)))
    });
    g.finish();
}

fn bench_work_stealing(c: &mut Criterion) {
    // Untimed context: the largest shape's share of the space bounds any
    // static per-shape split's best case (its wall-clock can never drop
    // below the biggest shard), while the stealing pool splits that
    // shape into hundreds of subtree jobs.
    let cfg = table1_config(Arch::X86, 4);
    let per_shape: Vec<usize> = config_shapes(&cfg)
        .iter()
        .map(|shape| {
            let mut n = 0usize;
            enumerate_shape(&cfg, shape, &mut |_| n += 1);
            n
        })
        .collect();
    let total: usize = per_shape.iter().sum();
    let biggest = per_shape.iter().copied().max().unwrap_or(0);
    eprintln!(
        "shape-imbalance x86-4: {} shapes, biggest holds {}/{} candidates ({:.0}%) — \
         static-split speedup is capped at {:.2}x on any core count",
        per_shape.len(),
        biggest,
        total,
        100.0 * biggest as f64 / total.max(1) as f64,
        total as f64 / biggest.max(1) as f64,
    );

    let mut g = c.benchmark_group("split");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("x86-work-stealing", 4), &cfg, |b, cfg| {
        b.iter(|| count_par(std::hint::black_box(cfg)))
    });
    g.finish();
}

fn bench_five_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("bound-push");
    g.sample_size(10);
    // The |E| = 5 full x86 hardware space: streaming + work stealing
    // completes it in seconds with bounded memory (no candidate vector,
    // no dedup set). The seed path is not benchmarked here — it pays
    // minutes and a space-sized key set.
    let cfg = EnumConfig::hw(Arch::X86, 5);
    g.bench_with_input(BenchmarkId::new("x86-5-stream", 5), &cfg, |b, cfg| {
        b.iter(|| count_par(std::hint::black_box(cfg)))
    });
    g.finish();
}

fn bench_bounded_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream");
    g.sample_size(10);
    // Consuming through the bounded channel (the Session interning
    // path) versus raw counting: the price of streaming delivery.
    let cfg = EnumConfig::hw(Arch::X86, 3);
    g.bench_with_input(BenchmarkId::new("x86-channel", 3), &cfg, |b, cfg| {
        b.iter(|| stream_par(cfg.clone(), 256).count())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming_vs_reference,
    bench_work_stealing,
    bench_five_events,
    bench_bounded_stream
);
criterion_main!(benches);
