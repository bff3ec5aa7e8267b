//! Table 2 engine benchmarks: monotonicity, compilation and lock-elision
//! checking.

use criterion::{criterion_group, criterion_main, Criterion};
use txmm_models::{Arch, Power, X86};
use txmm_synth::{worker_count, EnumConfig};
use txmm_verify::{check_compilation, check_lock_elision, check_monotonicity, ElisionTarget};

fn cfg(arch: Arch, events: usize) -> EnumConfig {
    EnumConfig {
        arch,
        events,
        max_threads: 2,
        max_locs: 2,
        fences: true,
        deps: arch == Arch::Power,
        rmws: true,
        txns: true,
        attrs: false,
        atomic_txns: false,
    }
}

fn bench_metatheory(c: &mut Criterion) {
    let mut g = c.benchmark_group("metatheory");
    g.sample_size(10);
    g.bench_function("monotonicity-power-2", |b| {
        b.iter(|| {
            check_monotonicity(&cfg(Arch::Power, 2), &Power::tm(), None, worker_count())
                .counterexample
                .is_some()
        })
    });
    g.bench_function("monotonicity-x86-3", |b| {
        b.iter(|| {
            check_monotonicity(&cfg(Arch::X86, 3), &X86::tm(), None, worker_count())
                .counterexample
                .is_none()
        })
    });
    g.bench_function("compile-cpp-to-armv8-3", |b| {
        b.iter(|| {
            check_compilation(3, Arch::Armv8, None, worker_count())
                .counterexample
                .is_none()
        })
    });
    g.bench_function("elision-armv8", |b| {
        b.iter(|| {
            check_lock_elision(ElisionTarget::Armv8, None)
                .counterexample
                .is_some()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_metatheory);
criterion_main!(benches);
