//! Microbenchmarks of the machine substrate: collective cost evaluation,
//! event-level phase simulation, allocation-free routing, and the functional
//! interpreter's element throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use hpf_lang::{analyze, parse_program};
use hpf_machines::topology::HypercubeTopo;
use hpf_machines::Topology;
use ipsc_sim::network::{patterns, simulate_phase};
use machine::{ipsc860, CollectiveOp};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_machine(c: &mut Criterion) {
    let m = ipsc860(8);
    let mut g = c.benchmark_group("machine");

    g.bench_function("collective_model/reduce_p8", |b| {
        b.iter(|| m.collective_time(black_box(CollectiveOp::Reduce), 8, 4))
    });

    let cube = HypercubeTopo::fitting(8);
    let shift = patterns::shift(8, 1024);
    g.bench_function("des_phase/shift_p8_1k", |b| {
        b.iter(|| simulate_phase(&cube, &m.comm, 8, black_box(&shift)))
    });

    let reduce = patterns::reduce_stages(cube.cube.dim, 8, 4);
    g.bench_function("des_phase/reduce_p8_4b", |b| {
        b.iter(|| {
            reduce
                .iter()
                .map(|stage| simulate_phase(&cube, &m.comm, 8, black_box(stage)).duration)
                .sum::<f64>()
        })
    });

    g.bench_function("route_into/all_pairs_d5", |b| {
        let h = HypercubeTopo::fitting(32);
        let mut route = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for a in 0..h.nodes() {
                for b2 in 0..h.nodes() {
                    route.clear();
                    h.route_into(a, b2, &mut route);
                    total += route.len();
                }
            }
            total
        })
    });

    g.bench_function("calibration/fit_p8", |b| {
        b.iter(|| ipsc_sim::calibrate(black_box(8)))
    });
    g.finish();

    let mut g = c.benchmark_group("functional_interpreter");
    g.sample_size(10);
    let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 4096
REAL A(N), B(N), S
FORALL (I = 1:N) A(I) = I * 0.5
B = CSHIFT(A, 1)
FORALL (I = 1:N) A(I) = A(I) + B(I) * 2.0
S = SUM(A)
END
";
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    g.bench_function("eval_4096_elements", |b| {
        b.iter(|| hpf_eval::run(black_box(&a)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
