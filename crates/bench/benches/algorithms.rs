//! Criterion benchmarks of the core exploration algorithms: MACP
//! analysis, flow-graph balancing / budget distribution, and memory
//! allocation + signal-to-memory assignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memx_bench::experiments;
use memx_core::alloc::{assign_with_stats_cached, AllocOptions};
use memx_core::{macp, scbd};
use memx_memlib::MemLibrary;

fn bench_macp(c: &mut Criterion) {
    let ctx = experiments::paper_context();
    c.bench_function("macp/btpc_spec", |b| {
        b.iter(|| macp::analyze(std::hint::black_box(&ctx.btpc.spec)))
    });
}

fn bench_scbd(c: &mut Criterion) {
    let ctx = experiments::paper_context();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("transforms valid");
    let mut group = c.benchmark_group("scbd");
    for extra_pct in [0u64, 15, 30] {
        let budget = experiments::CYCLE_BUDGET - experiments::CYCLE_BUDGET * extra_pct / 100;
        group.bench_with_input(
            BenchmarkId::new("distribute", format!("extra{extra_pct}pct")),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    scbd::distribute_with_budget(std::hint::black_box(&spec), budget)
                        .expect("budget feasible")
                })
            },
        );
    }
    group.finish();
}

fn bench_alloc(c: &mut Criterion) {
    let ctx = experiments::paper_context();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("transforms valid");
    let schedule = scbd::distribute(&spec).expect("schedulable");
    let lib = MemLibrary::default_07um();
    let mut group = c.benchmark_group("alloc");
    for k in [4u32, 8, 14] {
        group.bench_with_input(BenchmarkId::new("assign", k), &k, |b, &k| {
            let options = AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            };
            b.iter(|| {
                assign_with_stats_cached(
                    std::hint::black_box(&spec),
                    &schedule,
                    &lib,
                    &options,
                    None,
                )
                .expect("assignable")
                .0
            })
        });
    }
    group.bench_function("assign/sweep", |b| {
        b.iter(|| {
            assign_with_stats_cached(
                std::hint::black_box(&spec),
                &schedule,
                &lib,
                &AllocOptions::default(),
                None,
            )
            .expect("assignable")
            .0
        })
    });
    // The same sweep serially: 2,593,968 nodes, deterministic, past the
    // default 2 M node budget that makes perfbench's BTPC pass count it
    // as exhausted. With the node count fixed, its time tracks the cost
    // per branch-and-bound node.
    let serial = AllocOptions {
        workers: 1,
        ..AllocOptions::default()
    };
    group.bench_function("assign/sweep_serial", |b| {
        b.iter(|| {
            assign_with_stats_cached(std::hint::black_box(&spec), &schedule, &lib, &serial, None)
                .expect("assignable")
                .0
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_macp, bench_scbd, bench_alloc
}
criterion_main!(benches);
