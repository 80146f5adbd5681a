//! Criterion bench: analytical cost-model throughput.
//!
//! The search evaluates tens of thousands of candidates per co-design
//! run, so cost-model latency is the tool's fundamental unit of work.
//! Benchmarks both analytical models on representative layers, and the
//! cycle-level simulator (`sim/<layer>`) on schedules whose outer loop
//! nests run about 10^3, 10^4 and 10^5 iterations.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use spotlight_accel::Baseline;
use spotlight_conv::{ConvLayer, Dim, LoopPermutation};
use spotlight_maestro::{sim, CostModel};
use spotlight_space::dataflows::dataflow_schedule;
use spotlight_space::{Schedule, TileSizes};
use spotlight_timeloop::TimeloopModel;

fn bench_cost_models(c: &mut Criterion) {
    let hw = Baseline::NvdlaLike.edge_config();
    let layers = [
        ("resnet_conv3x3", ConvLayer::new(1, 128, 64, 3, 3, 28, 28)),
        ("gemm_1x1", ConvLayer::new(1, 768, 512, 1, 1, 16, 32)),
        ("depthwise", ConvLayer::new(96, 1, 1, 3, 3, 56, 56)),
    ];
    let maestro = CostModel::default();
    let timeloop = TimeloopModel::default();

    let mut group = c.benchmark_group("cost_model");
    for (name, layer) in layers {
        let sched = dataflow_schedule(Baseline::NvdlaLike.dataflow(), &layer, &hw);
        group.bench_function(format!("maestro/{name}"), |b| {
            b.iter(|| black_box(maestro.evaluate(black_box(&hw), black_box(&sched), &layer)))
        });
        let trivial = Schedule::trivial(&layer);
        group.bench_function(format!("timeloop/{name}"), |b| {
            b.iter(|| black_box(timeloop.evaluate(black_box(&hw), black_box(&trivial), &layer)))
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use Dim::*;
    let hw = Baseline::NvdlaLike.edge_config();
    // (name, layer, scratchpad tiles, outer order, outer nest size)
    let cases = [
        (
            "resnet_conv3x3",
            ConvLayer::new(1, 128, 64, 3, 3, 28, 28),
            [1, 16, 16, 3, 3, 4, 4],
            // A reduction loop innermost.
            [N, K, X, Y, C, R, S],
            1_568,
        ),
        (
            "resnet_conv1x1",
            ConvLayer::new(1, 256, 64, 1, 1, 56, 56),
            [1, 16, 16, 1, 1, 4, 4],
            // Output loops innermost, re-entered once per C tile.
            [C, R, S, N, K, X, Y],
            12_544,
        ),
        (
            "resnet_conv1x1_fine",
            ConvLayer::new(1, 256, 64, 1, 1, 56, 56),
            [1, 8, 8, 1, 1, 2, 4],
            [N, K, C, R, S, X, Y],
            100_352,
        ),
    ];
    let mut group = c.benchmark_group("cost_model");
    for (name, layer, l2, order, iterations) in cases {
        let tiles = TileSizes::new(&layer, l2, [1; 7]).expect("tiles divide the layer");
        let order = LoopPermutation::new(order).expect("a permutation");
        let sched = Schedule::new(tiles, order, LoopPermutation::canonical(), N, C);
        let report = sim::simulate(&hw, &sched, &layer, 1 << 20).expect("feasible");
        assert_eq!(report.outer_iterations, iterations, "{name}");
        group.bench_function(format!("sim/{name}"), |b| {
            b.iter(|| {
                black_box(sim::simulate(
                    black_box(&hw),
                    black_box(&sched),
                    &layer,
                    1 << 20,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cost_models, bench_simulator);
criterion_main!(benches);
