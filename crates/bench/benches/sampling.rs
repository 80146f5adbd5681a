//! Criterion bench: co-design-space sampling throughput.
//!
//! Candidate generation runs inside every acquisition batch (64 draws
//! per suggestion), so sampler latency multiplies through the whole
//! search.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::swsearch::{sample_schedule_guided, ScheduleSampler};
use spotlight_accel::Baseline;
use spotlight_conv::ConvLayer;
use spotlight_space::dataflows::dataflow_schedule;
use spotlight_space::{mutate, sample, ParamRanges};

fn bench_sampling(c: &mut Criterion) {
    let ranges = ParamRanges::edge();
    let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
    let hw = Baseline::NvdlaLike.edge_config();
    let mut rng = ChaCha8Rng::seed_from_u64(0);

    let mut group = c.benchmark_group("sampling");
    group.bench_function("hw_uniform", |b| {
        b.iter(|| black_box(sample::sample_hw(&mut rng, &ranges)))
    });
    group.bench_function("schedule_uniform", |b| {
        b.iter(|| black_box(sample::sample_schedule(&mut rng, &layer)))
    });
    // One-shot draw: builds the (hw, layer) sampler, then draws once.
    group.bench_function("schedule_guided", |b| {
        b.iter(|| black_box(sample_schedule_guided(&mut rng, &layer, &hw)))
    });
    // What a software search pays: the sampler is built once per
    // (hw, layer) pair (its three dataflow skeletons on first use), then
    // every candidate is one prebuilt draw.
    group.bench_function("sampler_build", |b| {
        b.iter(|| black_box(ScheduleSampler::new(black_box(&layer), black_box(&hw))))
    });
    let sampler = ScheduleSampler::new(&layer, &hw);
    group.bench_function("schedule_guided_prebuilt", |b| {
        b.iter(|| black_box(sampler.guided(&mut rng)))
    });
    group.bench_function("dataflow_greedy", |b| {
        b.iter(|| {
            black_box(dataflow_schedule(
                Baseline::EyerissLike.dataflow(),
                &layer,
                &hw,
            ))
        })
    });
    let base = sample::sample_schedule(&mut rng, &layer);
    group.bench_function("schedule_mutate", |b| {
        b.iter(|| black_box(mutate::mutate_schedule(&mut rng, &base, &layer)))
    });
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
