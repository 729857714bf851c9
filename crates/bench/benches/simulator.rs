//! Simulator throughput: executing full schedules (schedule derivation,
//! client replay, bandwidth metering) on the event-driven engine.

use criterion::{criterion_group, criterion_main, Criterion};
use sm_core::consecutive_slots;
use sm_offline::forest::optimal_forest;
use sm_sim::{simulate, stream_schedule, BandwidthProfile};
use std::hint::black_box;

fn bench_simulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(20);
    for (media_len, n) in [(100u64, 1_000usize), (100, 5_000), (500, 2_000)] {
        let plan = optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        g.bench_function(format!("events_optimal_L{media_len}_n{n}"), |b| {
            b.iter(|| {
                black_box(simulate(
                    black_box(&plan.forest),
                    black_box(&times),
                    media_len,
                ))
            })
        });
    }
    g.finish();
}

fn bench_schedule_and_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule");
    let plan = optimal_forest(100, 10_000);
    let times = consecutive_slots(10_000);
    g.bench_function("derive_streams_n_10k", |b| {
        b.iter(|| {
            black_box(stream_schedule(
                black_box(&plan.forest),
                black_box(&times),
                100,
            ))
        })
    });
    let specs = stream_schedule(&plan.forest, &times, 100).unwrap();
    g.bench_function("bandwidth_profile_n_10k", |b| {
        b.iter(|| black_box(BandwidthProfile::from_streams(black_box(&specs))))
    });
    g.finish();
}

criterion_group!(benches, bench_simulate, bench_schedule_and_metrics);
criterion_main!(benches);
