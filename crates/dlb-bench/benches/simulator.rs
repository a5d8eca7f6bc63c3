//! Micro-benchmarks of the discrete-event substrate: calendar throughput,
//! disk timelines and network accounting.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dlb_common::config::{CpuParams, DiskParams, NetworkParams};
use dlb_common::{DiskId, NodeId, SimTime};
use dlb_sim::{DiskFarm, EventCalendar, Network};
use std::hint::black_box;

fn bench_calendar(c: &mut Criterion) {
    c.bench_function("calendar_schedule_pop_10k", |b| {
        b.iter_batched(
            EventCalendar::<u64>::new,
            |mut cal| {
                for i in 0..10_000u64 {
                    // Pseudo-random but deterministic times.
                    let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                    cal.schedule_at(SimTime::from_nanos(t), i);
                }
                while let Some(e) = cal.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

/// The engine's shape: threads run deterministic quanta in lockstep, so
/// every thread's `ThreadReady` and most of the batches it hands on land on
/// one shared quantum-end instant.
fn bench_calendar_lockstep(c: &mut Criterion) {
    const THREADS: u64 = 8;
    const QUANTUM_NS: u64 = 50_000;
    const NETWORK_NS: u64 = 20_000;
    c.bench_function("calendar_lockstep_8_threads_10k", |b| {
        b.iter_batched(
            EventCalendar::<u64>::new,
            |mut cal| {
                // Payloads below THREADS are a thread's ThreadReady, the
                // rest are batches.
                for thread in 0..THREADS {
                    cal.schedule_at(SimTime::ZERO, thread);
                }
                let mut quanta = 10_000 / 4;
                while let Some((now, event)) = cal.pop() {
                    if event < THREADS && quanta > 0 {
                        quanta -= 1;
                        let end = now.as_nanos() + QUANTUM_NS;
                        // Two same-node batches at the quantum end, one
                        // remote batch a network delay later, then the
                        // thread's own wake-up at the shared instant.
                        cal.schedule_at(SimTime::from_nanos(end), THREADS + event);
                        cal.schedule_at(SimTime::from_nanos(end), THREADS + event);
                        cal.schedule_at(SimTime::from_nanos(end + NETWORK_NS), THREADS);
                        cal.schedule_at(SimTime::from_nanos(end), event);
                    }
                    black_box(event);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

/// How far ahead of the clock one `paper-scale` pass schedules its events,
/// as `(share in thousandths, shortest delay ns, longest delay ns)`: local
/// hand-offs, network arrivals, quantum ends, and a few beyond the wheel's
/// 67 ms horizon.
const ENGINE_DELAYS: [(u64, u64, u64); 6] = [
    (85, 8_000, 16_000),
    (70, 32_000, 64_000),
    (348, 500_000, 1_000_000),
    (395, 8_000_000, 16_000_000),
    (100, 33_000_000, 67_000_000),
    (2, 67_000_000, 200_000_000),
];

/// The calendar alone under the engine's delay mix: about 190 events
/// pending, as in a paper-scale run, and each pop schedules one more.
fn bench_calendar_engine_delays(c: &mut Criterion) {
    const PENDING: u64 = 190;
    c.bench_function("calendar_engine_delays_10k", |b| {
        b.iter_batched(
            EventCalendar::<u64>::new,
            |mut cal| {
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                let mut delay = || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let mut pick = (state >> 33) % 1000;
                    let &(_, low, high) = ENGINE_DELAYS
                        .iter()
                        .find(|&&(share, _, _)| {
                            let hit = pick < share;
                            pick = pick.saturating_sub(share);
                            hit
                        })
                        .expect("the shares sum to 1000");
                    low + (state >> 11) % (high - low)
                };
                for i in 0..PENDING {
                    cal.schedule_at(SimTime::from_nanos(delay()), i);
                }
                for i in PENDING..10_000 {
                    let (now, event) = cal.pop().expect("events stay pending");
                    black_box(event);
                    cal.schedule_at(SimTime::from_nanos(now.as_nanos() + delay()), i);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_disks(c: &mut Criterion) {
    c.bench_function("disk_farm_10k_reads", |b| {
        b.iter_batched(
            || DiskFarm::new(DiskParams::default(), 4, 8),
            |mut farm| {
                for i in 0..10_000u32 {
                    let disk = DiskId::new(NodeId::new(i % 4), (i / 4) % 8);
                    black_box(farm.read_streaming(disk, SimTime::from_nanos(i as u64), 8));
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network_10k_sends", |b| {
        b.iter_batched(
            || Network::new(NetworkParams::default(), CpuParams::default(), 4),
            |mut net| {
                for i in 0..10_000u32 {
                    let from = NodeId::new(i % 4);
                    let to = NodeId::new((i + 1) % 4);
                    black_box(net.send(from, to, 12_800, SimTime::from_nanos(i as u64)));
                }
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_calendar,
    bench_calendar_lockstep,
    bench_calendar_engine_delays,
    bench_disks,
    bench_network
);
criterion_main!(benches);
