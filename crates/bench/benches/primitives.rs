//! Microbenchmarks of the simulator's hot primitives: the event queue, the
//! adaptive policy's per-quantum step, RNG, NIC fragmentation and mailbox
//! matching. These bound the deterministic engine's event rate.

use aqs_core::{AdaptiveQuantum, QuantumPolicy};
use aqs_des::EventQueue;
use aqs_net::NicModel;
use aqs_node::{Mailbox, MessageId, MessageMeta, Rank, Tag};
use aqs_rng::Rng;
use aqs_time::{HostTime, SimTime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::seed_from_u64(1);
                (0..1000)
                    .map(|_| rng.range_u64(0..1_000_000))
                    .collect::<Vec<u64>>()
            },
            |times| {
                let mut q: EventQueue<HostTime, u32> = EventQueue::with_capacity(1024);
                for (i, t) in times.iter().enumerate() {
                    q.schedule(HostTime::from_nanos(*t), i as u32);
                }
                let mut sum = 0u64;
                while let Some((t, _)) = q.pop() {
                    sum += t.as_nanos();
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("event_queue/interleaved_cancel", |b| {
        b.iter(|| {
            let mut q: EventQueue<HostTime, u32> = EventQueue::with_capacity(256);
            let mut acc = 0u64;
            for round in 0..100u64 {
                let a = q.schedule(HostTime::from_nanos(round * 3), 0);
                q.schedule(HostTime::from_nanos(round * 3 + 1), 1);
                q.cancel(a);
                if let Some((t, _)) = q.pop() {
                    acc += t.as_nanos();
                }
            }
            black_box(acc)
        })
    });
}

fn bench_policy(c: &mut Criterion) {
    c.bench_function("adaptive_quantum/next_quantum", |b| {
        let mut p = AdaptiveQuantum::paper_dyn1();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(p.next_quantum(if i.is_multiple_of(64) { 3 } else { 0 }))
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/lognormal", |b| {
        let mut rng = Rng::seed_from_u64(7);
        b.iter(|| black_box(rng.lognormal(0.0, 0.12)))
    });
}

fn bench_nic(c: &mut Criterion) {
    let nic = NicModel::paper_default();
    c.bench_function("nic/fragment_64k_message", |b| {
        b.iter(|| black_box(nic.fragment_sizes(black_box(65_536))))
    });
}

fn bench_mailbox(c: &mut Criterion) {
    c.bench_function("mailbox/deliver_and_match_64", |b| {
        b.iter(|| {
            let mut mb = Mailbox::new();
            for seq in 0..64u64 {
                let meta = MessageMeta {
                    id: MessageId {
                        src: Rank::new((seq % 8) as u32),
                        seq,
                    },
                    tag: Tag::new((seq % 4) as u32),
                    bytes: 1000,
                    frag_count: 1,
                };
                mb.deliver_fragment(meta, 0, SimTime::from_nanos(seq * 10));
            }
            let mut matched = 0;
            for seq in 0..64u64 {
                let tag = Tag::new((seq % 4) as u32);
                if !matches!(
                    mb.match_recv(None, tag, SimTime::MAX),
                    aqs_node::MatchOutcome::NoMatch
                ) {
                    matched += 1;
                }
            }
            black_box(matched)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_policy,
    bench_rng,
    bench_nic,
    bench_mailbox
);
criterion_main!(benches);
