//! Micro-benches of the steady-state round loop: the engine's hot path
//! after the PR-2 scratch-buffer refactor (reused resolved/response
//! buffers, moved — not cloned — push payloads, `Copy` per-round stats).
//!
//! The companion counting-allocator test
//! (`crates/phonecall/tests/alloc_steady_state.rs`) asserts the loop
//! performs zero allocations in steady state; these benches track what
//! that buys in wall time per round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phonecall::{Action, Delivery, Network, Target};

#[derive(Clone, Default)]
struct St {
    got: u64,
}

fn push_storm(net: &mut Network<St>) {
    net.round(
        |_ctx, _rng| Action::Push {
            to: Target::Random,
            msg: 0xFEEDu64,
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                s.got = msg;
            }
        },
    );
}

fn mixed_traffic(net: &mut Network<St>) {
    net.round(
        |ctx, _rng| match ctx.idx.0 % 3 {
            0 => Action::Push {
                to: Target::Random,
                msg: 1u64,
            },
            1 => Action::<u64>::Pull { to: Target::Random },
            _ => Action::Idle,
        },
        |s| Some(s.got),
        |s, d| match d {
            Delivery::Push { msg, .. } | Delivery::PullReply { msg, .. } => s.got = msg,
            Delivery::PulledBy(_) => {}
        },
    );
}

fn bench_round_push_storm(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_push_storm");
    g.sample_size(50);
    for n in [1usize << 10, 1 << 14] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut net: Network<St> = Network::new(n, 1);
            push_storm(&mut net); // warm the scratch buffers
            b.iter(|| {
                push_storm(&mut net);
                net.metrics().rounds
            });
        });
    }
    g.finish();
}

fn bench_round_mixed_traffic(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_mixed_traffic");
    g.sample_size(50);
    for n in [1usize << 10, 1 << 14] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut net: Network<St> = Network::new(n, 2);
            mixed_traffic(&mut net);
            b.iter(|| {
                mixed_traffic(&mut net);
                net.metrics().rounds
            });
        });
    }
    g.finish();
}

/// The struct-of-arrays scale bench: one iteration is one full push
/// round, i.e. exactly `n` contacts resolved, loss-checked and
/// delivered — so ns/iter ÷ `n` is the engine's ns/contact. The
/// normalized table printed afterwards does that division. It is a
/// single-sample readout, not a gate: its 2^20/2^10 ratio moves by 2×
/// between back-to-back runs on one box. perfbench's
/// `network.ns_per_contact` is the measured number.
fn bench_ns_per_contact(c: &mut Criterion) {
    let sizes = [1usize << 10, 1 << 14, 1 << 17, 1 << 20];
    // ~2^23 contacts of work per size: enough samples to be stable at
    // 2^10 without making the 2^20 cell take minutes.
    let samples_for = |n: usize| ((1usize << 23) / n).clamp(4, 256);

    let mut g = c.benchmark_group("round_ns_per_contact");
    for n in sizes {
        g.sample_size(samples_for(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut net: Network<St> = Network::new(n, 3);
            push_storm(&mut net); // warm the scratch buffers
            b.iter(|| {
                push_storm(&mut net);
                net.metrics().rounds
            });
        });
    }
    g.finish();

    // Normalized readout: ns per contact at each size, plus the 2^20 vs
    // 2^10 scale ratio — one sample each, so informational only.
    let mut per_contact = Vec::new();
    for n in sizes {
        let mut net: Network<St> = Network::new(n, 3);
        push_storm(&mut net);
        let iters = samples_for(n);
        let start = std::time::Instant::now();
        for _ in 0..iters {
            push_storm(&mut net);
            black_box(net.metrics().rounds);
        }
        let ns = start.elapsed().as_nanos() as f64 / (iters as f64 * n as f64);
        println!(
            "bench ns_per_contact/2^{:<31} {ns:>14.2} ns/contact",
            n.trailing_zeros()
        );
        per_contact.push(ns);
    }
    println!(
        "bench ns_per_contact ratio 2^20 / 2^10 {:>15.2} x",
        per_contact[3] / per_contact[0]
    );
}

criterion_group!(
    benches,
    bench_round_push_storm,
    bench_round_mixed_traffic,
    bench_ns_per_contact
);
criterion_main!(benches);
