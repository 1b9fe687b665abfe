//! The engine probe: drives `Network::round` directly with a fixed
//! synthetic push/pull/idle mix at the workload's size and under its
//! environment, so the engine's cost per contact (and per event under
//! the async engine) is measured apart from any algorithm.

use std::time::Instant;

use gossip_core::config::CommonConfig;
use phonecall::{derive_seed, Action, Delivery, Network, Target};

use crate::trace::{thread_index, Trace};

/// Rounds run before timing starts, so scratch buffers are sized and
/// the churn and traffic schedules are under way.
const WARMUP_ROUNDS: usize = 3;

/// Contacts the timed rounds aim to cover, whatever `n` is.
const PROBE_CONTACTS: usize = 1 << 22;

/// Per-node state of the probe: the last payload received.
#[derive(Clone, Debug, Default)]
pub struct ProbeState {
    got: u64,
}

/// Allocates the probe network and installs the scenario's environment
/// through the public setters, with the stream labels the simulator
/// core uses (4 churn, 5 topology, 6 traffic).
pub fn install(n: usize, common: &CommonConfig) -> Network<ProbeState> {
    let seed = common.seed;
    let mut net = Network::new(n, seed);
    net.set_message_loss(common.message_loss);
    net.set_churn(common.churn.clone(), derive_seed(seed, 4));
    net.set_topology(
        common.topology.clone(),
        common.addressing,
        derive_seed(seed, 5),
    );
    net.set_traffic(
        common.traffic.clone(),
        common.rumor_bits,
        derive_seed(seed, 6),
    );
    net.set_engine(common.engine.clone(), seed);
    net
}

/// A third of the nodes push, a third pull, a third stay idle.
fn mixed_round(net: &mut Network<ProbeState>) -> phonecall::RoundStats {
    net.round(
        |ctx, _rng| match ctx.idx.0 % 3 {
            0 => Action::Push {
                to: Target::Random,
                msg: u64::from(ctx.idx.0),
            },
            1 => Action::<u64>::Pull { to: Target::Random },
            _ => Action::Idle,
        },
        |s| Some(s.got),
        |s, d| match d {
            Delivery::Push { msg, .. } | Delivery::PullReply { msg, .. } => s.got = msg,
            Delivery::PulledBy(_) => {}
        },
    )
}

/// What the timed probe rounds measured.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Host seconds of each timed round.
    pub round_s: Vec<f64>,
    /// Communications initiated during the timed rounds.
    pub contacts: u64,
    /// Async events processed during the timed rounds (0 when sync).
    pub events: u64,
    /// Largest per-node per-round fan-in seen.
    pub max_fan_in: u64,
}

impl Probe {
    /// Host nanoseconds of the median round per unit of work, where the
    /// run did `work` units in total: a round slowed by host contention
    /// moves one sample, not the total.
    pub fn ns_per(&self, work: u64) -> f64 {
        let round_ns = crate::stats::median(&self.round_s).unwrap_or(0.0) * 1e9;
        round_ns * self.round_s.len() as f64 / work as f64
    }
}

/// Runs the warm-up and timed rounds, one `network.round` span each.
pub fn run(net: &mut Network<ProbeState>, trace: &mut Trace, parent: usize) -> Probe {
    for _ in 0..WARMUP_ROUNDS {
        mixed_round(net);
    }
    let rounds = (PROBE_CONTACTS / net.len()).clamp(32, 1024);
    let events_before = net.events_processed();
    let mut probe = Probe::default();
    for _ in 0..rounds {
        let start = Instant::now();
        let stats = mixed_round(net);
        let end = Instant::now();
        probe.round_s.push((end - start).as_secs_f64());
        probe.contacts += stats.initiators;
        trace.push(
            "network.round",
            Some(parent),
            (start, end),
            None,
            thread_index(),
        );
    }
    probe.events = net.events_processed() - events_before;
    probe.max_fan_in = net.metrics().max_fan_in;
    probe
}
