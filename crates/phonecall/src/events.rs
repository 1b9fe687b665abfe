//! The **asynchronous event-driven engine**: a second execution mode for
//! [`Network`] in which a round is no longer a lockstep barrier but a
//! *window of timestamped events* drained from a deterministic queue.
//!
//! # Model
//!
//! Synchronous rounds (the paper's model, and [`Network::round`]'s
//! default) fire every node simultaneously and deliver every message
//! instantaneously. Under [`Engine::Async`] each schedule step instead
//! plays out in continuous virtual time:
//!
//! * every alive node **activates once per step**, at an offset drawn
//!   from its exponential activation clock (rate `λ` =
//!   [`AsyncConfig::rate`]) — the classic asynchronous-gossip clock
//!   model, renewed at each step so algorithm schedules keep their
//!   meaning;
//! * every message incurs a **latency** drawn from the configured
//!   [`Latency`] distribution, so deliveries interleave with later
//!   activations — in-flight messages straddle activation boundaries,
//!   and a pull is answered from the responder's state *at request
//!   arrival*, not from a start-of-round snapshot;
//! * loss verdicts, churn boundary moves, topology gating and traffic
//!   piggybacking all fire at event timestamps.
//!
//! # One engine core
//!
//! The two engines *share* their accounting: this module only schedules
//! (activation clocks, latencies, the heap drain, loss verdicts from the
//! delivery stream) and reaches every counter, trace event and
//! churn/traffic call through the helpers on [`Network`] that
//! [`Network::round`] uses too — the boundary step
//! (`open_round`), `initiate` (decide, charge the initiation, resolve
//! the target), the three charge helpers (`charge_push`,
//! `charge_pull_request`, `charge_pull_reply`) and the close-out
//! (`close_round`). They make exactly the draws the engines made inline,
//! in the same order; each trace event precedes its `deliver` call; and
//! the traffic ledger sees its calls in delivery order.
//!
//! The step ends when the queue drains (activation chains are finite:
//! an activation spawns at most one request, a request at most one
//! reply), so causality across steps is preserved — algorithms with
//! exact-round schedules (the oracle tree) still complete — while the
//! *within*-step interleaving, response timing and message ordering are
//! genuinely asynchronous. The run's continuous clock is exposed as
//! [`Network::virtual_time`]; expect each step to cost `Θ(log n / λ)`
//! virtual time (the maximum of `n` exponential clocks) plus the
//! latency tail — the asynchrony tax the E14 experiment measures.
//!
//! # Determinism
//!
//! The queue is a binary heap ordered by [`EventKey`] — `(virtual_time,
//! seq, node)` compared via [`f64::total_cmp`] — and every event carries
//! a unique `seq`, so the order is *total*: no tie ever falls back on
//! allocation order or hash state. Clock offsets, latencies and loss
//! verdicts draw from three dedicated reserved streams
//! ([`crate::rng::ASYNC_CLOCK_STREAM`] / [`ASYNC_LATENCY_STREAM`] /
//! [`ASYNC_DELIVERY_STREAM`]), so installing [`Engine::Sync`] (the
//! default) draws nothing at all and stays bit-identical to builds that
//! predate this module — every pre-async golden digest still holds.
//!
//! [`ASYNC_LATENCY_STREAM`]: crate::rng::ASYNC_LATENCY_STREAM
//! [`ASYNC_DELIVERY_STREAM`]: crate::rng::ASYNC_DELIVERY_STREAM

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::action::{Action, Delivery};
use crate::id::NodeIdx;
use crate::metrics::RoundStats;
use crate::network::{Network, NodeCtx};
use crate::normalize_name;
use crate::rng::{
    derive_seed, rng_from_seed, ASYNC_CLOCK_STREAM, ASYNC_DELIVERY_STREAM, ASYNC_LATENCY_STREAM,
};
use crate::wire::Wire;

// ----------------------------------------------------------------------
// Configuration
// ----------------------------------------------------------------------

/// Which engine executes [`Network::round`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Engine {
    /// Lockstep synchronous rounds: the paper's model and the default.
    /// Installs nothing — runs are bit-identical to builds that predate
    /// the asynchronous engine.
    #[default]
    Sync,
    /// The event-driven engine of [`crate::events`]: exponential
    /// activation clocks, sampled message latencies, a deterministic
    /// `(time, seq, node)`-ordered queue.
    Async(AsyncConfig),
}

/// Knobs of the asynchronous engine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Rate `λ` of each node's exponential activation clock: the mean
    /// activation offset within a step is `1/λ`.
    pub rate: f64,
    /// The message-latency distribution.
    pub latency: Latency,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            rate: 1.0,
            latency: Latency::default(),
        }
    }
}

impl AsyncConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(format!(
                "async engine rate must be positive and finite, got {}",
                self.rate
            ));
        }
        self.latency.validate()
    }
}

/// A message-latency distribution (virtual time from send to arrival).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Latency {
    /// Every message takes exactly this long.
    Fixed(f64),
    /// Uniform on `[lo, hi)`.
    Uniform(f64, f64),
    /// Exponential with the given mean (heavy right tail: stragglers).
    Exponential(f64),
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Fixed(0.5)
    }
}

impl Latency {
    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Latency::Fixed(v) => {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!(
                        "fixed latency must be finite and non-negative, got {v}"
                    ));
                }
            }
            Latency::Uniform(lo, hi) => {
                if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi <= lo {
                    return Err(format!(
                        "uniform latency wants 0 <= lo < hi (finite), got [{lo}, {hi})"
                    ));
                }
            }
            Latency::Exponential(mean) => {
                if !mean.is_finite() || mean <= 0.0 {
                    return Err(format!(
                        "exponential latency mean must be positive and finite, got {mean}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable lowercase family label (the JSON `"kind"` value).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Latency::Fixed(_) => "fixed",
            Latency::Uniform(..) => "uniform",
            Latency::Exponential(_) => "exponential",
        }
    }

    /// Draws one latency.
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            Latency::Fixed(v) => v,
            Latency::Uniform(lo, hi) => rng.gen_range(lo..hi),
            Latency::Exponential(mean) => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() * mean
            }
        }
    }
}

impl Engine {
    /// Whether this is the asynchronous engine.
    #[must_use]
    pub fn is_async(&self) -> bool {
        matches!(self, Engine::Async(_))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Engine::Sync => Ok(()),
            Engine::Async(cfg) => cfg.validate(),
        }
    }

    /// Stable spec string: `"sync"`, or `"async:<profile>"` for the
    /// named latency profiles (the `--engine` CLI syntax).
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            Engine::Sync => "sync".into(),
            Engine::Async(cfg) => format!("async:{}", cfg.latency.label()),
        }
    }

    /// The named engine specs with one-line descriptions (the
    /// `--list-engines` catalog).
    #[must_use]
    pub fn catalog() -> &'static [(&'static str, &'static str)] {
        &[
            (
                "sync",
                "lockstep synchronous rounds (the paper's model; default)",
            ),
            (
                "async:fixed",
                "event-driven, exponential clocks (rate 1), fixed latency 0.5",
            ),
            (
                "async:uniform",
                "event-driven, exponential clocks (rate 1), uniform latency [0.1, 1.0)",
            ),
            (
                "async:exp",
                "event-driven, exponential clocks (rate 1), exponential latency (mean 0.5)",
            ),
        ]
    }

    /// The [`AsyncConfig`] behind a named latency profile
    /// (`"fixed"` / `"uniform"` / `"exp"`), case- and
    /// separator-insensitive. `None` for unknown names.
    #[must_use]
    pub fn profile(name: &str) -> Option<AsyncConfig> {
        match normalize_name(name).as_str() {
            "fixed" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Fixed(0.5),
            }),
            "uniform" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Uniform(0.1, 1.0),
            }),
            "exp" | "exponential" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Exponential(0.5),
            }),
            _ => None,
        }
    }

    /// Parses an engine spec: `"sync"`, `"async"` (the default profile,
    /// `fixed`), or `"async:<profile>"`. Matching is case- and
    /// separator-insensitive, like the algorithm and topology registries.
    ///
    /// # Errors
    ///
    /// Returns a message listing every valid spec for anything else.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let (head, profile) = match spec.split_once(':') {
            Some((h, p)) => (h, Some(p)),
            None => (spec, None),
        };
        let invalid = || {
            let specs: Vec<&str> = Self::catalog().iter().map(|&(s, _)| s).collect();
            format!(
                "unknown engine {spec:?}; valid specs (case-insensitive): {}",
                specs.join(", ")
            )
        };
        match (normalize_name(head).as_str(), profile) {
            ("sync", None) => Ok(Engine::Sync),
            ("async", None) => Ok(Engine::Async(AsyncConfig::default())),
            ("async", Some(p)) => Engine::profile(p).map(Engine::Async).ok_or_else(invalid),
            _ => Err(invalid()),
        }
    }
}

// ----------------------------------------------------------------------
// The event queue
// ----------------------------------------------------------------------

/// Total order over events: `(virtual_time, seq, node)`.
///
/// `time` compares via [`f64::total_cmp`] and `seq` is unique per event
/// (a single counter stamps activations and messages alike), so the
/// order is total and strict — heap pops are seed-reproducible with no
/// dependence on insertion order.
#[derive(Clone, Copy, Debug)]
pub struct EventKey {
    /// Virtual firing time.
    pub time: f64,
    /// Global stamp order (unique per event).
    pub seq: u64,
    /// The node the event fires *at* (activating node or recipient).
    pub node: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
            .then(self.node.cmp(&other.node))
    }
}

/// An in-flight message: fires at `key.time` at node `key.node`.
pub(crate) struct MsgEv<M> {
    pub(crate) key: EventKey,
    /// The sending node (the puller, for replies the responder).
    pub(crate) src: u32,
    pub(crate) kind: MsgKind<M>,
}

/// What arrives when an in-flight message fires.
pub(crate) enum MsgKind<M> {
    /// A push payload; `lost` messages are charged but not delivered.
    Push { msg: M, lost: bool },
    /// A pull request. Both loss legs are verdicts drawn at send time
    /// (like the synchronous engine's unconditional two-leg draw):
    /// a `lost` request never reaches the responder, a lost reply
    /// (`rep_lost`) is sent — and charged — but never arrives.
    PullReq { lost: bool, rep_lost: bool },
    /// A pull reply carrying the responder's answer back to the puller.
    PullReply { msg: M, lost: bool },
}

impl<M> PartialEq for MsgEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<M> Eq for MsgEv<M> {}

impl<M> PartialOrd for MsgEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for MsgEv<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

// ----------------------------------------------------------------------
// Engine state
// ----------------------------------------------------------------------

/// The asynchronous engine's run state: the three reserved random
/// streams, the activation-clock heap, the global event stamp and the
/// continuous clock. Boxed on [`Network`] so [`Engine::Sync`] costs one
/// `Option` discriminant.
#[derive(Debug)]
pub(crate) struct AsyncState {
    cfg: AsyncConfig,
    /// Activation-clock offsets (reserved stream 7).
    clock_rng: SmallRng,
    /// Message latencies (reserved stream 8).
    latency_rng: SmallRng,
    /// Loss verdicts (reserved stream 9; the synchronous engine draws
    /// these from the engine stream, but the async draw *order* differs,
    /// so they get a stream of their own).
    delivery_rng: SmallRng,
    /// Pending activations, min-heap. Capacity `n` — exactly one
    /// activation per node per round, pushed into an empty heap — so
    /// the steady-state loop never reallocates it.
    clocks: BinaryHeap<Reverse<EventKey>>,
    seq: u64,
    virtual_time: f64,
    events: u64,
}

impl AsyncState {
    pub(crate) fn new(cfg: AsyncConfig, n: usize, seed: u64) -> Self {
        AsyncState {
            clock_rng: rng_from_seed(derive_seed(seed, ASYNC_CLOCK_STREAM)),
            latency_rng: rng_from_seed(derive_seed(seed, ASYNC_LATENCY_STREAM)),
            delivery_rng: rng_from_seed(derive_seed(seed, ASYNC_DELIVERY_STREAM)),
            clocks: BinaryHeap::with_capacity(n),
            seq: 0,
            virtual_time: 0.0,
            events: 0,
            cfg,
        }
    }

    pub(crate) fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    pub(crate) fn events_processed(&self) -> u64 {
        self.events
    }

    /// Stamps the next event key.
    fn next_key(&mut self, time: f64, node: u32) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        EventKey { time, seq, node }
    }

    /// One exponential activation gap (mean `1/rate`).
    fn clock_gap(&mut self) -> f64 {
        let u: f64 = self.clock_rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.cfg.rate
    }

    /// One message latency.
    fn latency(&mut self) -> f64 {
        self.cfg.latency.sample(&mut self.latency_rng)
    }
}

// ----------------------------------------------------------------------
// The event-driven round
// ----------------------------------------------------------------------

impl<S> Network<S> {
    /// Executes one schedule step of [`Network::round`] on the
    /// asynchronous engine: schedules every node's activation at an
    /// exponential clock offset, then drains activations and in-flight
    /// message arrivals in `(time, seq, node)` order. Charging, tracing
    /// and fan-in accounting go through the synchronous engine's own
    /// helpers; the differences are semantic — deliveries land mid-step,
    /// pulls are answered from current state at request arrival, and
    /// every ordering decision is a timestamp.
    pub(crate) fn round_async<M: Wire + 'static>(
        &mut self,
        mut decide: impl FnMut(NodeCtx<'_, S>, &mut SmallRng) -> Action<M>,
        mut respond: impl FnMut(&S) -> Option<M>,
        mut deliver: impl FnMut(&mut S, Delivery<M>),
    ) -> RoundStats {
        let n = self.len();
        // The boundary moves once per schedule step, before any
        // activation of the step fires.
        let (mut stats, loss) = self.open_round();
        let mut axs = self
            .async_state
            .take()
            .expect("round_async dispatched without async state");
        let mut msgs = self.inflight.take::<BinaryHeap<Reverse<MsgEv<M>>>>();
        // Pre-size the event pool: at any instant at most one in-flight
        // message exists per node (an activation's single send, or the
        // reply that replaces its request when the request pops), so
        // capacity `n` makes the drain loop allocation-free from the
        // first step — no warm-up-dependent high-water mark.
        if msgs.capacity() < n {
            msgs.reserve(n - msgs.len());
        }

        // Schedule this step's activations: one exponential clock offset
        // per node, dead or alive — dead nodes are skipped at fire time,
        // so the clock stream never depends on the churn history.
        let t0 = axs.virtual_time;
        for i in 0..n as u32 {
            let gap = axs.clock_gap();
            let key = axs.next_key(t0 + gap, i);
            axs.clocks.push(Reverse(key));
        }

        // Drain the queue in (time, seq, node) order, merging the two
        // heaps by their tops. Chains are finite (activation → at most
        // one request → at most one reply), so the step terminates.
        loop {
            let fire_msg = match (axs.clocks.peek(), msgs.peek()) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(Reverse(c)), Some(Reverse(m))) => m.key < *c,
            };
            axs.events += 1;
            if !fire_msg {
                // An activation: the node decides, exactly as a
                // synchronous phase-1 visit, and any send goes in
                // flight with a sampled latency.
                let Some(Reverse(key)) = axs.clocks.pop() else {
                    unreachable!()
                };
                axs.virtual_time = key.time;
                let idx = NodeIdx(key.node);
                if !self.alive.get(idx.as_usize()) {
                    continue;
                }
                let Some((action, dst)) = self.initiate(idx, &mut decide, &mut stats) else {
                    continue;
                };
                let arrive = key.time + axs.latency();
                let kind = match action {
                    Action::Push { msg, .. } => {
                        let lost = loss > 0.0 && axs.delivery_rng.gen_bool(loss);
                        MsgKind::Push { msg, lost }
                    }
                    Action::Pull { .. } => {
                        // Both legs sampled at send time, unconditionally
                        // when the knob is on — the delivery stream never
                        // depends on the first verdict (as the
                        // synchronous engine's phase 2).
                        let mut lost = false;
                        let mut rep_lost = false;
                        if loss > 0.0 {
                            lost = axs.delivery_rng.gen_bool(loss);
                            rep_lost = axs.delivery_rng.gen_bool(loss);
                        }
                        MsgKind::PullReq { lost, rep_lost }
                    }
                    Action::Idle => unreachable!(),
                };
                let key = axs.next_key(arrive, dst.0);
                msgs.push(Reverse(MsgEv {
                    key,
                    src: idx.0,
                    kind,
                }));
                continue;
            }

            // A message arrival.
            let Some(Reverse(ev)) = msgs.pop() else {
                unreachable!()
            };
            axs.virtual_time = ev.key.time;
            let src = NodeIdx(ev.src);
            let dst = NodeIdx(ev.key.node);
            let d = dst.as_usize();
            match ev.kind {
                MsgKind::Push { msg, lost } => {
                    if self.charge_push(&mut stats, src, dst, &msg, lost) {
                        let from = self.ids.id_of(src);
                        deliver(&mut self.states[d], Delivery::Push { from, msg });
                    }
                }
                MsgKind::PullReq { lost, rep_lost } => {
                    let arrived = self.charge_pull_request(&mut stats, src, dst, lost);
                    if !arrived || !self.alive.get(d) {
                        continue;
                    }
                    // Asynchronous semantics: the response reads the
                    // responder's state *now*, at request arrival — not
                    // a start-of-round snapshot — and the pulled-by
                    // notification lands immediately.
                    let resp = respond(&self.states[d]);
                    deliver(&mut self.states[d], Delivery::PulledBy(self.ids.id_of(src)));
                    if let Some(msg) = resp {
                        let arrive = ev.key.time + axs.latency();
                        let key = axs.next_key(arrive, src.0);
                        msgs.push(Reverse(MsgEv {
                            key,
                            src: dst.0,
                            kind: MsgKind::PullReply {
                                msg,
                                lost: rep_lost,
                            },
                        }));
                    }
                }
                MsgKind::PullReply { msg, lost } => {
                    if self.charge_pull_reply(&mut stats, src, dst, &msg, lost) {
                        let from = self.ids.id_of(src);
                        deliver(&mut self.states[d], Delivery::PullReply { from, msg });
                    }
                }
            }
        }
        self.inflight.put(msgs);
        self.async_state = Some(axs);
        self.close_round(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_key_order_is_time_then_seq_then_node() {
        let a = EventKey {
            time: 1.0,
            seq: 5,
            node: 9,
        };
        let b = EventKey {
            time: 2.0,
            seq: 1,
            node: 0,
        };
        assert!(a < b, "earlier time wins");
        let c = EventKey {
            time: 1.0,
            seq: 6,
            node: 0,
        };
        assert!(a < c, "seq breaks time ties");
        let d = EventKey {
            time: 1.0,
            seq: 5,
            node: 10,
        };
        assert!(a < d, "node breaks (time, seq) ties");
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn parse_spec_accepts_profiles_and_separators() {
        assert_eq!(Engine::parse_spec("sync").unwrap(), Engine::Sync);
        assert_eq!(Engine::parse_spec("SYNC").unwrap(), Engine::Sync);
        assert_eq!(
            Engine::parse_spec("async").unwrap(),
            Engine::Async(AsyncConfig::default())
        );
        assert_eq!(
            Engine::parse_spec("Async:Fixed").unwrap(),
            Engine::Async(AsyncConfig {
                rate: 1.0,
                latency: Latency::Fixed(0.5),
            })
        );
        assert_eq!(
            Engine::parse_spec("async:EXPONENTIAL").unwrap(),
            Engine::parse_spec("async:exp").unwrap()
        );
        assert!(matches!(
            Engine::parse_spec("async:uniform").unwrap(),
            Engine::Async(AsyncConfig {
                latency: Latency::Uniform(..),
                ..
            })
        ));
    }

    #[test]
    fn parse_spec_rejects_unknown_names_listing_specs() {
        for bad in ["warp", "async:bimodal", "sync:fixed"] {
            let err = Engine::parse_spec(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            for (spec, _) in Engine::catalog() {
                assert!(err.contains(spec), "{err} missing {spec}");
            }
        }
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let bad_rate = AsyncConfig {
            rate: 0.0,
            ..AsyncConfig::default()
        };
        assert!(bad_rate.validate().unwrap_err().contains("rate"));
        assert!(Latency::Fixed(-1.0)
            .validate()
            .unwrap_err()
            .contains("fixed"));
        assert!(Latency::Uniform(2.0, 1.0)
            .validate()
            .unwrap_err()
            .contains("uniform"));
        assert!(Latency::Exponential(f64::NAN)
            .validate()
            .unwrap_err()
            .contains("exponential"));
        assert!(Engine::Sync.validate().is_ok());
        assert!(Engine::Async(AsyncConfig::default()).validate().is_ok());
    }

    #[test]
    fn latency_samples_respect_their_support() {
        let mut rng = rng_from_seed(7);
        for _ in 0..256 {
            assert_eq!(Latency::Fixed(0.25).sample(&mut rng), 0.25);
            let u = Latency::Uniform(0.1, 1.0).sample(&mut rng);
            assert!((0.1..1.0).contains(&u), "{u}");
            let e = Latency::Exponential(0.5).sample(&mut rng);
            assert!(e > 0.0 && e.is_finite(), "{e}");
        }
    }

    #[test]
    fn spec_round_trips_through_parse() {
        for (spec, _) in Engine::catalog() {
            let engine = Engine::parse_spec(spec).unwrap();
            // `exp` is shorthand; the canonical spec spells the family out.
            let want = if *spec == "async:exp" {
                "async:exponential"
            } else {
                *spec
            };
            assert_eq!(engine.spec(), want);
        }
    }
}
