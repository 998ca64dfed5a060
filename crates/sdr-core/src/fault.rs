//! Deterministic message-fault injection.
//!
//! The paper's evaluation assumes lossless, ordered point-to-point
//! delivery (§5) and leaves fault tolerance explicitly open (§6). This
//! module is the controlled way to leave that ideal: a [`FaultPlan`]
//! describes, per [`MsgCategory`], the probability that a message is
//! dropped, duplicated, delayed by N delivery events, reordered behind
//! its successor, or corrupted at the receiver. A [`FaultInjector`]
//! executes the plan with a forked `sdr_det` RNG, so a chaos run is a
//! pure function of `(workload seed, fault seed)` — bit-reproducible,
//! shrinkable, and comparable across replays.
//!
//! Both message substrates consume the same plan: the in-process
//! simulator hooks it into `Cluster::drain` (faults decided at delivery
//! time), and the TCP deployment threads it through `send_message` /
//! the frame-read path. Injected faults are never silent: every decision
//! is counted in [`Stats`] (see [`Stats::fault_counters`]), and the
//! delivery paths surface the consequences as observable errors rather
//! than hangs.
//!
//! Fault model guarantees per class are documented in `DESIGN.md`
//! ("fault model" decision entry).

use crate::msg::Message;
use crate::stats::{FaultKind, MsgCategory, Stats};
use sdr_det::{bounded, DetRng, Rng};

/// Per-category probability table: a base rate plus optional per-category
/// overrides.
#[derive(Clone, Copy, Debug, Default)]
struct Rates {
    base: f64,
    per: [Option<f64>; 9],
}

impl Rates {
    #[expect(
        clippy::indexing_slicing,
        reason = "the array is sized to the MsgCategory count and index() maps each variant below it"
    )]
    fn rate(&self, c: MsgCategory) -> f64 {
        self.per[c.index()].unwrap_or(self.base)
    }

    fn is_zero(&self) -> bool {
        self.base == 0.0 && self.per.iter().all(|p| p.is_none_or(|p| p == 0.0))
    }
}

/// A declarative description of the faults to inject.
///
/// All probabilities default to zero; [`FaultPlan::none`] is a no-op
/// plan. Builder methods set a base rate for every category
/// (`with_drop(0.01)`) or override one category
/// (`with_drop_for(MsgCategory::Reply, 0.3)`).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    drop: Rates,
    duplicate: Rates,
    delay: Rates,
    reorder: Rates,
    corrupt: Rates,
    /// Upper bound (inclusive) of the delivery-count delay drawn for a
    /// delayed message.
    max_delay: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: Rates::default(),
            duplicate: Rates::default(),
            delay: Rates::default(),
            reorder: Rates::default(),
            corrupt: Rates::default(),
            max_delay: 3,
        }
    }
}

macro_rules! rate_setters {
    ($($field:ident => $all:ident, $for_one:ident);* $(;)?) => {$(
        /// Sets the base probability of this fault for every category.
        pub fn $all(mut self, p: f64) -> Self {
            self.$field.base = p;
            self
        }

        /// Overrides the probability of this fault for one category.
        #[expect(clippy::indexing_slicing, reason = "index() < category count")]
        pub fn $for_one(mut self, c: MsgCategory, p: f64) -> Self {
            self.$field.per[c.index()] = Some(p);
            self
        }
    )*};
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    rate_setters! {
        drop => with_drop, with_drop_for;
        duplicate => with_dup, with_dup_for;
        delay => with_delay, with_delay_for;
        reorder => with_reorder, with_reorder_for;
        corrupt => with_corrupt, with_corrupt_for;
    }

    /// Sets the maximum delivery-count delay (clamped to at least 1).
    pub fn with_max_delay(mut self, n: u32) -> Self {
        self.max_delay = n.max(1);
        self
    }

    /// Whether the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.drop.is_zero()
            && self.duplicate.is_zero()
            && self.delay.is_zero()
            && self.reorder.is_zero()
            && self.corrupt.is_zero()
    }

    /// Builds the stateful injector executing this plan from `seed`.
    pub fn injector(&self, seed: u64) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            rng: Rng::seed_from_u64(seed).fork(FAULT_STREAM),
        }
    }
}

/// Stream id reserved for fault decisions, so a chaos harness can share
/// one master seed between the workload and the fault layer without the
/// two streams aliasing.
const FAULT_STREAM: u64 = 0xFA17;

/// What to do with one message about to be delivered (send side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver it now and once more later.
    Duplicate,
    /// Hold the message back for this many delivery events.
    Delay(u32),
    /// Push the message behind the next pending message.
    Reorder,
}

/// The stateful executor of a [`FaultPlan`]: a forked deterministic RNG
/// plus the plan. Decisions are a pure function of the construction seed
/// and the sequence of messages offered.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
}

impl FaultInjector {
    /// Decides the send-side fate of `msg`, recording any injected fault
    /// in `stats`.
    pub fn decide(&mut self, msg: &Message, stats: &mut Stats) -> FaultDecision {
        let c = msg.payload.category();
        if self.rng.gen_bool(self.plan.drop.rate(c)) {
            stats.record_fault(FaultKind::Drop, c);
            return FaultDecision::Drop;
        }
        if self.rng.gen_bool(self.plan.duplicate.rate(c)) {
            stats.record_fault(FaultKind::Duplicate, c);
            return FaultDecision::Duplicate;
        }
        if self.rng.gen_bool(self.plan.delay.rate(c)) {
            stats.record_fault(FaultKind::Delay, c);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "bounded() returns < max_delay, which is itself a u32"
            )]
            let n = 1 + bounded(&mut self.rng, self.plan.max_delay as u64) as u32;
            return FaultDecision::Delay(n);
        }
        if self.rng.gen_bool(self.plan.reorder.rate(c)) {
            stats.record_fault(FaultKind::Reorder, c);
            return FaultDecision::Reorder;
        }
        FaultDecision::Deliver
    }

    /// Decides whether a message that did arrive is unreadable at the
    /// receiver (simulated frame corruption). The substrate treats `true`
    /// as a receive-side loss it must account for.
    pub fn decide_corrupt(&mut self, category: MsgCategory, stats: &mut Stats) -> bool {
        if self.rng.gen_bool(self.plan.corrupt.rate(category)) {
            stats.record_fault(FaultKind::Corrupt, category);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, Oid, ServerId};
    use crate::msg::{Endpoint, ImageHolder, Payload};
    use crate::node::Object;
    use sdr_geom::Rect;

    fn msg() -> Message {
        Message {
            from: Endpoint::Client(ClientId(0)),
            to: Endpoint::Server(ServerId(0)),
            payload: Payload::InsertAtLeaf {
                obj: Object::new(Oid(1), Rect::new(0.0, 0.0, 1.0, 1.0)),
                trace: vec![],
                iam_to: ImageHolder::Nobody,
                initial: true,
            },
        }
    }

    #[test]
    fn noop_plan_always_delivers() {
        let mut inj = FaultPlan::none().injector(1);
        let mut stats = Stats::new();
        for _ in 0..1_000 {
            assert_eq!(inj.decide(&msg(), &mut stats), FaultDecision::Deliver);
            assert!(!inj.decide_corrupt(MsgCategory::Insert, &mut stats));
        }
        assert_eq!(stats.faults_total(), 0);
        assert!(FaultPlan::none().is_noop());
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let plan = FaultPlan::none()
            .with_drop(0.1)
            .with_dup(0.1)
            .with_delay(0.1)
            .with_reorder(0.1)
            .with_max_delay(4);
        let mut a = plan.injector(42);
        let mut b = plan.injector(42);
        let (mut sa, mut sb) = (Stats::new(), Stats::new());
        for _ in 0..5_000 {
            assert_eq!(a.decide(&msg(), &mut sa), b.decide(&msg(), &mut sb));
        }
        assert_eq!(sa.fault_counters(), sb.fault_counters());
        assert!(sa.faults_total() > 0, "rates of 0.1 must fire in 5k draws");
    }

    #[test]
    fn category_override_beats_base_rate() {
        let plan = FaultPlan::none()
            .with_drop(1.0)
            .with_drop_for(MsgCategory::Insert, 0.0);
        let mut inj = plan.injector(7);
        let mut stats = Stats::new();
        // msg() is Insert-category: the 0.0 override wins over base 1.0.
        for _ in 0..100 {
            assert_eq!(inj.decide(&msg(), &mut stats), FaultDecision::Deliver);
        }
        assert_eq!(stats.faults_total(), 0);
    }

    #[test]
    fn rates_track_probability() {
        let plan = FaultPlan::none().with_drop(0.25);
        let mut inj = plan.injector(9);
        let mut stats = Stats::new();
        let n = 10_000;
        for _ in 0..n {
            inj.decide(&msg(), &mut stats);
        }
        let drops = stats.fault(FaultKind::Drop);
        assert!(
            (2_200..2_800).contains(&drops),
            "expected ~2500 drops, got {drops}"
        );
        assert_eq!(stats.fault_in(FaultKind::Drop, MsgCategory::Insert), drops);
        assert_eq!(stats.fault_in(FaultKind::Drop, MsgCategory::Query), 0);
    }

    #[test]
    fn delay_bounds_respected() {
        let plan = FaultPlan::none().with_delay(1.0).with_max_delay(5);
        let mut inj = plan.injector(3);
        let mut stats = Stats::new();
        for _ in 0..1_000 {
            match inj.decide(&msg(), &mut stats) {
                FaultDecision::Delay(n) => assert!((1..=5).contains(&n)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
