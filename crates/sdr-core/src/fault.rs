//! Deterministic message-fault injection: the one place that runs a
//! fault plan.
//!
//! The paper's evaluation assumes lossless, ordered point-to-point
//! delivery (§5) and leaves fault tolerance explicitly open (§6). This
//! module is the controlled way to leave that ideal. A [`FaultPlan`]
//! gives, per [`MsgCategory`], the probability that a message is
//! dropped, duplicated, delayed by 1..=`max_delay` events, reordered
//! (held for one event, so its successor overtakes it) or corrupted at
//! the receiver.
//!
//! A `FaultExecutor` is the only code that runs a plan. It draws every
//! decision from a forked `sdr_det` RNG, counts every injected fault in
//! its [`FaultCounts`], and keeps delayed and reordered messages in its
//! held lane until enough events have passed. A chaos run is therefore a
//! pure function of `(workload seed, fault seed)`: bit-reproducible,
//! shrinkable, and comparable across replays. Without a plan, a cluster
//! holds `FaultExecutor::none`, which delivers everything once and draws
//! nothing.
//!
//! One loop acts on its verdicts: `Cluster::drain_with`, which the
//! simulator and the runner of the TCP deployment both run. It asks
//! `FaultExecutor::decide_delivery` once per message, when its turn
//! takes it off the queue, and ticks the held lane once per delivered
//! message. So one plan and seed inject the same faults on both
//! substrates (DESIGN.md decision 8).
//!
//! The executor also keeps the deferred lane (`Outbox::deferred`, an
//! elimination's orphan reinserts). The loop calls
//! `FaultExecutor::release_idle` once nothing else is left to deliver:
//! it releases the oldest deferred message alone, which is then sent
//! like any fresh message, or else the whole held lane. So a held
//! message is late but never lost, and a reinsert starts only after the
//! repair before it has settled. Messages the executor hands back
//! (duplicate copies, released held messages) are not offered to it
//! again, so a plan with extreme rates still terminates. Fault-model guarantees
//! per class are documented in `DESIGN.md` ("fault model" decision
//! entry); the deferred lane in decision 4f.

use crate::stats::MsgCategory;
use sdr_det::{bounded, DetRng, Rng};
use std::collections::VecDeque;

/// The kinds of message fault a [`FaultPlan`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The message was discarded before delivery.
    Drop,
    /// The message was delivered twice.
    Duplicate,
    /// The message was held back for 1..=`max_delay` events.
    Delay,
    /// The message was held back for one event.
    Reorder,
    /// The message arrived but was unreadable at the receiver (simulated
    /// frame corruption; a loss at the receive side).
    Corrupt,
}

impl FaultKind {
    /// All fault kinds, for iteration/reporting.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Delay,
        FaultKind::Reorder,
        FaultKind::Corrupt,
    ];

    /// Stable display name, used for trace events.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "dup",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
            FaultKind::Corrupt => "corrupt",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-category probability table: a base rate plus optional per-category
/// overrides.
#[derive(Clone, Copy, Debug, Default)]
struct Rates {
    base: f64,
    per: [Option<f64>; 9],
}

/// A declarative description of the faults to inject.
///
/// All probabilities default to zero; [`FaultPlan::none`] is a no-op
/// plan. Builder methods set a base rate for every category
/// (`with_drop(0.01)`) or override one category
/// (`with_drop_for(MsgCategory::Reply, 0.3)`).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Indexed by [`FaultKind`].
    rates: [Rates; 5],
    /// Upper bound (inclusive) of the event-count delay drawn for a
    /// delayed message.
    max_delay: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            rates: [Rates::default(); 5],
            max_delay: 3,
        }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "`rates` is sized to the FaultKind count and `per` to the MsgCategory count; index() maps each variant below it"
)]
impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    fn set(mut self, kind: FaultKind, category: Option<MsgCategory>, p: f64) -> Self {
        let rates = &mut self.rates[kind.index()];
        match category {
            None => rates.base = p,
            Some(c) => rates.per[c.index()] = Some(p),
        }
        self
    }

    fn rate(&self, kind: FaultKind, c: MsgCategory) -> f64 {
        let rates = &self.rates[kind.index()];
        rates.per[c.index()].unwrap_or(rates.base)
    }

    /// Sets the maximum event-count delay (clamped to at least 1).
    pub fn with_max_delay(mut self, n: u32) -> Self {
        self.max_delay = n.max(1);
        self
    }
}

macro_rules! rate_setters {
    ($($kind:ident => $all:ident, $for_one:ident);* $(;)?) => {
        impl FaultPlan {$(
            /// Sets the base probability of this fault for every category.
            pub fn $all(self, p: f64) -> Self {
                self.set(FaultKind::$kind, None, p)
            }

            /// Overrides the probability of this fault for one category.
            pub fn $for_one(self, c: MsgCategory, p: f64) -> Self {
                self.set(FaultKind::$kind, Some(c), p)
            }
        )*}
    };
}

rate_setters! {
    Drop => with_drop, with_drop_for;
    Duplicate => with_dup, with_dup_for;
    Delay => with_delay, with_delay_for;
    Reorder => with_reorder, with_reorder_for;
    Corrupt => with_corrupt, with_corrupt_for;
}

/// Stream id reserved for fault decisions, so a chaos harness can share
/// one master seed between the workload and the fault layer without the
/// two streams aliasing.
const FAULT_STREAM: u64 = 0xFA17;

/// Injected faults, per [`FaultKind`] and [`MsgCategory`]. All zero
/// unless a fault plan is installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts([[u64; 9]; 5]);

#[expect(
    clippy::indexing_slicing,
    reason = "the table is sized to the FaultKind × MsgCategory counts and index() maps each variant below them"
)]
impl FaultCounts {
    /// Injected faults of one kind in one category.
    pub fn get(&self, kind: FaultKind, category: MsgCategory) -> u64 {
        self.0[kind.index()][category.index()]
    }

    /// Injected faults of one kind, across all categories.
    pub fn of(&self, kind: FaultKind) -> u64 {
        self.0[kind.index()].iter().sum()
    }

    /// Injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.0.iter().flatten().sum()
    }

    fn record(&mut self, kind: FaultKind, category: MsgCategory) {
        self.0[kind.index()][category.index()] += 1;
    }
}

/// What the delivery loop does with one message offered to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver this many copies: 1, or 2 for an injected duplicate.
    Deliver(u32),
    /// The message is gone: dropped, or corrupted at the receiver.
    Lost(FaultKind),
    /// Hand the message to [`FaultExecutor::hold`] for this many events
    /// (a delay, or a one-event reorder).
    Held(FaultKind, u32),
}

/// What [`FaultExecutor::release_idle`] hands the delivery loop with
/// nothing left to deliver.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Released<T> {
    /// The oldest deferred message, alone: the substrate sends it like
    /// any fresh message, so it meets the plan like one.
    Deferred(T),
    /// Every held message, oldest first (none: the executor is empty).
    /// They are not offered to the executor again.
    Held(Vec<T>),
}

/// The executor of a [`FaultPlan`]: the plan, its forked deterministic
/// RNG, the fault counters, the held-message lane and the deferred lane.
/// `T` is what the delivery loop delivers, the cluster's envelope.
/// Verdicts are a pure function of the construction seed and the
/// sequence of categories offered. A cluster always holds one;
/// [`FaultExecutor::none`] is the fault-free substrate.
#[derive(Debug)]
pub(crate) struct FaultExecutor<T> {
    plan: FaultPlan,
    rng: Rng,
    /// False only for [`FaultExecutor::none`], which draws nothing.
    live: bool,
    counts: FaultCounts,
    /// Held messages, oldest first, each with the number of events still
    /// to pass before it is released.
    held: Vec<(T, u32)>,
    /// Deferred messages, oldest first (see [`FaultExecutor::defer`]).
    deferred: VecDeque<T>,
}

impl<T> FaultExecutor<T> {
    /// An executor running `plan`, its decisions drawn from `seed`.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultExecutor {
            plan: plan.clone(),
            rng: Rng::seed_from_u64(seed).fork(FAULT_STREAM),
            live: true,
            counts: FaultCounts::default(),
            held: Vec::new(),
            deferred: VecDeque::new(),
        }
    }

    /// The fault-free executor: every verdict is `Deliver(1)`, no
    /// corrupt draw fires, and no RNG draw is taken. It still keeps the
    /// deferred lane.
    pub fn none() -> Self {
        FaultExecutor {
            live: false,
            ..Self::new(&FaultPlan::none(), 0)
        }
    }

    /// The verdict on delivering a message of category `c`, the one draw
    /// point of the delivery loop. Drop, duplicate, delay (then its length)
    /// and reorder are drawn in that order, and the first that fires
    /// decides; a plain delivery then draws corrupt, a loss at the
    /// receiver.
    pub fn decide_delivery(&mut self, c: MsgCategory) -> Verdict {
        let verdict = self.decide(c);
        if verdict == Verdict::Deliver(1) && self.live && self.draw(FaultKind::Corrupt, c) {
            return Verdict::Lost(FaultKind::Corrupt);
        }
        verdict
    }

    /// The verdict before the corrupt draw.
    fn decide(&mut self, c: MsgCategory) -> Verdict {
        if !self.live {
            return Verdict::Deliver(1);
        }
        if self.draw(FaultKind::Drop, c) {
            return Verdict::Lost(FaultKind::Drop);
        }
        if self.draw(FaultKind::Duplicate, c) {
            return Verdict::Deliver(2);
        }
        if self.draw(FaultKind::Delay, c) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "bounded() returns < max_delay, which is itself a u32"
            )]
            let n = 1 + bounded(&mut self.rng, u64::from(self.plan.max_delay)) as u32;
            return Verdict::Held(FaultKind::Delay, n);
        }
        if self.draw(FaultKind::Reorder, c) {
            return Verdict::Held(FaultKind::Reorder, 1);
        }
        Verdict::Deliver(1)
    }

    fn draw(&mut self, kind: FaultKind, c: MsgCategory) -> bool {
        let fired = self.rng.gen_bool(self.plan.rate(kind, c));
        if fired {
            self.counts.record(kind, c);
        }
        fired
    }

    /// Takes a message a [`Verdict::Held`] named, for `events` events.
    pub fn hold(&mut self, item: T, events: u32) {
        self.held.push((item, events));
    }

    /// One event has passed: returns the held messages whose time is up,
    /// oldest first.
    pub fn tick(&mut self) -> Vec<T> {
        self.held
            .extract_if(.., |(_, n)| {
                *n = n.saturating_sub(1);
                *n == 0
            })
            .map(|(item, _)| item)
            .collect()
    }

    /// Takes a message for the deferred lane, behind the ones already
    /// there. [`release_idle`](Self::release_idle) hands them back one
    /// at a time, each only once nothing else is in flight.
    pub fn defer(&mut self, item: T) {
        self.deferred.push_back(item);
    }

    /// What the loop sends next once nothing is left to deliver: the
    /// oldest deferred message alone, or else the whole held lane.
    ///
    /// One deferred message at a time lets everything it causes settle
    /// before the next starts. Releasing the lane FIFO instead lets
    /// reinserts overtake a gathered rotation's repair (DESIGN.md 4f).
    pub fn release_idle(&mut self) -> Released<T> {
        match self.deferred.pop_front() {
            Some(item) => Released::Deferred(item),
            None => Released::Held(self.held.drain(..).map(|(item, _)| item).collect()),
        }
    }

    /// The faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INSERT: MsgCategory = MsgCategory::Insert;

    #[test]
    fn noop_plan_always_delivers() {
        let mut exec = FaultExecutor::<()>::new(&FaultPlan::none(), 1);
        for _ in 0..1_000 {
            assert_eq!(exec.decide_delivery(INSERT), Verdict::Deliver(1));
        }
        assert_eq!(exec.counts().total(), 0);
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let plan = FaultPlan::none()
            .with_drop(0.1)
            .with_dup(0.1)
            .with_delay(0.1)
            .with_reorder(0.1)
            .with_corrupt(0.1)
            .with_max_delay(4);
        let mut a = FaultExecutor::<()>::new(&plan, 42);
        let mut b = FaultExecutor::<()>::new(&plan, 42);
        for _ in 0..5_000 {
            assert_eq!(a.decide_delivery(INSERT), b.decide_delivery(INSERT));
        }
        assert_eq!(a.counts(), b.counts());
        for kind in FaultKind::ALL {
            assert!(a.counts().of(kind) > 0, "{kind:?} never fired in 5k draws");
        }
    }

    #[test]
    fn category_override_beats_base_rate() {
        let plan = FaultPlan::none().with_drop(1.0).with_drop_for(INSERT, 0.0);
        let mut exec = FaultExecutor::<()>::new(&plan, 7);
        for _ in 0..100 {
            assert_eq!(exec.decide(INSERT), Verdict::Deliver(1));
        }
        assert_eq!(exec.counts().total(), 0);
        assert_eq!(
            exec.decide(MsgCategory::Query),
            Verdict::Lost(FaultKind::Drop)
        );
    }

    #[test]
    fn rates_track_probability() {
        let plan = FaultPlan::none().with_drop(0.25);
        let mut exec = FaultExecutor::<()>::new(&plan, 9);
        for _ in 0..10_000 {
            exec.decide(INSERT);
        }
        let counts = exec.counts();
        let drops = counts.of(FaultKind::Drop);
        assert!(
            (2_200..2_800).contains(&drops),
            "expected ~2500 drops, got {drops}"
        );
        assert_eq!(counts.get(FaultKind::Drop, INSERT), drops);
        assert_eq!(counts.get(FaultKind::Drop, MsgCategory::Query), 0);
        assert_eq!(counts.total(), drops);
    }

    #[test]
    fn delay_bounds_respected() {
        let plan = FaultPlan::none().with_delay(1.0).with_max_delay(5);
        let mut exec = FaultExecutor::<()>::new(&plan, 3);
        for _ in 0..1_000 {
            match exec.decide(INSERT) {
                Verdict::Held(FaultKind::Delay, n) => assert!((1..=5).contains(&n)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn held_messages_leave_after_their_events_oldest_first() {
        let mut exec = FaultExecutor::new(&FaultPlan::none(), 0);
        exec.hold('a', 2);
        exec.hold('b', 1);
        exec.hold('c', 2);
        exec.hold('d', 3);
        assert_eq!(exec.tick(), ['b']);
        assert_eq!(exec.tick(), ['a', 'c']);
        exec.hold('e', 5);
        assert_eq!(exec.release_idle(), Released::Held(vec!['d', 'e']));
        assert!(exec.tick().is_empty());
    }

    #[test]
    fn reorder_is_a_one_event_hold() {
        let plan = FaultPlan::none().with_reorder(1.0);
        let mut exec = FaultExecutor::new(&plan, 5);
        assert_eq!(exec.decide(INSERT), Verdict::Held(FaultKind::Reorder, 1));
        exec.hold("first", 1);
        assert_eq!(exec.tick(), ["first"]);
        assert_eq!(exec.counts().get(FaultKind::Reorder, INSERT), 1);
    }

    #[test]
    fn idle_release_sends_one_deferred_message_before_the_held_lane() {
        let mut exec = FaultExecutor::new(&FaultPlan::none(), 0);
        exec.hold('h', 4);
        exec.defer('a');
        exec.hold('i', 1);
        exec.defer('b');
        assert_eq!(exec.release_idle(), Released::Deferred('a'));
        exec.defer('c');
        assert_eq!(exec.release_idle(), Released::Deferred('b'));
        assert_eq!(exec.release_idle(), Released::Deferred('c'));
        assert_eq!(exec.release_idle(), Released::Held(vec!['h', 'i']));
        assert_eq!(exec.release_idle(), Released::Held(vec![]));
    }

    #[test]
    fn none_executor_delivers_once_and_counts_nothing() {
        let mut exec = FaultExecutor::<()>::none();
        for c in MsgCategory::ALL {
            assert_eq!(exec.decide(c), Verdict::Deliver(1));
            assert_eq!(exec.decide_delivery(c), Verdict::Deliver(1));
        }
        assert_eq!(exec.counts().total(), 0);
        assert_eq!(
            exec.rng,
            FaultExecutor::<()>::none().rng,
            "a draw was taken"
        );
    }
}
