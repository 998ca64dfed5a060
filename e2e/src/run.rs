//! Set-up, the timed closed loop, and verification of one repetition.

use crate::adapters::{Driver, Op, Rect, Sim, Tcp, TcpClient};
use crate::oracle::{digest_hits, Digest, Oracle, Outcome};
use crate::workloads::{Phase, Plan, Spec, Substrate, DATASET_SEED};
use std::time::Instant;

pub const KINDS: [&str; 6] = ["insert", "delete", "point", "window", "knn", "move"];

pub fn kind_of(op: &Op) -> usize {
    match op {
        Op::Insert(_) => 0,
        Op::Delete(_) => 1,
        Op::Point(_) => 2,
        Op::Window(_) => 3,
        Op::Knn(_) => 4,
        Op::Move { .. } => 5,
    }
}

/// The system under test, ready for a repetition.
pub enum State {
    Sim(Box<Sim>),
    Tcp {
        net: Tcp,
        writer: TcpClient,
        readers: Vec<TcpClient>,
    },
}

/// Builds fresh state: the structure with its preload, and the clients.
/// `tap` installs the message tap first, so that set-up splits are seen.
pub fn setup(spec: &Spec, plan: &Plan, tap: bool) -> Result<State, String> {
    match spec.substrate {
        Substrate::Sim(routing) => {
            // The client's seed picks IMSERVER contact servers, which
            // shapes the structure: pinned (see `DATASET_SEED`).
            let mut sim = Box::new(Sim::new(spec.capacity, routing, DATASET_SEED));
            if tap {
                sim.install_tap();
            }
            for o in &plan.preload {
                sim.apply(&Op::Insert(*o));
            }
            Ok(State::Sim(sim))
        }
        Substrate::Tcp => {
            let net = Tcp::launch(spec.capacity)?;
            let mut writer = net.client()?;
            for o in &plan.preload {
                writer.apply(&Op::Insert(*o));
            }
            let threads = plan.phases.iter().map(|p| p.threads).max().unwrap_or(1);
            let readers = (0..threads)
                .map(|_| net.client())
                .collect::<Result<Vec<_>, _>>()?;
            Ok(State::Tcp {
                net,
                writer,
                readers,
            })
        }
    }
}

/// Brings the client to its starting point for a repetition: on the
/// simulator a fresh client whose image the warm-up queries converge, so
/// that repetitions on one structure are identical.
pub fn prepare_rep(spec: &Spec, plan: &Plan, state: &mut State) {
    if let (State::Sim(sim), Substrate::Sim(routing)) = (state, spec.substrate) {
        sim.fresh_client(routing, DATASET_SEED);
        for op in &plan.warm {
            sim.apply(op);
        }
    }
}

/// One timed call and what it returned.
pub struct Timed {
    pub us: f64,
    pub outcome: Outcome,
}

/// What a repetition measured.
pub struct Rep {
    /// Per phase, per operation, in plan order.
    pub timed: Vec<Vec<Timed>>,
    pub phase_wall_s: Vec<f64>,
    /// Server-addressed messages (simulator only).
    pub msgs: Option<u64>,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.phase_wall_s.iter().sum()
    }

    pub fn ops(&self) -> usize {
        self.timed.iter().map(Vec::len).sum()
    }
}

/// The closed loop: the next call is issued when the previous returns.
/// The clock brackets the public client call alone; reducing the answer
/// to a digest happens after the clock has stopped.
fn drive<D: Driver>(d: &mut D, ops: &[Op], every: usize, offset: usize) -> Vec<(usize, Timed)> {
    let mut out = Vec::with_capacity(ops.len() / every + 1);
    for (i, op) in ops.iter().enumerate().skip(offset).step_by(every) {
        let t0 = Instant::now();
        let answer = d.apply(op);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        out.push((
            i,
            Timed {
                us,
                outcome: Outcome::of(answer),
            },
        ));
    }
    out
}

fn run_phase(state: &mut State, phase: &Phase) -> (Vec<Timed>, f64) {
    let t0 = Instant::now();
    let mut parts: Vec<(usize, Timed)> = match state {
        State::Sim(sim) => drive(sim.as_mut(), &phase.ops, 1, 0),
        State::Tcp { writer, .. } if phase.threads == 1 => drive(writer, &phase.ops, 1, 0),
        State::Tcp { readers, .. } => std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .iter_mut()
                .take(phase.threads)
                .enumerate()
                .map(|(t, client)| s.spawn(move || drive(client, &phase.ops, phase.threads, t)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a reader thread panicked"))
                .collect()
        }),
    };
    let wall = t0.elapsed().as_secs_f64();
    parts.sort_by_key(|(i, _)| *i);
    (parts.into_iter().map(|(_, t)| t).collect(), wall)
}

pub fn measure(state: &mut State, plan: &Plan) -> Rep {
    let msgs_before = match state {
        State::Sim(sim) => Some(sim.msgs_total()),
        State::Tcp { .. } => None,
    };
    let mut rep = Rep {
        timed: Vec::new(),
        phase_wall_s: Vec::new(),
        msgs: None,
    };
    for phase in &plan.phases {
        let (timed, wall) = run_phase(state, phase);
        rep.timed.push(timed);
        rep.phase_wall_s.push(wall);
    }
    if let (State::Sim(sim), Some(before)) = (&*state, msgs_before) {
        rep.msgs = Some(sim.msgs_total() - before);
    }
    rep
}

/// The oracle holding what `plan` has stored before its first phase.
pub fn oracle_for(plan: &Plan) -> Oracle {
    let mut oracle = Oracle::new();
    for o in &plan.preload {
        oracle.insert(*o);
    }
    oracle
}

/// Replays the repetition on `oracle` in issue order and counts the
/// operations whose answer was wrong or missing.
pub fn wrong_answers(plan: &Plan, rep: &Rep, oracle: &mut Oracle) -> usize {
    let mut wrong = 0;
    for (phase, timed) in plan.phases.iter().zip(&rep.timed) {
        for (op, t) in phase.ops.iter().zip(timed) {
            if !oracle.check(op, &t.outcome) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// What the system stores now, read back through it: every data node on
/// the simulator, a full-space window query over TCP. `Err` says what
/// could not be checked.
pub fn stored(state: &mut State) -> Result<Digest, String> {
    match state {
        State::Sim(sim) => {
            let digest = Digest::of(sim.all_objects().into_iter());
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.check_invariants()))
                .map_err(|_| "structural invariant broken".to_string())?;
            Ok(digest)
        }
        State::Tcp { writer, .. } => {
            match writer.apply(&Op::Window(Rect::new(0.0, 0.0, 1.0, 1.0))) {
                crate::adapters::Answer::Hits(h) => Ok(digest_hits(&h)),
                _ => Err("full-space window query failed".to_string()),
            }
        }
    }
}

pub fn teardown(state: State) {
    if let State::Tcp { net, .. } = state {
        net.shutdown();
    }
}
