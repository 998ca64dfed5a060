//! The measuring run (`--trace 0`) of one workload inside one process:
//! a discarded warm-up round, then rounds of fresh state until the
//! measuring budget is spent; the fastest repetition's figures come out
//! (`stats::fastest` says why), every repetition's go to the detail.

use crate::adapters::{Json, Routing};
use crate::metrics::{Across, END_TO_END};
use crate::oracle;
use crate::run::{self, Rep};
use crate::stats::{self, num, obj, text};
use crate::workloads::{self, Plan, Spec, Substrate};
use crate::Outcome;
use std::time::Instant;

/// One statistic's value in each measured repetition.
#[derive(Default)]
struct Series(Vec<(String, Vec<Option<f64>>)>);

impl Series {
    fn push(&mut self, name: &str, v: Option<f64>) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, vs)) => vs.push(v),
            None => self.0.push((name.to_string(), vec![v])),
        }
    }

    fn get(&self, name: &str) -> Option<&[Option<f64>]> {
        let (_, vs) = self.0.iter().find(|(n, _)| n == name)?;
        Some(vs)
    }

    fn json(&self) -> Json {
        let values = |vs: &[Option<f64>]| vs.iter().map(|v| v.map_or(Json::Null, num)).collect();
        Json::Obj(
            self.0
                .iter()
                .map(|(n, vs)| (n.clone(), Json::Arr(values(vs))))
                .collect(),
        )
    }
}

/// Pushes the statistics of one repetition; returns its samples by kind.
fn record_rep(series: &mut Series, plan: &Plan, rep: &Rep, min_beyond: usize) -> Vec<usize> {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); run::KINDS.len()];
    for (phase, timed) in plan.phases.iter().zip(&rep.timed) {
        for (op, t) in phase.ops.iter().zip(timed) {
            by_kind[run::kind_of(op)].push(t.us);
        }
    }
    let counts: Vec<usize> = by_kind.iter().map(Vec::len).collect();
    let mut pooled: Vec<f64> = by_kind.iter().flatten().copied().collect();
    let (p50, p99) = stats::p50_p99(&mut pooled, min_beyond);
    series.push("lat_p50_us", p50);
    series.push("lat_p99_us", p99);
    series.push("ops_per_s", Some(rep.ops() as f64 / rep.wall_s()));
    if let Some(msgs) = rep.msgs {
        series.push("msgs_per_op", Some(msgs as f64 / rep.ops() as f64));
    }
    // Per-kind percentiles and phase rates are detail: shown where a
    // repetition has the samples, never bounded.
    for (kind, samples) in run::KINDS.iter().zip(by_kind.iter_mut()) {
        if !samples.is_empty() {
            let (p50, p99) = stats::p50_p99(samples, min_beyond);
            series.push(&format!("{kind}_p50_us"), p50);
            series.push(&format!("{kind}_p99_us"), p99);
        }
    }
    for (phase, wall) in plan.phases.iter().zip(&rep.phase_wall_s) {
        let name = format!("phase_{}_ops_per_s", phase.name);
        series.push(&name, Some(phase.ops.len() as f64 / wall));
    }
    counts
}

/// The answers of a repetition already checked against the oracle, so an
/// identical repetition (the simulator is deterministic) is checked by
/// comparison instead of a second replay.
struct Verified {
    outcomes: Vec<Vec<oracle::Outcome>>,
    wrong: usize,
    stored: oracle::Digest,
}

/// `(wrong answers, what the system must store afterwards)`.
fn verify(plan: &Plan, rep: &Rep, verified: &mut Option<Verified>) -> (usize, oracle::Digest) {
    let same = verified.as_ref().is_some_and(|v| {
        v.outcomes.len() == rep.timed.len()
            && v.outcomes
                .iter()
                .zip(&rep.timed)
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| *x == y.outcome))
    });
    if !same {
        let mut oracle = run::oracle_for(plan);
        let wrong = run::wrong_answers(plan, rep, &mut oracle);
        let outcomes = rep
            .timed
            .iter()
            .map(|p| p.iter().map(|t| t.outcome.clone()).collect())
            .collect();
        *verified = Some(Verified {
            outcomes,
            wrong,
            stored: oracle.all(),
        });
    }
    let v = verified.as_ref().expect("set above");
    (v.wrong, v.stored)
}

/// Messages per operation of `plan` replayed on a simulator twin of a
/// TCP deployment (same capacity, IMCLIENT as `NetClient` is): the
/// deployment itself does not count protocol messages.
fn twin_msgs_per_op(spec: &Spec, plan: &Plan) -> Result<f64, String> {
    let twin = Spec {
        substrate: Substrate::Sim(Routing::ImClient),
        ..*spec
    };
    let mut state = run::setup(&twin, plan, false)?;
    let rep = run::measure(&mut state, plan);
    Ok(rep.msgs.unwrap_or(0) as f64 / rep.ops() as f64)
}

/// Measures `spec` for about `budget_s` seconds of repetition wall time;
/// a smoke run makes one measured round and relaxes the percentile rule.
pub fn run(spec: &Spec, seed: u64, budget_s: f64, smoke: bool) -> Result<Outcome, String> {
    let started = Instant::now();
    let (budget_s, min_beyond) = if smoke {
        (0.0, stats::SAMPLES_BEYOND_SMOKE)
    } else {
        (budget_s, stats::SAMPLES_BEYOND)
    };
    // Stop starting rounds once the process has run this long, so a slow
    // machine degrades to fewer repetitions, not to a run that overstays
    // (set-up, warm-up and checks take 0.2 to 0.4 of the budget).
    let deadline_s = 1.4 * budget_s + 3.0;
    // Over sockets a repetition is seconds of sleeping on timers: a
    // twentieth of it warms every code path just as well.
    let warm_spec = match spec.substrate {
        Substrate::Tcp => spec.smoke(),
        Substrate::Sim(_) => *spec,
    };

    let mut series = Series::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut verified: Option<Verified> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes: Vec<String> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut measured_s = 0.0;
    let mut rounds = 0usize;
    // Round 0 is the discarded warm-up: page faults, allocator growth
    // and clock ramp-up land there. It is verified like the others.
    loop {
        let warm_up = rounds == 0;
        let spec = if warm_up { &warm_spec } else { spec };
        let t0 = Instant::now();
        let plan = workloads::plan(spec, seed);
        let mut state = run::setup(spec, &plan, false)?;
        run::prepare_rep(spec, &plan, &mut state);
        let this_setup_s = t0.elapsed().as_secs_f64();
        let reps = if warm_up { 1 } else { spec.reps_per_setup };
        let mut expect_stored = None;
        for rep_no in 0..reps {
            if rep_no > 0 {
                if measured_s >= budget_s {
                    break;
                }
                run::prepare_rep(spec, &plan, &mut state);
            }
            let faults = crate::minor_faults();
            let rep = run::measure(&mut state, &plan);
            let faults = crate::minor_faults().zip(faults).map(|(a, b)| a - b);
            let (wrong, stored) = verify(&plan, &rep, &mut verified);
            attempted += rep.ops() as u64;
            failed += wrong as u64;
            expect_stored = Some(stored);
            if !warm_up {
                measured_s += rep.wall_s();
                counts = record_rep(&mut series, &plan, &rep, min_beyond);
                series.push("minor_faults", faults);
            }
        }
        // Every insert and delete must show in what the system stores.
        attempted += 1;
        match run::stored(&mut state) {
            Ok(digest) if Some(digest) == expect_stored => {}
            Ok(_) => {
                failed += 1;
                notes.push(format!(
                    "round {rounds}: stored objects differ from the live set"
                ));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("round {rounds}: {e}"));
            }
        }
        // Tearing the structure down is the other half of setting it
        // up: a deployment that is slow to stop shows here.
        let t1 = Instant::now();
        run::teardown(state);
        drop(plan);
        if !warm_up {
            setup_s.push(this_setup_s + t1.elapsed().as_secs_f64());
        }
        rounds += 1;
        // A round is started only if most of the budget is still open.
        let spent = measured_s >= 0.8 * budget_s && rounds > 1;
        if spent || started.elapsed().as_secs_f64() >= deadline_s && rounds > 1 {
            break;
        }
    }

    // The paper's cost model must repeat exactly.
    let msgs = series.get("msgs_per_op").unwrap_or(&[]);
    if msgs
        .windows(2)
        .any(|w| w[0].map(f64::to_bits) != w[1].map(f64::to_bits))
    {
        failed += 1;
        notes.push("msgs_per_op differs between repetitions".to_string());
    }
    let twin = match spec.substrate {
        Substrate::Sim(_) => None,
        Substrate::Tcp => Some(twin_msgs_per_op(spec, &workloads::plan(spec, seed))?),
    };
    let rounds_setup: Vec<Option<f64>> = setup_s.iter().copied().map(Some).collect();
    let rss = crate::proc_status("VmHWM:").map(|kb| kb / 1024.0);

    let mut metrics = Vec::new();
    for def in END_TO_END.iter() {
        let value = match (def.name, def.across) {
            ("setup_s", _) => def.merge(&rounds_setup),
            (_, Across::Exact) if twin.is_some() => twin,
            (_, Across::Largest) => rss,
            (name, _) => def.merge(series.get(name).unwrap_or(&[])),
        };
        match value {
            Some(v) => metrics.push((def.name.to_string(), v, def.unit)),
            None => return Err(format!("{}: no value for {}", spec.name, def.name)),
        }
    }
    let samples = run::KINDS.iter().zip(&counts);
    let detail = obj(vec![
        (
            "repetitions",
            num(series.get("ops_per_s").map_or(0, <[_]>::len) as f64),
        ),
        ("rounds", num((rounds - 1) as f64)),
        ("wall_s", num(started.elapsed().as_secs_f64())),
        (
            "samples_per_repetition",
            Json::Obj(
                samples
                    .map(|(k, n)| (k.to_string(), num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "setup_s_per_round",
            Json::Arr(setup_s.iter().map(|v| num(*v)).collect()),
        ),
        ("per_repetition", series.json()),
        ("notes", Json::Arr(notes.iter().map(|n| text(n)).collect())),
    ]);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}
