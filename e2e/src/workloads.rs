//! The four workloads: what each one sets up, what it measures, and why
//! it exists. Names are final; later issues cite them.

use crate::adapters::{
    gen_moves, gen_points, gen_rects, gen_windows, DetRng, Dist, Obj, Op, Rng, Routing,
};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Substrate {
    /// The in-process simulator, one client of this variant.
    Sim(Routing),
    /// A loopback TCP deployment with `NetClient`s.
    Tcp,
}

/// Operations of one measured repetition, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mix {
    pub insert: usize,
    pub delete: usize,
    pub point: usize,
    pub window: usize,
    pub knn: usize,
    pub moves: usize,
}

impl Mix {
    pub fn total(&self) -> usize {
        self.insert + self.delete + self.point + self.window + self.knn + self.moves
    }

    fn scaled(self, div: usize) -> Mix {
        let s = |n: usize| if n == 0 { 0 } else { (n / div).max(20) };
        Mix {
            insert: s(self.insert),
            delete: s(self.delete),
            point: s(self.point),
            window: s(self.window),
            knn: s(self.knn),
            moves: s(self.moves),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for BENCHMARK.json and the run header.
    pub why: &'static str,
    pub substrate: Substrate,
    pub dist: Dist,
    /// Objects a data node holds before it splits.
    pub capacity: usize,
    /// Objects inserted during set-up, before anything is measured.
    pub preload: usize,
    /// Queries run during set-up so the image has converged.
    pub warm_queries: usize,
    pub mix: Mix,
    /// Measured repetitions per set-up: more than one only where the
    /// measured operations leave the structure as they found it.
    pub reps_per_setup: usize,
}

/// Sizes are for a 2-core box and a 25 s measuring budget per run: a
/// repetition takes 0.5–1 s on the simulator and 3 s over sockets, so a
/// run holds two to four dozen of the former and eight of the latter.
/// They are a quarter to a half of the sizes the issue sketched, with
/// capacity shrunk alongside so the distributed trees keep their shape
/// (≈90 servers, height 7 on the uniform simulator workloads).
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sim_grow_uniform",
        why: "simulator, ImClient, uniform: 100k inserts from empty at capacity 1500 (~95 servers); splits, height adjust, rotations and OC upkeep do the work, queries do nothing",
        substrate: Substrate::Sim(Routing::ImClient),
        dist: Dist::Uniform,
        capacity: 1500,
        preload: 0,
        warm_queries: 0,
        mix: Mix { insert: 100_000, delete: 0, point: 0, window: 0, knn: 0, moves: 0 },
        reps_per_setup: 1,
    },
    Spec {
        name: "sim_query_uniform",
        why: "simulator, ImClient: static 100k-object tree, warmed image, 20k point + 20k window + 5k kNN-10; local R-tree descent dominates, structural code idle",
        substrate: Substrate::Sim(Routing::ImClient),
        dist: Dist::Uniform,
        capacity: 1500,
        preload: 100_000,
        warm_queries: 2_000,
        mix: Mix { insert: 0, delete: 0, point: 20_000, window: 20_000, knn: 5_000, moves: 0 },
        reps_per_setup: 7,
    },
    Spec {
        name: "sim_churn_skewed",
        why: "simulator, ImServer, 30k clustered objects at capacity 500, 4k mixed ops: writes beside reads, overlapping rectangles, message amplification, stale images; R-tree share is minor",
        substrate: Substrate::Sim(Routing::ImServer),
        dist: Dist::Skewed,
        capacity: 500,
        preload: 30_000,
        warm_queries: 0,
        mix: Mix { insert: 1_200, delete: 800, point: 1_000, window: 800, knn: 40, moves: 160 },
        reps_per_setup: 1,
    },
    Spec {
        name: "tcp_mixed_uniform",
        why: "loopback TCP, capacity 60: 300 inserts, 900 queries over two reader threads, 100 deletes; connect-per-frame, codec, handle_lock and polling dominate, trees are tiny",
        substrate: Substrate::Tcp,
        dist: Dist::Uniform,
        capacity: 60,
        preload: 0,
        warm_queries: 0,
        mix: Mix { insert: 300, delete: 100, point: 400, window: 400, knn: 100, moves: 0 },
        reps_per_setup: 1,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The `--smoke` variant: every count ≈20× smaller, same code paths.
    pub fn smoke(mut self) -> Spec {
        self.capacity = (self.capacity / 20).max(10);
        self.preload /= 20;
        self.warm_queries /= 20;
        self.mix = self.mix.scaled(20);
        self.reps_per_setup = self.reps_per_setup.min(2);
        self
    }
}

/// A stretch of the measured repetition run by `threads` clients, each
/// taking every `threads`-th operation.
pub struct Phase {
    pub name: &'static str,
    pub threads: usize,
    pub ops: Vec<Op>,
}

/// What shapes the structure is drawn from this seed whatever `--seed`
/// says: stored datasets, the order they are inserted in, every write of
/// a measured repetition, and the contact choices of an IMSERVER client.
/// The distributed tree decides nearly everything measured. Across ten
/// dataset seeds `sim_churn_skewed` ranged from 14 to 519 messages per
/// operation and from 1000 to 17800 operations per second; with the
/// dataset pinned and only the contact choices left to the seed, its
/// peak memory still ranged from 23 to 41 MB, because a handful of
/// operations that fan out to tens of thousands of messages carry every
/// mean. A bound of a quarter cannot be met across such inputs, so a
/// run's seed chooses only what leaves the structure alone: the query
/// points, windows and kNN points of `sim_query_uniform` and of the read
/// phase of `tcp_mixed_uniform`, and the objects the latter deletes.
/// `sim_grow_uniform` and `sim_churn_skewed` read nothing from it.
pub const DATASET_SEED: u64 = 2007;

/// Everything a repetition needs, generated from the seed alone.
pub struct Plan {
    pub preload: Vec<Obj>,
    pub warm: Vec<Op>,
    pub phases: Vec<Phase>,
}

impl Plan {
    /// The measured operations, phase after phase.
    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.phases.iter().flat_map(|p| p.ops.iter())
    }

    /// Every object the plan ever stores: the preload, then the inserts.
    pub fn stored(&self) -> impl Iterator<Item = Obj> + '_ {
        let inserted = self.ops().filter_map(|op| match op {
            Op::Insert(o) => Some(*o),
            _ => None,
        });
        self.preload.iter().copied().chain(inserted)
    }
}

fn objects(rects: Vec<crate::adapters::Rect>, first_id: u64) -> Vec<Obj> {
    rects
        .into_iter()
        .zip(first_id..)
        .map(|(rect, id)| Obj { id, rect })
        .collect()
}

/// Point, window and kNN operations in one seeded shuffle.
fn queries(mix: &Mix, seed: u64, rng: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = Vec::with_capacity(mix.point + mix.window + mix.knn);
    ops.extend(
        gen_points(mix.point, seed ^ 0x501)
            .into_iter()
            .map(Op::Point),
    );
    ops.extend(
        gen_windows(mix.window, seed ^ 0x502)
            .into_iter()
            .map(Op::Window),
    );
    ops.extend(gen_points(mix.knn, seed ^ 0x503).into_iter().map(Op::Knn));
    rng.shuffle(&mut ops);
    ops
}

pub fn plan(spec: &Spec, seed: u64) -> Plan {
    let mut rng = Rng::seed_from_u64(seed ^ 0xe2e);
    let mut pinned = Rng::seed_from_u64(DATASET_SEED ^ 0xe2e);
    match spec.name {
        "sim_grow_uniform" => {
            let objs = objects(gen_rects(spec.dist, spec.mix.insert, DATASET_SEED), 0);
            Plan {
                preload: Vec::new(),
                warm: Vec::new(),
                phases: vec![Phase {
                    name: "grow",
                    threads: 1,
                    ops: objs.into_iter().map(Op::Insert).collect(),
                }],
            }
        }
        "sim_query_uniform" => {
            let warm_mix = Mix {
                point: spec.warm_queries / 2,
                window: spec.warm_queries / 2,
                ..Mix::default()
            };
            Plan {
                preload: objects(gen_rects(spec.dist, spec.preload, DATASET_SEED), 0),
                warm: queries(&warm_mix, seed ^ 0x3a3a, &mut rng),
                phases: vec![Phase {
                    name: "query",
                    threads: 1,
                    ops: queries(&spec.mix, seed, &mut rng),
                }],
            }
        }
        "sim_churn_skewed" => churn(spec, &mut pinned),
        "tcp_mixed_uniform" => {
            let objs = objects(gen_rects(spec.dist, spec.mix.insert, DATASET_SEED), 0);
            // Uniform points would almost never hit 1000 small objects:
            // ask for the centres of stored ones instead.
            let mut read: Vec<Op> = (0..spec.mix.point)
                .map(|_| Op::Point(objs[rng.gen_range(0..objs.len())].rect.center()))
                .collect();
            read.extend(
                gen_windows(spec.mix.window, seed ^ 0x502)
                    .into_iter()
                    .map(Op::Window),
            );
            read.extend(
                gen_points(spec.mix.knn, seed ^ 0x503)
                    .into_iter()
                    .map(Op::Knn),
            );
            rng.shuffle(&mut read);
            let mut victims = objs.clone();
            rng.shuffle(&mut victims);
            victims.truncate(spec.mix.delete);
            Plan {
                preload: Vec::new(),
                warm: Vec::new(),
                phases: vec![
                    Phase {
                        name: "write",
                        threads: 1,
                        ops: objs.into_iter().map(Op::Insert).collect(),
                    },
                    Phase {
                        name: "read",
                        threads: 2,
                        ops: read,
                    },
                    Phase {
                        name: "delete",
                        threads: 1,
                        ops: victims.into_iter().map(Op::Delete).collect(),
                    },
                ],
            }
        }
        other => panic!("no plan for workload {other}"),
    }
}

/// The fixed mix of `sim_churn_skewed`, pinned like its dataset: every
/// delete and move names an object that is live when its turn comes.
fn churn(spec: &Spec, rng: &mut Rng) -> Plan {
    let mix = &spec.mix;
    let fleet = (mix.moves / 4).max(1);
    let (fleet_start, moves) = gen_moves(fleet, mix.moves, DATASET_SEED ^ 0x0f1e);
    let statics = spec.preload - fleet.min(spec.preload);
    // One draw for the stored objects and the ones to come, so that new
    // arrivals fall into the same clusters.
    let mut rects = gen_rects(spec.dist, statics + mix.insert, DATASET_SEED);
    let mut arrivals = rects.split_off(statics);
    rng.shuffle(&mut arrivals);
    let mut preload = objects(rects, 0);
    let fleet_base = preload.len() as u64;
    let mut fleet_now = objects(fleet_start, fleet_base);
    preload.extend(fleet_now.iter().copied());
    let mut fresh = objects(arrivals, fleet_base + fleet as u64).into_iter();
    let mut moves = moves.into_iter();
    let mut windows = gen_windows(mix.window, DATASET_SEED ^ 0x502).into_iter();
    let mut knn_points = gen_points(mix.knn, DATASET_SEED ^ 0x503).into_iter();

    // Deletable objects: the static ones plus whatever has been inserted.
    let mut live: Vec<Obj> = preload[..statics].to_vec();
    let mut kinds: Vec<u8> = Vec::with_capacity(mix.total());
    for (kind, n) in [
        mix.insert, mix.delete, mix.point, mix.window, mix.knn, mix.moves,
    ]
    .into_iter()
    .enumerate()
    {
        kinds.extend(std::iter::repeat_n(kind as u8, n));
    }
    rng.shuffle(&mut kinds);
    let ops = kinds
        .into_iter()
        .map(|kind| match kind {
            0 => {
                let o = fresh.next().expect("one rectangle per insert");
                live.push(o);
                Op::Insert(o)
            }
            1 => Op::Delete(live.swap_remove(rng.gen_range(0..live.len()))),
            2 => Op::Point(live[rng.gen_range(0..live.len())].rect.center()),
            3 => Op::Window(windows.next().expect("one window per query")),
            4 => Op::Knn(knn_points.next().expect("one point per kNN")),
            _ => {
                let (i, old, new) = moves.next().expect("one move per op");
                let from = Obj {
                    id: fleet_now[i].id,
                    rect: old,
                };
                let to = Obj {
                    id: from.id,
                    rect: new,
                };
                fleet_now[i] = to;
                Op::Move { from, to }
            }
        })
        .collect();
    Plan {
        preload,
        warm: Vec::new(),
        phases: vec![Phase {
            name: "churn",
            threads: 1,
            ops,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, Outcome};

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for spec in SPECS.iter().map(|s| s.smoke()) {
            let (a, b, c) = (plan(&spec, 7), plan(&spec, 7), plan(&spec, 8));
            let show = |p: &Plan| {
                let ops: Vec<String> = p.phases.iter().map(|ph| format!("{:?}", ph.ops)).collect();
                format!("{:?}{:?}{ops:?}", p.preload, p.warm)
            };
            // `assert!`, not `assert_eq!`: a failure must not print a
            // megabyte of operations.
            assert!(show(&a) == show(&b), "{}: same seed, other plan", spec.name);
            // What the seed may choose (see `DATASET_SEED`).
            let seeded = matches!(spec.name, "sim_query_uniform" | "tcp_mixed_uniform");
            assert!((show(&a) != show(&c)) == seeded, "{}", spec.name);
            // The seed never touches what shapes the structure.
            assert!(a.preload == c.preload, "{}", spec.name);
            assert_eq!(a.ops().count(), spec.mix.total(), "{}", spec.name);
        }
    }

    #[test]
    fn churn_deletes_and_moves_only_live_objects() {
        let spec = spec("sim_churn_skewed").expect("known").smoke();
        let plan = plan(&spec, 3);
        let mut oracle = Oracle::new();
        for o in &plan.preload {
            oracle.insert(*o);
        }
        for op in &plan.phases[0].ops {
            // A perfect system removes exactly what the plan names.
            let perfect = match op {
                Op::Insert(_) => Outcome::Done,
                Op::Delete(_) | Op::Move { .. } => Outcome::Removed(true),
                _ => continue,
            };
            assert!(oracle.check(op, &perfect), "{op:?}");
        }
    }
}
