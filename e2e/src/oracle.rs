//! The centralized answer oracle: a uniform grid over the live object
//! set, written here from scratch so that it shares no code with the
//! system it checks (the product's own `RTree` would make the check
//! circular: every data node is one).
//!
//! Answers are compared as digests — a count plus an order-independent
//! hash of `(id, rectangle)` — so a 500-hit window costs 16 bytes to
//! remember until verification, which runs outside the timed region.

use crate::adapters::{Answer, Hits, Obj, Op, Point, Rect, KNN_K};
use std::sync::atomic::{AtomicUsize, Ordering};

const GRID: usize = 128;

/// Count and order-independent hash of a set of objects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u32,
    pub hash: u64,
}

fn mix(mut x: u64) -> u64 {
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Digest {
    fn add(&mut self, o: &Obj) {
        let r = &o.rect;
        let mut h = mix(o.id);
        for c in [r.xmin, r.ymin, r.xmax, r.ymax] {
            h = mix(h ^ c.to_bits());
        }
        self.count += 1;
        self.hash = self.hash.wrapping_add(h);
    }

    pub fn of(objs: impl Iterator<Item = Obj>) -> Digest {
        let mut d = Digest::default();
        for o in objs {
            d.add(&o);
        }
        d
    }
}

/// What the harness keeps of an answer until it is verified.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Done,
    Removed(bool),
    Set(Digest),
    Neighbors(Vec<(u64, f64)>),
    Failed,
}

impl Outcome {
    /// Reduces an answer; run right after the timed call returns.
    pub fn of(answer: Answer) -> Outcome {
        match answer {
            Answer::Done => Outcome::Done,
            Answer::Removed(b) => Outcome::Removed(b),
            Answer::Hits(h) => Outcome::Set(digest_hits(&h)),
            Answer::Neighbors(n, _) => Outcome::Neighbors(n),
            Answer::Failed(why) => {
                // Say why, but not ten thousand times.
                static SHOWN: AtomicUsize = AtomicUsize::new(0);
                if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
                    eprintln!("e2e: operation failed: {why}");
                }
                Outcome::Failed
            }
        }
    }
}

pub fn digest_hits(h: &Hits) -> Digest {
    Digest::of(h.iter())
}

fn contains_point(r: &Rect, p: &Point) -> bool {
    r.xmin <= p.x && p.x <= r.xmax && r.ymin <= p.y && p.y <= r.ymax
}

fn intersects(a: &Rect, b: &Rect) -> bool {
    a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax && b.ymin <= a.ymax
}

fn min_dist(r: &Rect, p: &Point) -> f64 {
    let dx = (r.xmin - p.x).max(p.x - r.xmax).max(0.0);
    let dy = (r.ymin - p.y).max(p.y - r.ymax).max(0.0);
    (dx * dx + dy * dy).sqrt()
}

fn cell(c: f64) -> usize {
    ((c * GRID as f64) as isize).clamp(0, GRID as isize - 1) as usize
}

/// The live object set, indexed by a `GRID`×`GRID` grid over the unit
/// square; an object is listed in every cell its rectangle touches.
pub struct Oracle {
    cells: Vec<Vec<u64>>,
    /// Indexed by object id: workloads number their objects densely.
    live: Vec<Option<Rect>>,
    count: usize,
    /// Per-object stamp of the last query that reported it, so objects
    /// listed in several cells are counted once.
    seen: Vec<u64>,
    stamp: u64,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            cells: vec![Vec::new(); GRID * GRID],
            live: Vec::new(),
            count: 0,
            seen: Vec::new(),
            stamp: 0,
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.count
    }

    fn rect_of(&self, id: u64) -> Option<Rect> {
        self.live.get(id as usize).copied().flatten()
    }

    fn cells_of(r: &Rect) -> impl Iterator<Item = usize> {
        let (x0, x1, y0, y1) = (cell(r.xmin), cell(r.xmax), cell(r.ymin), cell(r.ymax));
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| y * GRID + x))
    }

    pub fn insert(&mut self, o: Obj) {
        let i = o.id as usize;
        if i >= self.live.len() {
            self.live.resize(i + 1, None);
            self.seen.resize(i + 1, 0);
        }
        assert!(
            self.live[i].replace(o.rect).is_none(),
            "workload bug: object {} inserted twice",
            o.id
        );
        self.count += 1;
        for c in Self::cells_of(&o.rect) {
            self.cells[c].push(o.id);
        }
    }

    /// Removes an object; whether it was live with exactly this box.
    pub fn remove(&mut self, o: &Obj) -> bool {
        if self.rect_of(o.id) != Some(o.rect) {
            return false;
        }
        self.live[o.id as usize] = None;
        self.count -= 1;
        for c in Self::cells_of(&o.rect) {
            let list = &mut self.cells[c];
            if let Some(i) = list.iter().position(|id| *id == o.id) {
                list.swap_remove(i);
            }
        }
        true
    }

    /// Every live object in the cells `region` touches that passes
    /// `keep`, each once.
    fn scan(&mut self, region: &Rect, mut keep: impl FnMut(&Rect) -> bool, mut f: impl FnMut(Obj)) {
        self.stamp += 1;
        for c in Self::cells_of(region) {
            for id in &self.cells[c] {
                let i = *id as usize;
                let rect = self.live[i].expect("cells list live objects only");
                if self.seen[i] != self.stamp && keep(&rect) {
                    self.seen[i] = self.stamp;
                    f(Obj { id: *id, rect });
                }
            }
        }
    }

    pub fn window(&mut self, w: &Rect) -> Digest {
        let mut d = Digest::default();
        self.scan(w, |r| intersects(r, w), |o| d.add(&o));
        d
    }

    pub fn point(&mut self, p: &Point) -> Digest {
        let mut d = Digest::default();
        let region = Rect::from_point(*p);
        self.scan(&region, |r| contains_point(r, p), |o| d.add(&o));
        d
    }

    pub fn all(&self) -> Digest {
        Digest::of(
            self.live
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|rect| Obj { id: i as u64, rect })),
        )
    }

    /// Checks a kNN answer: `KNN_K` live objects with their true
    /// distances, nearest first, and no live object strictly nearer than
    /// the last one left out (so any choice among ties passes).
    pub fn knn_ok(&mut self, p: &Point, answer: &[(u64, f64)]) -> bool {
        if answer.len() != KNN_K.min(self.count) {
            return false;
        }
        let mut prev = 0.0f64;
        for (id, d) in answer {
            let Some(rect) = self.rect_of(*id) else {
                return false;
            };
            if (min_dist(&rect, p) - d).abs() > 1e-9 || *d < prev {
                return false;
            }
            prev = *d;
        }
        let mut ids: Vec<u64> = answer.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        let reach = Rect::new(p.x - prev, p.y - prev, p.x + prev, p.y + prev);
        let mut ok = true;
        self.scan(
            &reach,
            |r| min_dist(r, p) < prev - 1e-9,
            |o| ok &= ids.binary_search(&o.id).is_ok(),
        );
        ok
    }

    /// Applies `op` to the live set and says whether `got` is the right
    /// answer to it. Operations must be replayed in issue order.
    pub fn check(&mut self, op: &Op, got: &Outcome) -> bool {
        match (op, got) {
            (Op::Insert(o), Outcome::Done) => {
                self.insert(*o);
                true
            }
            (Op::Delete(o), Outcome::Removed(removed)) => self.remove(o) == *removed,
            (Op::Move { from, to }, Outcome::Removed(removed)) => {
                let was_live = self.remove(from);
                self.insert(*to);
                was_live == *removed
            }
            (Op::Point(p), Outcome::Set(d)) => self.point(p) == *d,
            (Op::Window(w), Outcome::Set(d)) => self.window(w) == *d,
            (Op::Knn(p), Outcome::Neighbors(n)) => self.knn_ok(p, n),
            // A failed or mistyped answer is wrong, but the operation
            // may still have taken effect: keep the live set in step
            // with what the final-state check will find.
            (Op::Insert(o), _) => {
                self.insert(*o);
                false
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64, x: f64, y: f64) -> Obj {
        Obj {
            id,
            rect: Rect::new(x, y, x + 0.01, y + 0.01),
        }
    }

    fn grid_of_objects() -> (Oracle, Vec<Obj>) {
        let mut oracle = Oracle::new();
        let objs: Vec<Obj> = (0..400)
            .map(|i| obj(i, (i % 20) as f64 * 0.05, (i / 20) as f64 * 0.05))
            .collect();
        for o in &objs {
            oracle.insert(*o);
        }
        (oracle, objs)
    }

    #[test]
    fn grid_agrees_with_brute_force() {
        let (mut oracle, objs) = grid_of_objects();
        let w = Rect::new(0.12, 0.12, 0.41, 0.33);
        let brute = Digest::of(objs.iter().copied().filter(|o| intersects(&o.rect, &w)));
        assert!(brute.count > 0);
        assert_eq!(oracle.window(&w), brute);
        let p = Point::new(0.105, 0.105);
        let brute = Digest::of(objs.iter().copied().filter(|o| contains_point(&o.rect, &p)));
        assert_eq!(brute.count, 1);
        assert_eq!(oracle.point(&p), brute);
    }

    #[test]
    fn planted_wrong_answer_is_caught() {
        let (mut oracle, objs) = grid_of_objects();
        let w = Rect::new(0.0, 0.0, 0.2, 0.2);
        let right: Vec<Obj> = objs
            .iter()
            .copied()
            .filter(|o| intersects(&o.rect, &w))
            .collect();
        assert!(oracle.check(
            &Op::Window(w),
            &Outcome::Set(Digest::of(right.iter().copied()))
        ));
        // One hit missing.
        let short = Digest::of(right[1..].iter().copied());
        assert!(!oracle.check(&Op::Window(w), &Outcome::Set(short)));
        // Right ids, one wrong rectangle.
        let mut moved = right.clone();
        moved[0].rect = Rect::new(0.5, 0.5, 0.6, 0.6);
        assert!(!oracle.check(&Op::Window(w), &Outcome::Set(Digest::of(moved.into_iter()))));
        // A failed call is a wrong answer.
        assert!(!oracle.check(&Op::Window(w), &Outcome::Failed));
    }

    #[test]
    fn planted_lost_insert_is_caught() {
        let (mut oracle, objs) = grid_of_objects();
        let extra = obj(1000, 0.333, 0.777);
        assert!(oracle.check(&Op::Insert(extra), &Outcome::Done));
        // The system under test "lost" the insert: its final state is
        // the 400 originals only.
        assert_ne!(oracle.all(), Digest::of(objs.iter().copied()));
        let mut with_extra = objs.clone();
        with_extra.push(extra);
        assert_eq!(oracle.all(), Digest::of(with_extra.into_iter()));
    }

    #[test]
    fn delete_must_report_what_happened() {
        let (mut oracle, objs) = grid_of_objects();
        assert!(!oracle.check(&Op::Delete(objs[3]), &Outcome::Removed(false)));
        // Now it is gone, so a second delete must report false.
        assert!(oracle.check(&Op::Delete(objs[3]), &Outcome::Removed(false)));
        assert_eq!(oracle.len(), 399);
    }

    #[test]
    fn knn_check_accepts_ties_and_rejects_misses() {
        let (mut oracle, objs) = grid_of_objects();
        let p = Point::new(0.5, 0.5);
        let mut by_dist: Vec<(u64, f64)> =
            objs.iter().map(|o| (o.id, min_dist(&o.rect, &p))).collect();
        by_dist.sort_by(|a, b| a.1.total_cmp(&b.1));
        let right: Vec<(u64, f64)> = by_dist[..KNN_K].to_vec();
        assert!(oracle.knn_ok(&p, &right));
        // Swap the last neighbour for one tied with it, if any, else for
        // a farther one, which must be rejected.
        let mut other = right.clone();
        other[KNN_K - 1] = by_dist[KNN_K];
        let tied = (by_dist[KNN_K].1 - by_dist[KNN_K - 1].1).abs() < 1e-12;
        assert_eq!(oracle.knn_ok(&p, &other), tied);
        // Leaving out the nearest is always wrong.
        let mut missing = by_dist[1..=KNN_K].to_vec();
        assert!(!oracle.knn_ok(&p, &missing));
        // A wrong distance is wrong.
        missing = right.clone();
        missing[0].1 += 0.5;
        assert!(!oracle.knn_ok(&p, &missing));
    }
}
