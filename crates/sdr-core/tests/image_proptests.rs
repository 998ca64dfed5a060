//! Property tests of the client image and CHOOSEFROMIMAGE (§3.1).

#![expect(
    clippy::disallowed_types,
    reason = "the HashMap/HashSet last-writer-wins model is the oracle the image is checked against; its iteration order is never observed"
)]

use sdr_core::{Image, Link, NodeKind, NodeRef, ServerId};
use sdr_det::prop::{bools, f64_in, freq, one_of, u32_in, usize_in, vecs_of, Gen};
use sdr_geom::Rect;
use std::collections::BTreeMap;

fn arb_rect() -> Gen<Rect> {
    f64_in(0.0, 100.0)
        .zip(f64_in(0.0, 100.0))
        .zip(f64_in(0.5, 30.0).zip(f64_in(0.5, 30.0)))
        .map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h))
}

fn arb_link() -> Gen<Link> {
    u32_in(0..40)
        .zip(bools())
        .zip(arb_rect().zip(u32_in(0..10)))
        .map(|((s, data), (dr, h))| {
            if data {
                Link::to_data(ServerId(s), dr)
            } else {
                Link::to_routing(ServerId(s), dr, h.max(1))
            }
        })
}

// ------------------------------------------------ the reference model --

/// The image as it was before the slots: an ordered map and the paper's
/// three passes spelled out one after the other. The slot-indexed
/// [`Image`] must be the same function of the same operations.
#[derive(Default)]
struct MapImage(BTreeMap<NodeRef, Link>);

/// The minimum of `links` under `key`, first one on ties — every key
/// ends in the `NodeRef`, so there are none.
fn least<'a, K: PartialOrd>(
    links: impl Iterator<Item = &'a Link>,
    key: impl Fn(&Link) -> K,
) -> Option<Link> {
    let mut best: Option<(K, Link)> = None;
    for l in links {
        let k = key(l);
        if best.as_ref().is_none_or(|(b, _)| k < *b) {
            best = Some((k, *l));
        }
    }
    best.map(|(_, l)| l)
}

impl MapImage {
    fn data(&self) -> impl Iterator<Item = &Link> {
        self.0.values().filter(|l| l.is_data())
    }

    fn covering_data(&self, mbb: &Rect) -> Option<Link> {
        least(self.data().filter(|l| l.dr.contains(mbb)), |l| {
            (l.dr.area(), l.node)
        })
    }

    fn closest_data(&self, mbb: &Rect) -> Option<Link> {
        least(self.data(), |l| {
            (l.dr.enlargement(mbb), l.dr.area(), l.node)
        })
    }

    fn choose(&self, mbb: &Rect) -> Option<Link> {
        let routing = self
            .0
            .values()
            .filter(|l| !l.is_data() && l.dr.contains(mbb));
        self.covering_data(mbb)
            .or_else(|| least(routing, |l| (l.height, l.dr.area(), l.node)))
            .or_else(|| self.closest_data(mbb))
    }

    fn choose_data(&self, mbb: &Rect) -> Option<Link> {
        self.covering_data(mbb).or_else(|| self.closest_data(mbb))
    }

    fn known_servers(&self) -> usize {
        let mut servers: Vec<ServerId> = self.0.keys().map(|n| n.server).collect();
        servers.dedup();
        servers.len()
    }
}

/// Rectangles on a 4×4 lattice: identical, nested, overlapping and
/// disjoint ones all turn up, and with them equal areas and equal
/// enlargements — the ties the `NodeRef` tie-break must settle.
fn lattice_rect() -> Gen<Rect> {
    let span = || usize_in(0..4).zip(usize_in(1..4));
    span().zip(span()).map(|((x, w), (y, h))| {
        let (x, y) = (x as f64, y as f64);
        Rect::new(x, y, x + w as f64, y + h as f64)
    })
}

fn lattice_link() -> Gen<Link> {
    u32_in(0..12)
        .zip(bools())
        .zip(lattice_rect().zip(u32_in(1..4)))
        .map(|((s, data), (dr, h))| match data {
            true => Link::to_data(ServerId(s), dr),
            false => Link::to_routing(ServerId(s), dr, h),
        })
}

#[derive(Clone, Debug)]
enum Op {
    AbsorbLink(Link),
    Absorb(Vec<Link>),
    Forget(NodeRef),
}

fn arb_op() -> Gen<Op> {
    freq(vec![
        (4, lattice_link().map(Op::AbsorbLink)),
        (3, vecs_of(lattice_link(), 0..6).map(Op::Absorb)),
        (2, lattice_link().map(|l| Op::Forget(l.node))),
    ])
}

/// Everything observable of `image` equals the model's.
fn assert_same(image: &Image, model: &MapImage, targets: &[Rect]) {
    let links: Vec<Link> = image.links().copied().collect();
    let expected: Vec<Link> = model.0.values().copied().collect();
    assert_eq!(links, expected, "links(), in NodeRef order");
    assert_eq!(image.len(), model.0.len());
    assert_eq!(image.is_empty(), model.0.is_empty());
    assert_eq!(image.known_servers(), model.known_servers());
    for t in targets {
        assert_eq!(image.choose(t), model.choose(t), "choose({t:?})");
        assert_eq!(
            image.choose_data(t),
            model.choose_data(t),
            "choose_data({t:?})"
        );
    }
}

sdr_det::prop! {
    /// Model-based: under any sequence of `absorb_link` / `absorb` /
    /// `forget` the slot-indexed image and the ordered-map reference
    /// agree on everything observable after every step; and an image
    /// rebuilt from the final links in the opposite order agrees too —
    /// the pick depends on what is held, not on how it came to be held.
    fn image_matches_the_ordered_map_model(
        ops in vecs_of(arb_op(), 1..40),
        targets in vecs_of(one_of(vec![lattice_rect(), arb_rect()]), 1..6),
    ) {
        let (mut image, mut model) = (Image::new(), MapImage::default());
        for op in &ops {
            match op {
                Op::AbsorbLink(l) => {
                    image.absorb_link(*l);
                    model.0.insert(l.node, *l);
                }
                Op::Absorb(links) => {
                    image.absorb(links);
                    model.0.extend(links.iter().map(|l| (l.node, *l)));
                }
                Op::Forget(node) => {
                    image.forget(*node);
                    model.0.remove(node);
                }
            }
            assert_same(&image, &model, &targets);
        }
        let mut backwards = Image::new();
        for l in model.0.values().rev() {
            backwards.absorb_link(*l);
        }
        assert_same(&backwards, &model, &targets);
    }

    /// CHOOSEFROMIMAGE's documented preference order, verified against
    /// the stored links (step 1: smallest covering data link; step 2:
    /// lowest then smallest covering routing link; step 3: the data link
    /// needing the least enlargement).
    fn choose_respects_preference_order(
        links in vecs_of(arb_link(), 1..30),
        target in arb_rect(),
    ) {
        let mut image = Image::new();
        image.absorb(&links);
        // The image deduplicates by node; reconstruct its actual view.
        let view: Vec<Link> = image.links().copied().collect();
        let chosen = image.choose(&target);

        let covering_data: Vec<&Link> =
            view.iter().filter(|l| l.is_data() && l.dr.contains(&target)).collect();
        let covering_routing: Vec<&Link> =
            view.iter().filter(|l| !l.is_data() && l.dr.contains(&target)).collect();
        let any_data = view.iter().any(|l| l.is_data());

        match chosen {
            None => assert!(covering_data.is_empty() && covering_routing.is_empty() && !any_data),
            Some(c) if c.is_data() && c.dr.contains(&target) => {
                // Step 1: minimal area among covering data links.
                for l in &covering_data {
                    assert!(c.dr.area() <= l.dr.area() + 1e-12);
                }
            }
            Some(c) if !c.is_data() => {
                // Step 2 applies only when no data link covers.
                assert!(covering_data.is_empty());
                assert!(c.dr.contains(&target));
                for l in &covering_routing {
                    assert!(
                        c.height < l.height
                            || (c.height == l.height && c.dr.area() <= l.dr.area() + 1e-12)
                    );
                }
            }
            Some(c) => {
                // Step 3: a non-covering data link — only when nothing
                // covers; it needs the least enlargement.
                assert!(covering_data.is_empty() && covering_routing.is_empty());
                let enl = c.dr.enlargement(&target);
                for l in view.iter().filter(|l| l.is_data()) {
                    assert!(enl <= l.dr.enlargement(&target) + 1e-12);
                }
            }
        }
    }

    /// `choose_data` (the point-query addressing of §4.1) never returns
    /// a routing link and prefers covering over closest.
    fn choose_data_is_data_only(
        links in vecs_of(arb_link(), 1..30),
        target in arb_rect(),
    ) {
        let mut image = Image::new();
        image.absorb(&links);
        if let Some(c) = image.choose_data(&target) {
            assert!(c.is_data());
            let any_covering = image
                .links()
                .any(|l| l.is_data() && l.dr.contains(&target));
            if any_covering {
                assert!(c.dr.contains(&target));
            }
        } else {
            assert!(image.links().all(|l| !l.is_data()));
        }
    }

    /// Absorbing is idempotent and last-writer-wins per node.
    fn absorb_is_lww_per_node(links in vecs_of(arb_link(), 1..40)) {
        let mut image = Image::new();
        image.absorb(&links);
        image.absorb(&links);
        // Each node appears once, with its last link.
        let mut last: std::collections::HashMap<NodeRef, Link> = Default::default();
        for l in &links {
            last.insert(l.node, *l);
        }
        assert_eq!(image.len(), last.len());
        for l in image.links() {
            assert_eq!(Some(l), last.get(&l.node));
        }
        let servers: std::collections::HashSet<ServerId> =
            last.keys().map(|n| n.server).collect();
        assert_eq!(image.known_servers(), servers.len());
    }

    /// Under any interleaving of absorb and forget operations the image
    /// stays exactly a last-writer-wins map keyed by node: same
    /// contents, same length, same server count as a naive oracle.
    fn image_matches_naive_oracle_under_interleavings(
        ops in vecs_of(bools().zip(vecs_of(arb_link(), 1..6)), 1..30),
    ) {
        let mut image = Image::new();
        let mut oracle: std::collections::HashMap<NodeRef, Link> = Default::default();
        for (forget, links) in &ops {
            if *forget {
                // Forget the op's first node — present or not, forget
                // must remove exactly that node and nothing else.
                let victim = links[0].node;
                image.forget(victim);
                oracle.remove(&victim);
            } else {
                image.absorb(links);
                for l in links {
                    oracle.insert(l.node, *l);
                }
            }
        }
        assert_eq!(image.len(), oracle.len());
        for l in image.links() {
            assert_eq!(Some(l), oracle.get(&l.node));
        }
        let servers: std::collections::HashSet<ServerId> =
            oracle.keys().map(|n| n.server).collect();
        assert_eq!(image.known_servers(), servers.len());
    }

    /// Forgetting removes exactly the named node.
    fn forget_is_precise(links in vecs_of(arb_link(), 2..20)) {
        let mut image = Image::new();
        image.absorb(&links);
        let victim = links[0].node;
        let before = image.len();
        let had = image.links().any(|l| l.node == victim);
        image.forget(victim);
        assert!(image.links().all(|l| l.node != victim));
        assert_eq!(image.len(), before - usize::from(had));
        let _ = NodeKind::Data; // silence unused import on some paths
    }
}
