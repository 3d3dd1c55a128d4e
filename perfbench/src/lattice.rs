//! The session layout both `colord` workloads use: the 0.75-spacing
//! square lattice at radius 1 (the 4-neighbourhood grid of E21/E23),
//! plus an independent verification graph built from it with
//! `radio-graph`, so a run's final colors are checked outside the
//! service's own conflict count.

use radio_graph::analysis::check_coloring;
use radio_graph::analysis::independence::kappa;
use radio_graph::generators::build_udg;
use radio_graph::{Graph, Point2};
use radio_sim::rng::node_rng;
use rand::Rng;
use std::time::Instant;

/// Lattice spacing at connection radius 1.
pub const SPACING: f64 = 0.75;

/// Session positions and their unit disk graph.
#[derive(Clone, Debug)]
pub struct Lattice {
    /// Session `i` joins (and rejoins) at `positions[i]`.
    pub positions: Vec<(f64, f64)>,
    /// The unit disk graph over the positions; node `i` is session `i`.
    pub graph: Graph,
    /// Max closed degree of `graph`.
    pub delta: usize,
    /// Exact κ₂ of `graph`.
    pub kappa2: usize,
    /// Seconds spent building `graph`.
    pub build_s: f64,
    /// Seconds spent measuring κ₂.
    pub kappa_s: f64,
}

impl Lattice {
    /// `sessions` positions filling a square lattice row by row.
    pub fn new(sessions: usize) -> Lattice {
        let side = (sessions as f64).sqrt().ceil() as usize;
        let positions: Vec<(f64, f64)> = (0..sessions)
            .map(|i| ((i % side) as f64 * SPACING, (i / side) as f64 * SPACING))
            .collect();
        let start = Instant::now();
        let points: Vec<Point2> = positions.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let graph = build_udg(&points, 1.0);
        let build_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let kappa2 = kappa(&graph).k2;
        let kappa_s = start.elapsed().as_secs_f64();
        Lattice {
            delta: graph.max_closed_degree(),
            positions,
            graph,
            kappa2,
            build_s,
            kappa_s,
        }
    }

    /// Sessions on the lattice.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` iff `colors` (indexed by session) is complete and proper
    /// on the lattice's unit disk graph.
    pub fn proper(&self, colors: &[Option<u32>]) -> bool {
        colors.len() == self.len() && check_coloring(&self.graph, &colors.to_vec()).valid()
    }
}

/// `count` distinct session indices below `n`, drawn from the seed.
pub fn pick(seed: u64, salt: u32, count: usize, n: usize) -> Vec<usize> {
    let mut rng = node_rng(seed, salt);
    let mut idx: Vec<usize> = (0..n).collect();
    let count = count.min(n);
    for i in 0..count {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_is_the_four_neighbourhood_grid() {
        let l = Lattice::new(64);
        assert_eq!(l.len(), 64);
        assert_eq!(l.delta, 5, "interior node plus its 4 grid neighbours");
        assert!(l.kappa2 >= 2);
        // A 2-coloring of the bipartite grid is proper.
        let side = 8;
        let colors: Vec<Option<u32>> = (0..64)
            .map(|i| Some(((i % side + i / side) % 2) as u32))
            .collect();
        assert!(l.proper(&colors));
        let mut bad = colors.clone();
        bad[1] = bad[0];
        assert!(!l.proper(&bad));
    }

    #[test]
    fn pick_is_seeded_and_distinct() {
        let a = pick(7, 1, 10, 100);
        assert_eq!(a, pick(7, 1, 10, 100));
        assert_ne!(a, pick(8, 1, 10, 100));
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }
}
