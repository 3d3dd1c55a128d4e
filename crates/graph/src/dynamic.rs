//! An incrementally maintained unit disk graph over a mutating point
//! set.
//!
//! The static generators build a [`crate::Graph`] once from a fixed
//! point set; a long-running coloring service (nodes joining and
//! leaving a live deployment) instead needs radius queries against a
//! membership that changes one node at a time. [`DynamicUdg`] keeps the
//! same uniform-grid idea as [`crate::spatial::GridIndex`] but with
//! per-cell buckets that support O(1) amortized insert/remove, keyed by
//! integer cell coordinates in a `BTreeMap` (hash-order-free by
//! construction — lint rule R2 — so snapshots of the same membership
//! always enumerate identically).
//!
//! Node IDs are dense `u32` slots assigned by the caller; a removed
//! slot may be reused. The structure stores `Option<Point2>` per slot,
//! so stale IDs are cheap to reject.

use crate::geometry::Point2;
use crate::graph::Graph;
use crate::NodeId;
use std::collections::BTreeMap;

/// A unit disk graph over a mutating point set: points within `radius`
/// of each other are neighbors.
#[derive(Clone, Debug)]
pub struct DynamicUdg {
    radius: f64,
    /// Slot → position; `None` marks a vacant (never-used or removed)
    /// slot.
    points: Vec<Option<Point2>>,
    /// Cell coordinates → occupied slots in that cell. Cells have side
    /// `radius`, so a radius query visits at most the 3×3 block around
    /// the query point's cell.
    cells: BTreeMap<(i64, i64), Vec<NodeId>>,
    live: usize,
}

impl DynamicUdg {
    /// An empty membership with the given connection radius.
    ///
    /// # Panics
    /// Panics if `radius` is not strictly positive and finite.
    pub fn new(radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive"
        );
        DynamicUdg {
            radius,
            points: Vec::new(),
            cells: BTreeMap::new(),
            live: 0,
        }
    }

    /// The connection radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of live (inserted and not removed) nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no node is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest slot ever used plus one (the length of a dense per-slot
    /// array covering every live node).
    pub fn capacity(&self) -> usize {
        self.points.len()
    }

    /// The position of `v`, if it is live.
    pub fn position(&self, v: NodeId) -> Option<Point2> {
        self.points.get(v as usize).copied().flatten()
    }

    fn cell_of(&self, p: Point2) -> (i64, i64) {
        (
            (p.x / self.radius).floor() as i64,
            (p.y / self.radius).floor() as i64,
        )
    }

    /// Inserts node `v` at `p`. Growing the slot table as needed.
    ///
    /// # Panics
    /// Panics if `v` is already live or a coordinate is not finite.
    pub fn insert(&mut self, v: NodeId, p: Point2) {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite coordinate");
        let vi = v as usize;
        if vi >= self.points.len() {
            self.points.resize(vi + 1, None);
        }
        assert!(self.points[vi].is_none(), "node {v} is already live");
        self.points[vi] = Some(p);
        self.cells.entry(self.cell_of(p)).or_default().push(v);
        self.live += 1;
    }

    /// Removes node `v`; its slot becomes vacant and may be reused.
    ///
    /// # Panics
    /// Panics if `v` is not live.
    pub fn remove(&mut self, v: NodeId) {
        let p = self
            .position(v)
            .unwrap_or_else(|| panic!("node {v} is not live"));
        self.points[v as usize] = None;
        let key = self.cell_of(p);
        let bucket = self.cells.get_mut(&key).expect("cell bucket exists");
        let at = bucket.iter().position(|&w| w == v).expect("node in bucket");
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
        self.live -= 1;
    }

    /// The live nodes within `radius` of `v` (excluding `v`), sorted.
    ///
    /// # Panics
    /// Panics if `v` is not live.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let p = self
            .position(v)
            .unwrap_or_else(|| panic!("node {v} is not live"));
        let mut out = self.neighbors_of_point(p);
        if let Ok(at) = out.binary_search(&v) {
            out.remove(at);
        }
        out
    }

    /// The live nodes within `radius` of an arbitrary position
    /// (including any node exactly at `p`), sorted.
    pub fn neighbors_of_point(&self, p: Point2) -> Vec<NodeId> {
        let (cx, cy) = self.cell_of(p);
        let r2 = self.radius * self.radius;
        let mut out = Vec::new();
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                // A coordinate near ±f64::MAX saturates its cell index
                // to i64::MIN/MAX; the cells beyond it do not exist.
                let (Some(x), Some(y)) = (cx.checked_add(dx), cy.checked_add(dy)) else {
                    continue;
                };
                if let Some(bucket) = self.cells.get(&(x, y)) {
                    for &w in bucket {
                        let q = self.points[w as usize].expect("bucket holds live nodes");
                        if q.dist2(&p) <= r2 {
                            out.push(w);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The live slots, ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|_| i as NodeId))
            .collect()
    }

    /// Materializes the current membership as a static [`Graph`] over
    /// `capacity()` slots (vacant slots become isolated vertices),
    /// together with the list of live slots. The snapshot is a pure
    /// function of the membership — cell iteration order never leaks.
    pub fn snapshot(&self) -> (Graph, Vec<NodeId>) {
        let live = self.live_nodes();
        let mut edges = Vec::new();
        for &v in &live {
            for w in self.neighbors(v) {
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        (Graph::from_edges(self.capacity(), edges), live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_neighbors(u: &DynamicUdg, v: NodeId) -> Vec<NodeId> {
        let p = u.position(v).unwrap();
        let r2 = u.radius() * u.radius();
        u.live_nodes()
            .into_iter()
            .filter(|&w| w != v && u.position(w).unwrap().dist2(&p) <= r2)
            .collect()
    }

    #[test]
    fn insert_remove_neighbor_queries_match_brute_force() {
        let mut u = DynamicUdg::new(1.0);
        // 6×6 lattice at 0.6 spacing: rich adjacency at radius 1.
        for i in 0..36u32 {
            let (x, y) = (i % 6, i / 6);
            u.insert(i, Point2::new(x as f64 * 0.6, y as f64 * 0.6));
        }
        assert_eq!(u.len(), 36);
        for v in u.live_nodes() {
            assert_eq!(u.neighbors(v), brute_neighbors(&u, v), "node {v}");
        }
        // Remove a diagonal, re-check, then reuse a vacated slot.
        for v in [0u32, 7, 14, 21, 28, 35] {
            u.remove(v);
        }
        assert_eq!(u.len(), 30);
        for v in u.live_nodes() {
            assert_eq!(u.neighbors(v), brute_neighbors(&u, v), "node {v}");
        }
        u.insert(14, Point2::new(-3.0, -3.0));
        assert_eq!(u.neighbors(14), Vec::<NodeId>::new());
    }

    #[test]
    fn boundary_distance_inclusive_and_negative_coords() {
        let mut u = DynamicUdg::new(1.0);
        u.insert(0, Point2::new(-0.5, 0.0));
        u.insert(1, Point2::new(0.5, 0.0));
        u.insert(2, Point2::new(-0.5, 2.5));
        assert_eq!(u.neighbors(0), vec![1]);
        assert_eq!(u.neighbors(1), vec![0]);
        assert_eq!(u.neighbors(2), Vec::<NodeId>::new());
    }

    #[test]
    fn snapshot_matches_queries() {
        let mut u = DynamicUdg::new(1.0);
        u.insert(0, Point2::new(0.0, 0.0));
        u.insert(2, Point2::new(0.8, 0.0));
        u.insert(5, Point2::new(1.6, 0.0));
        let (g, live) = u.snapshot();
        assert_eq!(live, vec![0, 2, 5]);
        assert_eq!(g.len(), 6);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 5));
        assert!(!g.has_edge(0, 5));
        assert!(g.neighbors(1).is_empty());
    }

    #[test]
    fn empty_structure() {
        let u = DynamicUdg::new(2.0);
        assert!(u.is_empty());
        assert_eq!(u.neighbors_of_point(Point2::new(0.0, 0.0)), vec![]);
        assert_eq!(u.snapshot().0.len(), 0);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn double_insert_panics() {
        let mut u = DynamicUdg::new(1.0);
        u.insert(3, Point2::new(0.0, 0.0));
        u.insert(3, Point2::new(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn remove_of_vacant_slot_panics() {
        let mut u = DynamicUdg::new(1.0);
        u.remove(0);
    }

    #[test]
    fn coincident_points_all_adjacent() {
        let mut u = DynamicUdg::new(0.5);
        for v in 0..4u32 {
            u.insert(v, Point2::new(9.0, -9.0));
        }
        assert_eq!(u.neighbors(2), vec![0, 1, 3]);
    }

    #[test]
    fn extreme_coordinates_query_without_overflow() {
        // Cell indices saturate at i64::MIN/MAX here; the 3×3 query
        // must skip the cells past the edge, not wrap or revisit one.
        let mut u = DynamicUdg::new(1.0);
        let far = [f64::MAX, -f64::MAX, 1e300, -1e300];
        let mut v = 0u32;
        for &x in &far {
            for &y in &far {
                u.insert(v, Point2::new(x, y));
                u.insert(v + 1, Point2::new(x, y));
                assert_eq!(u.neighbors(v), vec![v + 1]);
                assert_eq!(u.neighbors_of_point(Point2::new(x, y)), vec![v, v + 1]);
                v += 2;
            }
        }
        u.insert(v, Point2::new(0.0, 0.0));
        assert!(u.neighbors(v).is_empty());
        assert_eq!(u.snapshot().1.len(), v as usize + 1);
    }
}
