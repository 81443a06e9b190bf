//! The Table 1 dataset registry.
//!
//! | name | #nodes | #edges (arcs) |
//! |------|--------|---------------|
//! | CAL  | 106,337 | 213,964 |
//! | SJ   | 18,263 | 47,594 |
//! | SF   | 174,956 | 443,604 |
//! | COL  | 435,666 | 1,042,400 |
//! | FLA  | 1,070,376 | 2,687,902 |
//! | USA  | 6,262,104 | 15,119,284 |
//!
//! [`DatasetSpec::generate`] instantiates the synthetic stand-in (see
//! `DESIGN.md` §4) at a given `scale ∈ (0, 1]` — `scale = 1` matches the
//! paper's node/arc counts exactly; `repro` defaults to smaller scales so
//! a full figure run stays tractable.

use kpj_graph::Graph;

use crate::road::RoadConfig;

/// One road network of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// The paper's dataset name.
    pub name: &'static str,
    /// `n` at full scale.
    pub nodes: usize,
    /// The paper's `#Edges` figure at full scale (see `counts_are_arcs`).
    pub arcs: usize,
    /// How to read `arcs`: the DIMACS files (COL, FLA, USA) count each
    /// road segment as two directed arcs; the U. Utah files (CAL, SJ, SF)
    /// list each undirected edge once. Getting this right matters — the
    /// Utah networks would otherwise degenerate to near-trees with almost
    /// no alternative paths (see DESIGN.md §4).
    pub counts_are_arcs: bool,
}

/// California road network (with real POIs in the paper).
pub const CAL: DatasetSpec = DatasetSpec {
    name: "CAL",
    nodes: 106_337,
    arcs: 213_964,
    counts_are_arcs: false,
};
/// San Joaquin road network.
pub const SJ: DatasetSpec = DatasetSpec {
    name: "SJ",
    nodes: 18_263,
    arcs: 47_594,
    counts_are_arcs: false,
};
/// San Francisco road network.
pub const SF: DatasetSpec = DatasetSpec {
    name: "SF",
    nodes: 174_956,
    arcs: 443_604,
    counts_are_arcs: false,
};
/// Colorado road network (DIMACS).
pub const COL: DatasetSpec = DatasetSpec {
    name: "COL",
    nodes: 435_666,
    arcs: 1_042_400,
    counts_are_arcs: true,
};
/// Florida road network (DIMACS).
pub const FLA: DatasetSpec = DatasetSpec {
    name: "FLA",
    nodes: 1_070_376,
    arcs: 2_687_902,
    counts_are_arcs: true,
};
/// Western USA road network (DIMACS).
pub const USA: DatasetSpec = DatasetSpec {
    name: "USA",
    nodes: 6_262_104,
    arcs: 15_119_284,
    counts_are_arcs: true,
};

/// All Table 1 datasets in the paper's order.
pub const ALL: [DatasetSpec; 6] = [CAL, SJ, SF, COL, FLA, USA];

/// The five datasets of the Fig. 11/12 size sweeps (SJ → USA).
pub const SIZE_SWEEP: [DatasetSpec; 5] = [SJ, SF, COL, FLA, USA];

impl DatasetSpec {
    /// Look a dataset up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        ALL.iter()
            .copied()
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// Node count at `scale`.
    pub fn nodes_at(&self, scale: f64) -> usize {
        ((self.nodes as f64 * scale) as usize).max(2)
    }

    /// Table-1 edge figure at `scale`.
    pub fn arcs_at(&self, scale: f64) -> usize {
        ((self.arcs as f64 * scale) as usize).max(2)
    }

    /// *Directed arc* target at `scale` (doubles the Utah edge counts).
    pub fn directed_arcs_at(&self, scale: f64) -> usize {
        let mult = if self.counts_are_arcs { 1 } else { 2 };
        self.arcs_at(scale) * mult
    }

    /// Instantiate the synthetic stand-in at `scale` (1.0 = paper size).
    ///
    /// The generator seed is derived from the dataset name so each dataset
    /// gets a distinct but reproducible topology.
    pub fn generate(&self, scale: f64) -> Graph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let seed = self.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        RoadConfig::new(self.nodes_at(scale), self.directed_arcs_at(scale), seed).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_1() {
        assert_eq!(ALL.len(), 6);
        assert_eq!(CAL.nodes, 106_337);
        assert_eq!(USA.arcs, 15_119_284);
        assert_eq!(DatasetSpec::by_name("col"), Some(COL));
        assert_eq!(DatasetSpec::by_name("nope"), None);
    }

    #[test]
    fn generation_at_small_scale_matches_ratio() {
        let g = COL.generate(0.1);
        assert_eq!(g.node_count(), COL.nodes_at(0.1));
        // Arc count within the clamp band around the scaled target.
        let target = COL.directed_arcs_at(0.1);
        assert!((g.edge_count() as i64 - target as i64).unsigned_abs() <= 2);
    }

    #[test]
    fn utah_sets_double_their_edge_counts() {
        assert_eq!(SJ.directed_arcs_at(1.0), 2 * 47_594);
        assert_eq!(COL.directed_arcs_at(1.0), 1_042_400);
        let g = SJ.generate(0.1);
        // Dense enough that plenty of alternative paths exist
        // (arc ratio well above the 2(n−1)/n tree bound).
        let ratio = g.edge_count() as f64 / g.node_count() as f64;
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn same_spec_same_graph() {
        let a = SJ.generate(0.05);
        let b = SJ.generate(0.05);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.out_edges(0), b.out_edges(0));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = SJ.generate(0.0);
    }
}
