//! Database statistics — the paper's Table 8 (class/attribute/reference
//! parameters) and Table 9 (B+-tree parameters).
//!
//! Statistics come from two sources: `collect` scans in the [`crate::Catalog`]
//! (measuring a real database), or direct construction (injecting the
//! paper's Tables 13–15 so the optimizer examples reproduce exactly).

use std::collections::HashMap;

use mood_storage::BTreeStats;

/// Per-class statistics: `|C|`, `nbpages(C)`, `size(C)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Total number of instances of C — `|C|`.
    pub cardinality: u64,
    /// Total number of pages in which class C is stored — `nbpages(C)`.
    pub nbpages: u64,
    /// Size of an instance of class C in bytes — `size(C)`.
    pub size: u64,
}

/// Per-atomic-attribute statistics: `notnull`, `dist`, `max`, `min`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Proportion of instances with the attribute not null — `notnull(A,C)`.
    pub notnull: f64,
    /// Number of distinct values — `dist(A,C)`.
    pub dist: u64,
    /// Maximum value (numeric attributes; `None` for strings) — `max(A,C)`.
    pub max: Option<f64>,
    /// Minimum value — `min(A,C)`.
    pub min: Option<f64>,
}

/// Per-reference-attribute statistics: `fan`, `totref` (and the derived
/// `totlinks`, `hitprb`).
#[derive(Debug, Clone, PartialEq)]
pub struct RefStats {
    /// The referenced class D.
    pub target: String,
    /// Average number of D instances referenced per C instance —
    /// `fan(A,C,D)`.
    pub fan: f64,
    /// Number of D objects referenced by at least one C object —
    /// `totref(A,C,D)`.
    pub totref: u64,
}

/// The statistics catalog.
#[derive(Debug, Clone, Default)]
pub struct DatabaseStats {
    classes: HashMap<String, ClassStats>,
    attrs: HashMap<(String, String), AttrStats>,
    refs: HashMap<(String, String), RefStats>,
    indexes: HashMap<(String, String), BTreeStats>,
    /// Clustering factor per reference edge `(class, attr)`: the fraction
    /// of forward chases that land on the same or the next target page
    /// when the source extent is scanned in storage order, in `[0, 1]`.
    /// Absent edges read as 0 (unclustered) — the paper's Tables 13–15
    /// predate clustering, so [`DatabaseStats::paper_example`] leaves this
    /// empty and every Section 8 cost reproduces unchanged.
    clustering: HashMap<(String, String), f64>,
}

impl DatabaseStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_class(&mut self, class: &str, stats: ClassStats) {
        self.classes.insert(class.to_string(), stats);
    }

    pub fn set_attr(&mut self, class: &str, attr: &str, stats: AttrStats) {
        self.attrs
            .insert((class.to_string(), attr.to_string()), stats);
    }

    pub fn set_ref(&mut self, class: &str, attr: &str, stats: RefStats) {
        self.refs
            .insert((class.to_string(), attr.to_string()), stats);
    }

    pub fn set_index(&mut self, class: &str, attr: &str, stats: BTreeStats) {
        self.indexes
            .insert((class.to_string(), attr.to_string()), stats);
    }

    /// Forget the index on `class.attr` (it was dropped).
    pub fn remove_index(&mut self, class: &str, attr: &str) {
        self.indexes
            .remove(&(class.to_string(), attr.to_string()));
    }

    /// Record the clustering factor for the reference edge `class.attr`.
    pub fn set_clustering(&mut self, class: &str, attr: &str, factor: f64) {
        self.clustering
            .insert((class.to_string(), attr.to_string()), factor.clamp(0.0, 1.0));
    }

    /// Clustering factor of the edge `class.attr`; 0 when never measured.
    pub fn clustering(&self, class: &str, attr: &str) -> f64 {
        self.measured_clustering(class, attr).unwrap_or(0.0)
    }

    /// Clustering factor of the edge `class.attr`, if it was measured.
    pub fn measured_clustering(&self, class: &str, attr: &str) -> Option<f64> {
        self.clustering
            .get(&(class.to_string(), attr.to_string()))
            .copied()
    }

    /// Every measured clustering edge as `(class, attr, factor)`, sorted.
    pub fn clustering_edges(&self) -> Vec<(String, String, f64)> {
        let mut v: Vec<_> = self
            .clustering
            .iter()
            .map(|((c, a), f)| (c.clone(), a.clone(), *f))
            .collect();
        v.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        v
    }

    pub fn class(&self, class: &str) -> Option<&ClassStats> {
        self.classes.get(class)
    }

    pub fn attr(&self, class: &str, attr: &str) -> Option<&AttrStats> {
        self.attrs.get(&(class.to_string(), attr.to_string()))
    }

    pub fn reference(&self, class: &str, attr: &str) -> Option<&RefStats> {
        self.refs.get(&(class.to_string(), attr.to_string()))
    }

    pub fn index(&self, class: &str, attr: &str) -> Option<&BTreeStats> {
        self.indexes.get(&(class.to_string(), attr.to_string()))
    }

    /// `totlinks(A,C,D) = fan(A,C,D) * |C|`.
    pub fn totlinks(&self, class: &str, attr: &str) -> Option<f64> {
        let r = self.reference(class, attr)?;
        let c = self.class(class)?;
        Some(r.fan * c.cardinality as f64)
    }

    /// `hitprb(A,C,D) = totref(A,C,D) / |D|`.
    pub fn hitprb(&self, class: &str, attr: &str) -> Option<f64> {
        let r = self.reference(class, attr)?;
        let d = self.class(&r.target)?;
        Some(r.totref as f64 / d.cardinality as f64)
    }

    /// The statistics of the paper's example database — Tables 13, 14 and
    /// 15 verbatim. Every Section 8 example runs against these.
    pub fn paper_example() -> DatabaseStats {
        let mut s = DatabaseStats::new();
        // Table 13.
        s.set_class(
            "Vehicle",
            ClassStats {
                cardinality: 20_000,
                nbpages: 2_000,
                size: 400,
            },
        );
        s.set_class(
            "VehicleDriveTrain",
            ClassStats {
                cardinality: 10_000,
                nbpages: 750,
                size: 300,
            },
        );
        s.set_class(
            "VehicleEngine",
            ClassStats {
                cardinality: 10_000,
                nbpages: 5_000,
                size: 2_000,
            },
        );
        s.set_class(
            "Company",
            ClassStats {
                cardinality: 200_000,
                nbpages: 2_500,
                size: 500,
            },
        );
        // Table 14.
        s.set_attr(
            "VehicleEngine",
            "cylinders",
            AttrStats {
                notnull: 1.0,
                dist: 16,
                max: Some(32.0),
                min: Some(2.0),
            },
        );
        s.set_attr(
            "Company",
            "name",
            AttrStats {
                notnull: 1.0,
                dist: 200_000,
                max: None,
                min: None,
            },
        );
        // Table 15. (`totlinks` and `hitprb` are derived; the derived values
        // match the table's printed columns — asserted in tests.)
        s.set_ref(
            "Vehicle",
            "drivetrain",
            RefStats {
                target: "VehicleDriveTrain".into(),
                fan: 1.0,
                totref: 10_000,
            },
        );
        s.set_ref(
            "Vehicle",
            "manufacturer",
            RefStats {
                target: "Company".into(),
                fan: 1.0,
                totref: 20_000,
            },
        );
        s.set_ref(
            "VehicleDriveTrain",
            "engine",
            RefStats {
                target: "VehicleEngine".into(),
                fan: 1.0,
                totref: 10_000,
            },
        );
        // The example query's `v.company` path is the `manufacturer`
        // attribute under its FROM-clause alias; register the alias too so
        // the Example 8.1 text can be reproduced verbatim.
        s.set_ref(
            "Vehicle",
            "company",
            RefStats {
                target: "Company".into(),
                fan: 1.0,
                totref: 20_000,
            },
        );
        s
    }

    pub fn classes(&self) -> impl Iterator<Item = (&String, &ClassStats)> {
        self.classes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_13_values() {
        let s = DatabaseStats::paper_example();
        let v = s.class("Vehicle").unwrap();
        assert_eq!((v.cardinality, v.nbpages, v.size), (20_000, 2_000, 400));
        let c = s.class("Company").unwrap();
        assert_eq!((c.cardinality, c.nbpages, c.size), (200_000, 2_500, 500));
    }

    #[test]
    fn paper_table_15_derived_columns() {
        let s = DatabaseStats::paper_example();
        // Row: Vehicle.drivetrain — fan 1, totref 10000, totlinks 20000, hitprb 1.
        assert_eq!(s.totlinks("Vehicle", "drivetrain"), Some(20_000.0));
        assert_eq!(s.hitprb("Vehicle", "drivetrain"), Some(1.0));
        // Row: Vehicle.manufacturer — totlinks 20000, hitprb 0.1.
        assert_eq!(s.totlinks("Vehicle", "manufacturer"), Some(20_000.0));
        assert_eq!(s.hitprb("Vehicle", "manufacturer"), Some(0.1));
        // Row: VehicleDriveTrain.engine — totlinks 10000, hitprb 1.
        assert_eq!(s.totlinks("VehicleDriveTrain", "engine"), Some(10_000.0));
        assert_eq!(s.hitprb("VehicleDriveTrain", "engine"), Some(1.0));
    }

    #[test]
    fn paper_table_14_values() {
        let s = DatabaseStats::paper_example();
        let cyl = s.attr("VehicleEngine", "cylinders").unwrap();
        assert_eq!((cyl.dist, cyl.max, cyl.min), (16, Some(32.0), Some(2.0)));
        assert_eq!(s.attr("Company", "name").unwrap().dist, 200_000);
    }

    #[test]
    fn missing_stats_are_none() {
        let s = DatabaseStats::paper_example();
        assert!(s.class("Nothing").is_none());
        assert!(s.totlinks("Vehicle", "nothing").is_none());
        assert!(s.hitprb("Nothing", "x").is_none());
    }

    #[test]
    fn clustering_defaults_to_zero_and_clamps() {
        let mut s = DatabaseStats::paper_example();
        // The paper's tables predate clustering: every edge reads 0.
        assert_eq!(s.clustering("Vehicle", "manufacturer"), 0.0);
        assert!(s.clustering_edges().is_empty());
        s.set_clustering("Vehicle", "manufacturer", 0.9);
        s.set_clustering("Vehicle", "drivetrain", 1.5);
        assert_eq!(s.clustering("Vehicle", "manufacturer"), 0.9);
        assert_eq!(s.clustering("Vehicle", "drivetrain"), 1.0, "clamped");
        assert_eq!(
            s.clustering_edges(),
            vec![
                ("Vehicle".to_string(), "drivetrain".to_string(), 1.0),
                ("Vehicle".to_string(), "manufacturer".to_string(), 0.9),
            ]
        );
    }
}
