//! Selectivity estimation — Section 4.1.
//!
//! Atomic selectivities assume uniformly distributed values (the paper's
//! stated assumption); path-expression selectivity composes the per-hop
//! `fan/totref/totlinks` statistics through `c(n,m,r)` (forward reference
//! count) and `o(t,x,y)` (overlap probability).

use crate::approx::{c_approx, o_overlap};

/// Comparison operators of a simple predicate ⟨P₁, θ, oprnd⟩.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theta {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Theta {
    pub fn parse(s: &str) -> Option<Theta> {
        Some(match s {
            "=" | "==" => Theta::Eq,
            "<>" | "!=" => Theta::Ne,
            "<" => Theta::Lt,
            "<=" => Theta::Le,
            ">" => Theta::Gt,
            ">=" => Theta::Ge,
            _ => return None,
        })
    }

    pub fn symbol(&self) -> &'static str {
        match self {
            Theta::Eq => "=",
            Theta::Ne => "<>",
            Theta::Lt => "<",
            Theta::Le => "<=",
            Theta::Gt => ">",
            Theta::Ge => ">=",
        }
    }
}

/// Domain statistics of an atomic attribute (from Table 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// `dist(A,C)`.
    pub dist: f64,
    /// `max(A,C)` (numeric domains).
    pub max: Option<f64>,
    /// `min(A,C)`.
    pub min: Option<f64>,
}

/// Selectivity of `s.A θ constant` under the uniform assumption:
///
/// * `=`  → `1/dist`
/// * `>`  → `(max − c)/(max − min)` (`<`, `<=`, `>=` analogous)
/// * `<>` → `1 − 1/dist`
///
/// Non-numeric domains fall back to `1/dist` for equality and ½ for
/// inequalities (no order statistics available).
pub fn atomic_selectivity(theta: Theta, constant: Option<f64>, dom: &Domain) -> f64 {
    let eq = if dom.dist > 0.0 { 1.0 / dom.dist } else { 1.0 };
    let range = match (dom.min, dom.max, constant) {
        (Some(min), Some(max), Some(c)) if max > min => Some(((max - min), (c - min), (max - c))),
        _ => None,
    };
    let sel = match theta {
        Theta::Eq => eq,
        Theta::Ne => 1.0 - eq,
        Theta::Gt | Theta::Ge => match range {
            Some((width, _, above)) => above / width,
            None => 0.5,
        },
        Theta::Lt | Theta::Le => match range {
            Some((width, below, _)) => below / width,
            None => 0.5,
        },
    };
    sel.clamp(0.0, 1.0)
}

/// Selectivity of several range bounds `s.A θ_i c_i` (θ one of `<`, `<=`,
/// `>`, `>=`) on one attribute, taken together: they describe one interval.
///
/// With `s_lo` the tightest lower bound's selectivity and `s_hi` the
/// tightest upper one's (1 for an open side), the two tails the bounds cut
/// off are disjoint under the uniform assumption, so the interval keeps
/// `s_lo + s_hi − 1` — `(c2 − c1)/(max − min)` for bounds inside the domain,
/// the paper's `BETWEEN` — floored at one object of the `cardinality`. A
/// bound alone keeps its own selectivity, and without order statistics (a
/// string key: every bound is the ½ guess) the bounds multiply as independent
/// predicates do.
pub fn bounds_selectivity(bounds: &[(Theta, Option<f64>)], dom: &Domain, cardinality: f64) -> f64 {
    let (mut s_lo, mut s_hi, mut product) = (1.0f64, 1.0f64, 1.0);
    for &(theta, constant) in bounds {
        let s = atomic_selectivity(theta, constant, dom);
        product *= s;
        match theta {
            Theta::Gt | Theta::Ge => s_lo = s_lo.min(s),
            Theta::Lt | Theta::Le => s_hi = s_hi.min(s),
            Theta::Eq | Theta::Ne => {}
        }
    }
    let ordered = matches!((dom.min, dom.max), (Some(min), Some(max)) if max > min)
        && bounds.iter().all(|(_, constant)| constant.is_some());
    if bounds.len() < 2 || !ordered {
        return product;
    }
    (s_lo + s_hi - 1.0).max(1.0 / cardinality.max(1.0)).min(1.0)
}

/// Selectivity of `s.A BETWEEN c1 AND c2` → `(c2 − c1)/(max − min)`.
pub fn between_selectivity(c1: f64, c2: f64, dom: &Domain) -> f64 {
    match (dom.min, dom.max) {
        (Some(min), Some(max)) if max > min => ((c2 - c1) / (max - min)).clamp(0.0, 1.0),
        _ => 0.5,
    }
}

/// One hop of a path expression: attribute `A_i` of class `C_i` referencing
/// class `C_{i+1}` (shorthand parameters of Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathHop {
    /// `fan_i = fan(A_i, C_i, C_{i+1})`.
    pub fan: f64,
    /// `totref_i = totref(A_i, C_i, C_{i+1})`.
    pub totref: f64,
    /// `totlinks_i = totlinks(A_i, C_i, C_{i+1})`.
    pub totlinks: f64,
}

/// `fref(p.A_1…A_i, k)` — expected number of distinct `C_{i+1}` objects
/// reached by forward-traversing the hops starting from `k` objects of
/// `C_1`:
///
/// ```text
/// fref(ε, k)        = k
/// fref(p.A_1…A_i,k) = c(totlinks_i, totref_i, fref(p.A_1…A_{i−1},k)·fan_i)
/// ```
pub fn fref(hops: &[PathHop], k: f64) -> f64 {
    let mut reached = k;
    for hop in hops {
        reached = c_approx(hop.totlinks, hop.totref, reached * hop.fan);
    }
    reached
}

/// Inputs for the selectivity of a full path-expression predicate
/// `p.A_1.A_2…A_m θ c` (A_m atomic).
#[derive(Debug, Clone, PartialEq)]
pub struct PathPredicate {
    /// The reference hops `A_1 … A_{m−1}` in order.
    pub hops: Vec<PathHop>,
    /// `|C_m|` — cardinality of the terminal class.
    pub terminal_cardinality: f64,
    /// `f_s(A_m θ c)` — atomic selectivity of the terminal predicate.
    pub terminal_selectivity: f64,
    /// `hitprb(A_{m−1}, C_{m−1}, C_m)`.
    pub hitprb_last: f64,
}

/// The paper's path selectivity:
///
/// ```text
/// f_s = o( totref_{m−1},
///          fref(p.A_1…A_{m−1}, 1),
///          k_m · hitprb(A_{m−1}, C_{m−1}, C_m) )
/// with k_m = |C_m| · f_s(A_m)
/// ```
pub fn path_selectivity(p: &PathPredicate) -> f64 {
    let Some(last) = p.hops.last() else {
        // Degenerate path (no reference hops): plain atomic predicate.
        return p.terminal_selectivity;
    };
    let x = fref(&p.hops, 1.0);
    let k_m = p.terminal_cardinality * p.terminal_selectivity;
    o_overlap(last.totref, x, k_m * p.hitprb_last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_selectivity_is_one_over_dist() {
        let dom = Domain {
            dist: 16.0,
            max: Some(32.0),
            min: Some(2.0),
        };
        assert_eq!(atomic_selectivity(Theta::Eq, Some(2.0), &dom), 1.0 / 16.0);
        assert_eq!(atomic_selectivity(Theta::Ne, Some(2.0), &dom), 15.0 / 16.0);
    }

    #[test]
    fn range_selectivities_follow_the_formulas() {
        let dom = Domain {
            dist: 100.0,
            max: Some(100.0),
            min: Some(0.0),
        };
        // s.A > 75 → (100-75)/100.
        assert_eq!(atomic_selectivity(Theta::Gt, Some(75.0), &dom), 0.25);
        // s.A < 25 → (25-0)/100.
        assert_eq!(atomic_selectivity(Theta::Lt, Some(25.0), &dom), 0.25);
        // BETWEEN 10 and 60 → 50/100.
        assert_eq!(between_selectivity(10.0, 60.0, &dom), 0.5);
    }

    #[test]
    fn bounds_on_one_attribute_are_one_interval() {
        let dom = Domain {
            dist: 100.0,
            max: Some(100.0),
            min: Some(0.0),
        };
        let (ge, lt) = ((Theta::Ge, Some(10.0)), (Theta::Lt, Some(60.0)));
        // Inside the domain: the paper's BETWEEN.
        let s = bounds_selectivity(&[ge, lt], &dom, 1e6);
        assert!((s - between_selectivity(10.0, 60.0, &dom)).abs() < 1e-12);
        // The tightest bound of each side counts; order does not.
        let redundant = [lt, (Theta::Ge, Some(5.0)), ge, (Theta::Le, Some(90.0))];
        assert!((bounds_selectivity(&redundant, &dom, 1e6) - s).abs() < 1e-12);
        // A bound outside the domain cuts nothing off.
        let s = bounds_selectivity(&[(Theta::Gt, Some(-50.0)), lt], &dom, 1e6);
        assert!((s - 0.6).abs() < 1e-12);
        // Empty and inverted intervals are floored at one object.
        let inverted = [(Theta::Ge, Some(60.0)), (Theta::Lt, Some(10.0))];
        assert_eq!(bounds_selectivity(&inverted, &dom, 200.0), 1.0 / 200.0);
        // One bound alone is what it always was.
        assert_eq!(bounds_selectivity(&[lt], &dom, 1e6), 0.6);
        assert_eq!(
            bounds_selectivity(&[(Theta::Gt, Some(500.0))], &dom, 1e6),
            0.0
        );
        // No order statistics: independent ½ guesses.
        let opaque = Domain {
            dist: 50.0,
            max: None,
            min: None,
        };
        assert_eq!(
            bounds_selectivity(&[(Theta::Ge, None), (Theta::Lt, None)], &opaque, 1e6),
            0.25
        );
    }

    #[test]
    fn selectivities_clamp_to_unit_interval() {
        let dom = Domain {
            dist: 10.0,
            max: Some(10.0),
            min: Some(0.0),
        };
        assert_eq!(atomic_selectivity(Theta::Gt, Some(-5.0), &dom), 1.0);
        assert_eq!(atomic_selectivity(Theta::Gt, Some(50.0), &dom), 0.0);
        assert_eq!(between_selectivity(-10.0, 100.0, &dom), 1.0);
    }

    #[test]
    fn non_numeric_domains_fall_back() {
        let dom = Domain {
            dist: 200_000.0,
            max: None,
            min: None,
        };
        assert_eq!(atomic_selectivity(Theta::Eq, None, &dom), 1.0 / 200_000.0);
        assert_eq!(atomic_selectivity(Theta::Gt, None, &dom), 0.5);
    }

    #[test]
    fn theta_parse_roundtrip() {
        for s in ["=", "<>", "<", "<=", ">", ">="] {
            assert_eq!(Theta::parse(s).unwrap().symbol(), s);
        }
        assert_eq!(Theta::parse("=="), Some(Theta::Eq));
        assert_eq!(Theta::parse("~"), None);
    }

    fn drivetrain_hop() -> PathHop {
        PathHop {
            fan: 1.0,
            totref: 10_000.0,
            totlinks: 20_000.0,
        }
    }

    fn engine_hop() -> PathHop {
        PathHop {
            fan: 1.0,
            totref: 10_000.0,
            totlinks: 10_000.0,
        }
    }

    fn company_hop() -> PathHop {
        PathHop {
            fan: 1.0,
            totref: 20_000.0,
            totlinks: 20_000.0,
        }
    }

    #[test]
    fn fref_base_case_is_k() {
        assert_eq!(fref(&[], 17.0), 17.0);
    }

    #[test]
    fn fref_single_object_stays_single() {
        // Starting from one Vehicle, fan-1 hops reach one object each.
        assert_eq!(fref(&[drivetrain_hop(), engine_hop()], 1.0), 1.0);
        assert_eq!(fref(&[company_hop()], 1.0), 1.0);
    }

    #[test]
    fn fref_saturates_at_totref() {
        // From all 20000 Vehicles, drivetrain reaches r=20000 ≥ 2m=20000 →
        // m = totref = 10000 drivetrains.
        assert_eq!(fref(&[drivetrain_hop()], 20_000.0), 10_000.0);
        // Then all 10000 engines: second hop r=10000, m=10000 → (r+m)/3.
        let v = fref(&[drivetrain_hop(), engine_hop()], 20_000.0);
        assert!((v - 20_000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn paper_p1_selectivity_is_6_25e_2() {
        // P1: v.drivetrain.engine.cylinders = 2 over Tables 13–15.
        // k_m = 10000/16 = 625, hitprb(engine)=1, fref=1, totref=10000.
        let p = PathPredicate {
            hops: vec![drivetrain_hop(), engine_hop()],
            terminal_cardinality: 10_000.0,
            terminal_selectivity: 1.0 / 16.0,
            hitprb_last: 1.0,
        };
        let s = path_selectivity(&p);
        assert!((s - 6.25e-2).abs() < 2e-3, "Table 16 P1: got {s}");
    }

    #[test]
    fn paper_p2_selectivity_formula_vs_printed_value() {
        // P2: v.company.name = 'BMW'. k_m = 200000/200000 = 1,
        // hitprb(manufacturer) = 0.1, totref = 20000, fref = 1.
        //
        // The formula as printed gives o(20000, 1, 0.1) = 5.0e-6; the
        // paper's Table 16 prints 5.00e-5 — exactly the value *without* the
        // hitprb factor (o(20000,1,1) = 1/20000). We reproduce the formula
        // and flag the factor-of-hitprb discrepancy in EXPERIMENTS.md; the
        // ordering decision is identical under both.
        let p = PathPredicate {
            hops: vec![company_hop()],
            terminal_cardinality: 200_000.0,
            terminal_selectivity: 1.0 / 200_000.0,
            hitprb_last: 0.1,
        };
        let s = path_selectivity(&p);
        assert!((s - 5.0e-6).abs() < 1e-7, "formula value: got {s}");
        // The printed-variant check: drop hitprb.
        let printed = PathPredicate {
            hitprb_last: 1.0,
            ..p
        };
        let s2 = path_selectivity(&printed);
        assert!(
            (s2 - 5.0e-5).abs() < 1e-6,
            "Table 16 printed value: got {s2}"
        );
    }

    #[test]
    fn empty_path_is_plain_atomic() {
        let p = PathPredicate {
            hops: vec![],
            terminal_cardinality: 100.0,
            terminal_selectivity: 0.25,
            hitprb_last: 1.0,
        };
        assert_eq!(path_selectivity(&p), 0.25);
    }

    #[test]
    fn longer_paths_with_high_fan_reach_more() {
        let wide = PathHop {
            fan: 5.0,
            totref: 100_000.0,
            totlinks: 500_000.0,
        };
        assert!(fref(&[wide], 100.0) > fref(&[drivetrain_hop()], 100.0));
    }
}
