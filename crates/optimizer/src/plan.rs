//! Access plans — algebra expression trees rendered in the paper's
//! `JOIN(BIND(...), SELECT(...), HASH_PARTITION, v.company = c.self)`
//! notation, so the reproduction's output can be compared character by
//! character with Examples 8.1 and 8.2.

use std::fmt;

use mood_cost::JoinMethod;

/// A (sub-)access plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// `BIND(Class, var)` — the class extent under a range variable.
    Bind { class: String, var: String },
    /// Reference to a previously generated subplan (`T1`, `T2`, …).
    Temp { name: String },
    /// `SELECT(input, predicate)`.
    Select { input: Box<Plan>, predicate: String },
    /// `INDSEL(Class, var, index, predicate)` — index-served selection.
    IndSel {
        class: String,
        var: String,
        index_kind: String,
        predicate: String,
    },
    /// `JOIN(left, right, METHOD, condition)`.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        method: JoinMethod,
        condition: String,
    },
    /// `JOIN(left, right, VALUE_HASH, x.a = y.b)`: two FROM components
    /// joined on equal atomic values, the right side hashed; with no
    /// condition, `JOIN(left, right, PRODUCT, TRUE)`: their product.
    Combine {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Option<String>,
    },
    /// `PROJECT(input, attrs)`.
    Project {
        input: Box<Plan>,
        attributes: Vec<String>,
    },
    /// `SORT(input, attrs)` (ORDER BY).
    Sort {
        input: Box<Plan>,
        attributes: Vec<String>,
    },
    /// `PARTITION(input, attrs)` (GROUP BY), with optional HAVING filter.
    Partition {
        input: Box<Plan>,
        attributes: Vec<String>,
        having: Option<String>,
    },
    /// `UNION(plans…)` — combining AND-term subplans (Section 7).
    Union { inputs: Vec<Plan> },
}

impl Plan {
    pub fn bind(class: &str, var: &str) -> Plan {
        Plan::Bind {
            class: class.to_string(),
            var: var.to_string(),
        }
    }

    pub fn temp(name: &str) -> Plan {
        Plan::Temp {
            name: name.to_string(),
        }
    }

    pub fn select(input: Plan, predicate: impl Into<String>) -> Plan {
        Plan::Select {
            input: Box::new(input),
            predicate: predicate.into(),
        }
    }

    pub fn join(left: Plan, right: Plan, method: JoinMethod, condition: impl Into<String>) -> Plan {
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            method,
            condition: condition.into(),
        }
    }

    /// Child subplans in execution-relevant order (left before right).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Partition { input, .. } => vec![input],
            Plan::Join { left, right, .. } | Plan::Combine { left, right, .. } => {
                vec![left, right]
            }
            Plan::Union { inputs } => inputs.iter().collect(),
            Plan::Bind { .. } | Plan::Temp { .. } | Plan::IndSel { .. } => Vec::new(),
        }
    }

    /// Total node count of this subtree (the node itself plus descendants).
    ///
    /// Together with a pre-order walk this defines stable node identities:
    /// a node's first child has id `id + 1`, and each next sibling follows
    /// at `previous sibling id + previous sibling subtree_size()`. The
    /// estimator, the instrumented executor, and the plan renderer all walk
    /// plans this way, so their per-node data lines up by id.
    pub fn subtree_size(&self) -> usize {
        1 + self.children().iter().map(|c| c.subtree_size()).sum::<usize>()
    }

    /// Number of JOIN nodes (diagnostics, tests).
    pub fn join_count(&self) -> usize {
        match self {
            Plan::Join { left, right, .. } | Plan::Combine { left, right, .. } => {
                1 + left.join_count() + right.join_count()
            }
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Partition { input, .. } => input.join_count(),
            Plan::Union { inputs } => inputs.iter().map(Plan::join_count).sum(),
            _ => 0,
        }
    }

    /// The join methods used, in left-deep order (tests compare against the
    /// paper's examples).
    pub fn join_methods(&self) -> Vec<JoinMethod> {
        let mut out = Vec::new();
        fn walk(p: &Plan, out: &mut Vec<JoinMethod>) {
            match p {
                Plan::Join {
                    left,
                    right,
                    method,
                    ..
                } => {
                    walk(left, out);
                    walk(right, out);
                    out.push(*method);
                }
                Plan::Combine { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Partition { input, .. } => walk(input, out),
                Plan::Union { inputs } => inputs.iter().for_each(|i| walk(i, out)),
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Plan::Bind { class, var } => write!(f, "{pad}BIND({class}, {var})"),
            Plan::Temp { name } => write!(f, "{pad}{name}"),
            Plan::Select { input, predicate } => {
                // Compact single-line form when the input is a leaf, like
                // the paper's SELECT(BIND(Company, c), c.name = 'BMW').
                if matches!(**input, Plan::Bind { .. } | Plan::Temp { .. }) {
                    write!(f, "{pad}SELECT(")?;
                    input.fmt_indent(f, 0)?;
                    write!(f, ", {predicate})")
                } else {
                    writeln!(f, "{pad}SELECT(")?;
                    input.fmt_indent(f, indent + 1)?;
                    writeln!(f, ",")?;
                    write!(f, "{pad}  {predicate})")
                }
            }
            Plan::IndSel {
                class,
                var,
                index_kind,
                predicate,
            } => {
                write!(f, "{pad}INDSEL({class}, {var}, {index_kind}, {predicate})")
            }
            Plan::Join { left, right, .. } | Plan::Combine { left, right, .. } => {
                writeln!(f, "{pad}JOIN(")?;
                left.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
                right.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
                match self {
                    Plan::Join { method, condition, .. } => {
                        write!(f, "{pad}  {}, {condition})", method.plan_name())
                    }
                    Plan::Combine { on: Some(on), .. } => write!(f, "{pad}  VALUE_HASH, {on})"),
                    _ => write!(f, "{pad}  PRODUCT, TRUE)"),
                }
            }
            Plan::Project { input, attributes } => {
                writeln!(f, "{pad}PROJECT(")?;
                input.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
                write!(f, "{pad}  [{}])", attributes.join(", "))
            }
            Plan::Sort { input, attributes } => {
                writeln!(f, "{pad}SORT(")?;
                input.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
                write!(f, "{pad}  [{}])", attributes.join(", "))
            }
            Plan::Partition {
                input,
                attributes,
                having,
            } => {
                writeln!(f, "{pad}PARTITION(")?;
                input.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
                write!(f, "{pad}  [{}]", attributes.join(", "))?;
                if let Some(h) = having {
                    write!(f, ", HAVING {h}")?;
                }
                write!(f, ")")
            }
            Plan::Union { inputs } => {
                writeln!(f, "{pad}UNION(")?;
                for (i, p) in inputs.iter().enumerate() {
                    p.fmt_indent(f, indent + 1)?;
                    if i + 1 < inputs.len() {
                        writeln!(f, ",")?;
                    }
                }
                write!(f, "\n{pad})")
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// A full access plan: named temporaries (in creation order) plus the
/// final expression — the paper's `T1 : JOIN(...)` / final-plan layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSet {
    pub temps: Vec<(String, Plan)>,
    pub root: Plan,
    /// Estimated total cost (model seconds).
    pub estimated_cost: f64,
}

impl fmt::Display for PlanSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, plan) in &self.temps {
            writeln!(f, "{name} : {plan}\n")?;
        }
        write!(f, "{}", self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_example_8_1_t1_shape() {
        // T1 : JOIN(BIND(Vehicle, v), SELECT(BIND(Company, c),
        //            c.name = 'BMW'), HASH_PARTITION, v.company = c.self)
        let t1 = Plan::join(
            Plan::bind("Vehicle", "v"),
            Plan::select(Plan::bind("Company", "c"), "c.name = 'BMW'"),
            JoinMethod::HashPartition,
            "v.company = c.self",
        );
        let s = t1.to_string();
        assert!(s.contains("BIND(Vehicle, v)"), "{s}");
        assert!(
            s.contains("SELECT(BIND(Company, c), c.name = 'BMW')"),
            "{s}"
        );
        assert!(s.contains("HASH_PARTITION, v.company = c.self"), "{s}");
    }

    #[test]
    fn join_counting_and_methods() {
        let plan = Plan::join(
            Plan::join(
                Plan::temp("T1"),
                Plan::bind("VehicleDriveTrain", "d"),
                JoinMethod::ForwardTraversal,
                "v.drivetrain = d.self",
            ),
            Plan::select(Plan::bind("VehicleEngine", "e"), "e.cylinders = 2"),
            JoinMethod::ForwardTraversal,
            "d.engine = e.self",
        );
        assert_eq!(plan.join_count(), 2);
        assert_eq!(
            plan.join_methods(),
            vec![JoinMethod::ForwardTraversal, JoinMethod::ForwardTraversal]
        );
    }

    #[test]
    fn plan_set_prints_temps_first() {
        let set = PlanSet {
            temps: vec![("T1".to_string(), Plan::bind("Vehicle", "v"))],
            root: Plan::temp("T1"),
            estimated_cost: 1.0,
        };
        let s = set.to_string();
        assert!(s.starts_with("T1 : BIND(Vehicle, v)"));
        assert!(s.trim_end().ends_with("T1"));
    }

    #[test]
    fn union_renders_all_branches() {
        let u = Plan::Union {
            inputs: vec![Plan::bind("A", "a"), Plan::bind("B", "b")],
        };
        let s = u.to_string();
        assert!(s.contains("UNION("));
        assert!(s.contains("BIND(A, a)"));
        assert!(s.contains("BIND(B, b)"));
        assert_eq!(u.join_count(), 0);
    }
}
