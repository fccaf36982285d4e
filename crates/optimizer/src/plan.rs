//! Access plans — algebra expression trees rendered in the paper's
//! `JOIN(BIND(...), SELECT(...), HASH_PARTITION, v.company = c.self)`
//! notation, so the reproduction's output can be compared character by
//! character with Examples 8.1 and 8.2.
//!
//! A plan is a value: its predicates are trees of [`Atom`]s and opaque
//! [`Conjunct`]s, its join conditions and hash keys are attribute paths,
//! its index kinds an enum. The executor and the estimator read these
//! fields; text is rendered only for display, by the `Display` impls here.

use std::fmt;

use mood_cost::{JoinMethod, Theta};
use mood_datamodel::Value;

/// The constant of an [`Atom`]: the value of the literal as written.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    Value(Value),
    /// `$n` — a value bound at execution. It stands only where θ is `=` or
    /// `<>`, whose §8 selectivities (`1/dist`, `1 − 1/dist`) never read the
    /// constant, so the plan chosen for `$n` is the plan for every value.
    Param(u16),
}

impl Const {
    /// The constant as a number, for selectivity: an integer or a float.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Const::Value(v) => v.as_f64(),
            Const::Param(_) => None,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Value(Value::Integer(i)) => write!(f, "{i}"),
            Const::Value(Value::LongInteger(i)) => write!(f, "{i}"),
            // With a decimal point or an exponent, as a float is written:
            // `2.0`, `1e20`.
            Const::Value(Value::Float(x)) => write!(f, "{x:?}"),
            Const::Value(Value::String(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Const::Value(v) => write!(f, "{v}"),
            Const::Param(n) => write!(f, "${n}"),
        }
    }
}

/// `var.a1.….am`: a path from a range variable's object.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrPath {
    pub var: String,
    pub path: Vec<String>,
}

impl fmt::Display for AttrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.path.join("."))
    }
}

/// `var.a1.….am θ c` — an atomic selection (m = 1) or a path predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    pub lhs: AttrPath,
    pub theta: Theta,
    pub constant: Const,
}

impl Atom {
    pub fn new(var: &str, path: &[String], theta: Theta, constant: &Const) -> Atom {
        let lhs = AttrPath { var: var.to_string(), path: path.to_vec() };
        Atom { lhs, theta, constant: constant.clone() }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.theta.symbol(), self.constant)
    }
}

/// A conjunct the optimizer does not look into — an OtherSelInfo predicate
/// or an explicit join's residual — evaluated exactly as written: entry
/// `id` of the statement's conjunct table (the binder fills it with the
/// statement's own expressions) under `negations` NOTs, none cancelled and
/// none pushed inside it. `text` is the entry as written, for display.
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    pub id: usize,
    pub negations: usize,
    pub text: String,
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.negations;
        write!(f, "{}{}{}", "NOT (".repeat(n), self.text, ")".repeat(n))
    }
}

/// A plan predicate: conjunctions and disjunctions over atoms and opaque
/// conjuncts.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Atom(Atom),
    Conjunct(Conjunct),
    And(Vec<Pred>),
    /// A fused DNF: `(t1) OR (t2) OR …`.
    Or(Vec<Pred>),
}

impl Pred {
    /// The conjunction of `parts`, nested conjunctions flattened; one part
    /// alone is itself.
    pub fn and(parts: impl IntoIterator<Item = Pred>) -> Pred {
        let mut all = Vec::new();
        for part in parts {
            match part {
                Pred::And(inner) => all.extend(inner),
                other => all.push(other),
            }
        }
        match all.len() {
            1 => all.pop().expect("one part"),
            _ => Pred::And(all),
        }
    }

    /// The conjuncts of a conjunction; any other predicate is its own one.
    pub fn conjuncts(&self) -> &[Pred] {
        match self {
            Pred::And(parts) => parts,
            other => std::slice::from_ref(other),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (parts, sep) = match self {
            Pred::Atom(a) => return a.fmt(f),
            Pred::Conjunct(c) => return c.fmt(f),
            Pred::And(parts) => (parts, " AND "),
            Pred::Or(parts) => (parts, " OR "),
        };
        for (i, p) in parts.iter().enumerate() {
            let sep = if i == 0 { "" } else { sep };
            match self {
                Pred::Or(_) => write!(f, "{sep}({p})")?,
                _ => write!(f, "{sep}{p}")?,
            }
        }
        Ok(())
    }
}

/// The index an `INDSEL` probes: a B+-tree on an attribute of the class,
/// or a path index (access-support relation) on a whole path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    BTree,
    PathIndex,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IndexKind::BTree => "BTREE",
            IndexKind::PathIndex => "PATH_INDEX",
        })
    }
}

/// An implicit join's condition `var.attr = target.self`: the reference
/// attribute `attr` of `var`'s object names `target`'s object.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOn {
    pub var: String,
    pub attr: String,
    pub target: String,
}

impl fmt::Display for JoinOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} = {}.self", self.var, self.attr, self.target)
    }
}

/// A (sub-)access plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// `BIND(Class, var)` — the class extent under a range variable.
    Bind { class: String, var: String },
    /// Reference to a previously generated subplan (`T1`, `T2`, …).
    Temp { name: String },
    /// `SELECT(input, predicate)`.
    Select { input: Box<Plan>, predicate: Pred },
    /// `INDSEL(Class, var, index, predicate)` — index-served selection: a
    /// conjunction of atoms.
    IndSel {
        class: String,
        var: String,
        index_kind: IndexKind,
        predicate: Pred,
    },
    /// `JOIN(left, right, METHOD, condition)`.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        method: JoinMethod,
        condition: JoinOn,
    },
    /// `JOIN(left, right, VALUE_HASH, x.a = y.b)`: two FROM components
    /// joined on equal atomic values, the right side hashed on `y.b`, the
    /// left probing with `x.a`; with no key, `JOIN(left, right, PRODUCT,
    /// TRUE)`: their product.
    Combine {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Option<(AttrPath, AttrPath)>,
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
        Plan::Bind { class: class.to_string(), var: var.to_string() }
    }

    pub fn temp(name: &str) -> Plan {
        Plan::Temp { name: name.to_string() }
    }

    pub fn select(input: Plan, predicate: Pred) -> Plan {
        Plan::Select { input: Box::new(input), predicate }
    }

    pub fn join(left: Plan, right: Plan, method: JoinMethod, condition: JoinOn) -> Plan {
        Plan::Join { left: Box::new(left), right: Box::new(right), method, condition }
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
        let own = matches!(self, Plan::Join { .. } | Plan::Combine { .. }) as usize;
        own + self.children().into_iter().map(Plan::join_count).sum::<usize>()
    }

    /// The join methods used, in left-deep order (tests compare against the
    /// paper's examples).
    pub fn join_methods(&self) -> Vec<JoinMethod> {
        let mut out: Vec<_> = self.children().into_iter().flat_map(Plan::join_methods).collect();
        if let Plan::Join { method, .. } = self {
            out.push(*method);
        }
        out
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        // `OP(`, then each child on lines of its own, then the node's own
        // arguments.
        let node = |f: &mut fmt::Formatter<'_>, op: &str| -> fmt::Result {
            writeln!(f, "{pad}{op}(")?;
            for child in self.children() {
                child.fmt_indent(f, indent + 1)?;
                writeln!(f, ",")?;
            }
            write!(f, "{pad}  ")
        };
        let list = |attributes: &[String]| format!("[{}]", attributes.join(", "));
        match self {
            Plan::Bind { class, var } => write!(f, "{pad}BIND({class}, {var})"),
            Plan::Temp { name } => write!(f, "{pad}{name}"),
            // Compact single-line form when the input is a leaf, like the
            // paper's SELECT(BIND(Company, c), c.name = 'BMW').
            Plan::Select { input, predicate }
                if matches!(**input, Plan::Bind { .. } | Plan::Temp { .. }) =>
            {
                write!(f, "{pad}SELECT({input}, {predicate})")
            }
            Plan::Select { predicate, .. } => {
                node(f, "SELECT")?;
                write!(f, "{predicate})")
            }
            Plan::IndSel { class, var, index_kind, predicate } => {
                write!(f, "{pad}INDSEL({class}, {var}, {index_kind}, {predicate})")
            }
            Plan::Join { method, condition, .. } => {
                node(f, "JOIN")?;
                write!(f, "{}, {condition})", method.plan_name())
            }
            Plan::Combine { on, .. } => {
                node(f, "JOIN")?;
                match on {
                    Some((x, y)) => write!(f, "VALUE_HASH, {x} = {y})"),
                    None => write!(f, "PRODUCT, TRUE)"),
                }
            }
            Plan::Project { attributes, .. } => {
                node(f, "PROJECT")?;
                write!(f, "{})", list(attributes))
            }
            Plan::Sort { attributes, .. } => {
                node(f, "SORT")?;
                write!(f, "{})", list(attributes))
            }
            Plan::Partition { attributes, having, .. } => {
                node(f, "PARTITION")?;
                match having {
                    Some(h) => write!(f, "{}, HAVING {h})", list(attributes)),
                    None => write!(f, "{})", list(attributes)),
                }
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

    fn eq(var: &str, attr: &str, c: Value) -> Pred {
        Pred::Atom(Atom::new(var, &[attr.to_string()], Theta::Eq, &Const::Value(c)))
    }

    fn on(var: &str, attr: &str, target: &str) -> JoinOn {
        JoinOn { var: var.into(), attr: attr.into(), target: target.into() }
    }

    #[test]
    fn renders_example_8_1_t1_shape() {
        // T1 : JOIN(BIND(Vehicle, v), SELECT(BIND(Company, c),
        //            c.name = 'BMW'), HASH_PARTITION, v.company = c.self)
        let t1 = Plan::join(
            Plan::bind("Vehicle", "v"),
            Plan::select(Plan::bind("Company", "c"), eq("c", "name", Value::string("BMW"))),
            JoinMethod::HashPartition,
            on("v", "company", "c"),
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
                on("v", "drivetrain", "d"),
            ),
            Plan::select(Plan::bind("VehicleEngine", "e"), eq("e", "cylinders", Value::Integer(2))),
            JoinMethod::ForwardTraversal,
            on("d", "engine", "e"),
        );
        assert_eq!(plan.join_count(), 2);
        assert_eq!(
            plan.join_methods(),
            vec![JoinMethod::ForwardTraversal, JoinMethod::ForwardTraversal]
        );
    }

    /// Predicates print in the paper's notation: conjunctions with ` AND `,
    /// a fused DNF's terms parenthesized, an opaque conjunct under each of
    /// its NOTs, a float constant as a float.
    #[test]
    fn predicates_render_in_the_paper_notation() {
        let s = |text: &str| Value::string(text);
        let two = Const::Value(Value::Float(2.0));
        let lt = Pred::Atom(Atom::new("t", &["w".into()], Theta::Lt, &two));
        let other = Conjunct { id: 0, negations: 2, text: "t.f() > 1".into() };
        let term = Pred::and([eq("t", "s", s("a AND b")), Pred::and([lt, Pred::Conjunct(other)])]);
        assert_eq!(term.conjuncts().len(), 3);
        let fused = Pred::Or(vec![term, eq("t", "id", Value::Integer(3))]);
        assert_eq!(
            fused.to_string(),
            "(t.s = 'a AND b' AND t.w < 2.0 AND NOT (NOT (t.f() > 1))) OR (t.id = 3)"
        );
        assert_eq!(Pred::and([eq("t", "s", s("it's"))]).to_string(), "t.s = 'it''s'");
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
