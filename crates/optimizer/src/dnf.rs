//! Disjunctive-normal-form transformation (Section 7).
//!
//! "The predicates in the WHERE and HAVING clauses in the query are
//! transformed into disjunctive normal form … Thus, the UNION operation is
//! performed after evaluating the predicates for the AND-terms."
//!
//! Generic over the leaf predicate type so both the SQL layer (AST
//! predicates) and tests (booleans) can reuse it. `NOT` is pushed to the
//! leaves (De Morgan) through the [`Negate`] trait.

/// The most AND-terms a WHERE clause is expanded into. A conjunction of n
/// two-way disjunctions has 2^n terms: past this many the clause is not
/// expanded, and the statement filters one scan with it as written.
pub const MAX_DNF_TERMS: usize = 64;

/// A Boolean expression tree over leaf predicates `L`.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr<L> {
    Leaf(L),
    And(Vec<BoolExpr<L>>),
    Or(Vec<BoolExpr<L>>),
    Not(Box<BoolExpr<L>>),
}

/// Leaves must know how to negate themselves (`a = b` ⇒ `a <> b`, …).
pub trait Negate {
    fn negate(&self) -> Self;
}

impl<L: Clone + Negate> BoolExpr<L> {
    /// Push every `Not` down to the leaves.
    fn push_not(&self, negated: bool) -> BoolExpr<L> {
        match self {
            BoolExpr::Leaf(l) => {
                if negated {
                    BoolExpr::Leaf(l.negate())
                } else {
                    BoolExpr::Leaf(l.clone())
                }
            }
            BoolExpr::Not(inner) => inner.push_not(!negated),
            BoolExpr::And(parts) => {
                let mapped = parts.iter().map(|p| p.push_not(negated)).collect();
                if negated {
                    BoolExpr::Or(mapped)
                } else {
                    BoolExpr::And(mapped)
                }
            }
            BoolExpr::Or(parts) => {
                let mapped = parts.iter().map(|p| p.push_not(negated)).collect();
                if negated {
                    BoolExpr::And(mapped)
                } else {
                    BoolExpr::Or(mapped)
                }
            }
        }
    }

    /// The number of AND-terms [`BoolExpr::to_dnf`] would produce, counted
    /// without producing them (saturating at `usize::MAX`).
    pub fn dnf_len(&self) -> usize {
        fn count<L>(e: &BoolExpr<L>, negated: bool) -> usize {
            let (sum, parts) = match e {
                BoolExpr::Leaf(_) => return 1,
                BoolExpr::Not(inner) => return count(inner, !negated),
                // De Morgan swaps the connectives under a NOT.
                BoolExpr::Or(parts) => (!negated, parts),
                BoolExpr::And(parts) => (negated, parts),
            };
            let counts = parts.iter().map(|p| count(p, negated));
            if sum {
                counts.fold(0, usize::saturating_add)
            } else {
                counts.fold(1, usize::saturating_mul)
            }
        }
        count(self, false)
    }

    /// Transform into DNF: a disjunction (outer Vec) of AND-terms (inner
    /// Vecs of leaves), exactly the
    /// `(p11 AND … AND p1m) OR (p21 AND … AND p2r) OR …` form of Section 7.
    pub fn to_dnf(&self) -> Vec<Vec<L>> {
        fn dnf<L: Clone + Negate>(e: &BoolExpr<L>) -> Vec<Vec<L>> {
            match e {
                BoolExpr::Leaf(l) => vec![vec![l.clone()]],
                BoolExpr::Not(_) => unreachable!("push_not removed all Nots"),
                BoolExpr::Or(parts) => parts.iter().flat_map(dnf).collect(),
                BoolExpr::And(parts) => {
                    // Cross-product of the parts' DNFs.
                    let mut acc: Vec<Vec<L>> = vec![Vec::new()];
                    for p in parts {
                        let terms = dnf(p);
                        let mut next = Vec::with_capacity(acc.len() * terms.len());
                        for a in &acc {
                            for t in &terms {
                                let mut merged = a.clone();
                                merged.extend(t.iter().cloned());
                                next.push(merged);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
            }
        }
        dnf(&self.push_not(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test leaf: a variable index, possibly negated.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct V(usize, bool);

    impl Negate for V {
        fn negate(&self) -> Self {
            V(self.0, !self.1)
        }
    }

    fn leaf(i: usize) -> BoolExpr<V> {
        BoolExpr::Leaf(V(i, true))
    }

    /// Evaluate a BoolExpr under an assignment.
    fn eval(e: &BoolExpr<V>, assign: &[bool]) -> bool {
        match e {
            BoolExpr::Leaf(V(i, pos)) => assign[*i] == *pos,
            BoolExpr::And(ps) => ps.iter().all(|p| eval(p, assign)),
            BoolExpr::Or(ps) => ps.iter().any(|p| eval(p, assign)),
            BoolExpr::Not(p) => !eval(p, assign),
        }
    }

    /// Evaluate a DNF under an assignment.
    fn eval_dnf(dnf: &[Vec<V>], assign: &[bool]) -> bool {
        dnf.iter()
            .any(|term| term.iter().all(|V(i, pos)| assign[*i] == *pos))
    }

    fn assert_equivalent(e: &BoolExpr<V>, nvars: usize) {
        let dnf = e.to_dnf();
        assert_eq!(e.dnf_len(), dnf.len(), "{e:?}");
        for mask in 0..(1u32 << nvars) {
            let assign: Vec<bool> = (0..nvars).map(|i| mask & (1 << i) != 0).collect();
            assert_eq!(
                eval(e, &assign),
                eval_dnf(&dnf, &assign),
                "mismatch at {assign:?} for {e:?} → {dnf:?}"
            );
        }
    }

    #[test]
    fn leaf_is_its_own_dnf() {
        assert_eq!(leaf(0).to_dnf(), vec![vec![V(0, true)]]);
    }

    #[test]
    fn simple_and_or() {
        // a AND (b OR c)  →  (a AND b) OR (a AND c)
        let e = BoolExpr::And(vec![leaf(0), BoolExpr::Or(vec![leaf(1), leaf(2)])]);
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0], vec![V(0, true), V(1, true)]);
        assert_eq!(dnf[1], vec![V(0, true), V(2, true)]);
        assert_equivalent(&e, 3);
    }

    #[test]
    fn de_morgan_push_down() {
        // NOT (a AND b) → (¬a) OR (¬b)
        let e = BoolExpr::Not(Box::new(BoolExpr::And(vec![leaf(0), leaf(1)])));
        let dnf = e.to_dnf();
        assert_eq!(dnf, vec![vec![V(0, false)], vec![V(1, false)]]);
        assert_equivalent(&e, 2);
    }

    #[test]
    fn double_negation() {
        let e = BoolExpr::Not(Box::new(BoolExpr::Not(Box::new(leaf(0)))));
        assert_eq!(e.to_dnf(), vec![vec![V(0, true)]]);
    }

    #[test]
    fn nested_mixture_is_equivalent() {
        // (a OR NOT(b AND (c OR NOT d))) AND (d OR (a AND NOT c))
        let e = BoolExpr::And(vec![
            BoolExpr::Or(vec![
                leaf(0),
                BoolExpr::Not(Box::new(BoolExpr::And(vec![
                    leaf(1),
                    BoolExpr::Or(vec![leaf(2), BoolExpr::Not(Box::new(leaf(3)))]),
                ]))),
            ]),
            BoolExpr::Or(vec![
                leaf(3),
                BoolExpr::And(vec![leaf(0), BoolExpr::Not(Box::new(leaf(2)))]),
            ]),
        ]);
        assert_equivalent(&e, 4);
    }

    #[test]
    fn term_count_is_known_before_expansion() {
        // (x0 OR y0) AND … AND (x17 OR y17): 2^18 terms, counted in 36 steps.
        let pairs = |n: usize| {
            let pair = |i| BoolExpr::Or(vec![leaf(2 * i), leaf(2 * i + 1)]);
            BoolExpr::And((0..n).map(pair).collect())
        };
        assert_eq!(pairs(18).dnf_len(), 1 << 18);
        assert_eq!(pairs(6).dnf_len(), MAX_DNF_TERMS);
        // Under NOT each pair becomes one conjunction and the conjunction
        // a disjunction of them: 18 terms.
        assert_eq!(BoolExpr::Not(Box::new(pairs(18))).dnf_len(), 18);
        assert_eq!(pairs(200).dnf_len(), usize::MAX);
    }

    #[test]
    fn random_expressions_are_equivalent() {
        // Deterministic pseudo-random expression generator.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        fn gen(depth: usize, next: &mut impl FnMut() -> u64) -> BoolExpr<V> {
            if depth == 0 || next().is_multiple_of(3) {
                return BoolExpr::Leaf(V((next() % 5) as usize, next().is_multiple_of(2)));
            }
            match next() % 3 {
                0 => BoolExpr::And(vec![gen(depth - 1, next), gen(depth - 1, next)]),
                1 => BoolExpr::Or(vec![gen(depth - 1, next), gen(depth - 1, next)]),
                _ => BoolExpr::Not(Box::new(gen(depth - 1, next))),
            }
        }
        for _ in 0..50 {
            let e = gen(4, &mut next);
            assert_equivalent(&e, 5);
        }
    }
}
