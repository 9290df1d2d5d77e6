//! Linear integer arithmetic (QF_LIA) feasibility checking.
//!
//! The JMatch verification conditions produce conjunctions of linear
//! constraints over mathematical integers (`val >= 0`, `result = n + 1`,
//! `height(l) - height(r) > 1`, ...). This module decides feasibility of such
//! conjunctions:
//!
//! 1. every atom is normalized into `Σ aᵢ·xᵢ ≤ c` form with integer
//!    coefficients (strict inequalities over integers become non-strict by
//!    subtracting one),
//! 2. the constraints and disequalities are split into variable-connected
//!    components (union-find over the variables each row mentions; rows
//!    without variables form one extra component), which are solved
//!    independently and whose models are merged — the independent-subproblem
//!    decomposition of DPLL(T) arithmetic (Dutertre & de Moura, "A Fast
//!    Linear-Arithmetic Solver for DPLL(T)", CAV 2006),
//! 3. within a component, rational feasibility is decided by Fourier–Motzkin
//!    elimination with integer bound tightening, over dense rows and in
//!    ascending variable order,
//! 4. a sample point is produced by back-substitution, preferring integral
//!    values, and
//! 5. branch-and-bound splits on the lowest-id fractional variable and on
//!    violated disequalities until an integer model is found or the
//!    branching budget is exhausted.
//!
//! Components share no variable, so each one's elimination — and so its
//! rational model — is exactly what eliminating the whole system in the same
//! variable order would give for its variables; the split only stops every
//! elimination step from scanning rows of unrelated components.
//!
//! The branching budget (8000 search nodes per [`check`] call) is
//! charged once for the root and once per branch node in any component, so
//! the number of components alone never exhausts it. It makes the procedure
//! incomplete in the usual way (Presburger-hard corner cases return
//! [`LiaResult::Unknown`]); the JMatch compiler treats `Unknown` as "could
//! not find a counterexample, but there might be one", exactly as the paper
//! describes for iterative-deepening timeouts (§6.2). An `Infeasible` answer
//! always names every input atom; the solver minimizes the conflict itself.

use crate::rational::Rat;
use crate::term::{TermData, TermId, TermStore};
use std::collections::HashMap;

/// Result of a linear-arithmetic feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// The constraints admit an integer solution; the model maps every atomic
    /// integer term to its value.
    Feasible(HashMap<TermId, i64>),
    /// The constraints are unsatisfiable over the rationals (hence over the
    /// integers). The payload is the subset of input atoms that participated.
    Infeasible(Vec<TermId>),
    /// The branching budget was exhausted before a decision was reached.
    Unknown,
}

/// A linear expression `Σ coeff·key + constant` over atomic integer terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficients per atomic term (variables and integer-sorted
    /// uninterpreted applications).
    pub coeffs: HashMap<TermId, i64>,
    /// Constant offset.
    pub constant: i64,
}

impl LinExpr {
    fn add_term(&mut self, key: TermId, coeff: i64) {
        let entry = self.coeffs.entry(key).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            self.coeffs.remove(&key);
        }
    }

    fn scale(&mut self, c: i64) {
        for v in self.coeffs.values_mut() {
            *v *= c;
        }
        self.constant *= c;
    }

    fn add(&mut self, other: &LinExpr, sign: i64) {
        for (&k, &v) in &other.coeffs {
            self.add_term(k, sign * v);
        }
        self.constant += sign * other.constant;
    }
}

/// Extracts a linear expression from an integer-sorted term.
///
/// Atomic subterms (variables and uninterpreted applications) become keys of
/// the expression; everything else must be built from `+`, `-`, unary
/// negation, constant multiplication and integer constants.
///
/// # Panics
///
/// Panics if the term is not integer-sorted.
pub fn linearize(store: &TermStore, t: TermId) -> LinExpr {
    assert!(
        store.sort(t).is_int(),
        "linearize: expected an Int term, got {}",
        store.display(t)
    );
    let mut out = LinExpr::default();
    linearize_into(store, t, 1, &mut out);
    out
}

fn linearize_into(store: &TermStore, t: TermId, sign: i64, out: &mut LinExpr) {
    match store.data(t) {
        TermData::IntConst(n) => out.constant += sign * n,
        TermData::Var(..) | TermData::App(..) => out.add_term(t, sign),
        TermData::Add(a, b) => {
            linearize_into(store, *a, sign, out);
            linearize_into(store, *b, sign, out);
        }
        TermData::Sub(a, b) => {
            linearize_into(store, *a, sign, out);
            linearize_into(store, *b, -sign, out);
        }
        TermData::Neg(a) => linearize_into(store, *a, -sign, out),
        TermData::MulConst(c, a) => linearize_into(store, *a, sign * c, out),
        other => panic!("non-linear integer term: {other:?}"),
    }
}

/// A single normalized constraint `Σ coeff·var ≤ bound`.
#[derive(Debug, Clone)]
struct Constraint {
    coeffs: HashMap<TermId, i64>,
    bound: i64,
}

/// An assignment of a truth value to a theory atom.
pub type AtomAssignment = (TermId, bool);

/// Checks feasibility of a set of integer-arithmetic atom assignments.
///
/// `assignments` maps each arithmetic atom (an `Le`, `Lt` or integer `Eq`
/// term) to the truth value the SAT core chose for it. Atoms of other
/// theories must be filtered out by the caller.
pub fn check(store: &TermStore, assignments: &[AtomAssignment]) -> LiaResult {
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut disequalities: Vec<Diseq> = Vec::new();

    for &(atom, value) in assignments {
        match store.data(atom) {
            TermData::Le(a, b) => {
                let mut e = linearize(store, *a);
                let eb = linearize(store, *b);
                e.add(&eb, -1);
                if value {
                    // a - b <= 0
                    constraints.push(from_expr(e, 0));
                } else {
                    // a - b > 0  <=>  b - a <= -1
                    let mut neg = e;
                    neg.scale(-1);
                    constraints.push(from_expr(neg, -1));
                }
            }
            TermData::Lt(a, b) => {
                let mut e = linearize(store, *a);
                let eb = linearize(store, *b);
                e.add(&eb, -1);
                if value {
                    // a - b < 0  <=>  a - b <= -1
                    constraints.push(from_expr(e, -1));
                } else {
                    // a - b >= 0  <=>  b - a <= 0
                    let mut neg = e;
                    neg.scale(-1);
                    constraints.push(from_expr(neg, 0));
                }
            }
            TermData::Eq(a, b) if store.sort(*a).is_int() => {
                let mut e = linearize(store, *a);
                let eb = linearize(store, *b);
                e.add(&eb, -1);
                if value {
                    constraints.push(from_expr(e.clone(), 0));
                    let mut neg = e;
                    neg.scale(-1);
                    constraints.push(from_expr(neg, 0));
                } else {
                    disequalities.push((e, atom));
                }
            }
            other => panic!("not an arithmetic atom: {other:?}"),
        }
    }

    // The root search node is charged once per query; every branch node
    // after it, in whichever component, draws from the same budget.
    let mut budget = Budget {
        remaining: BRANCH_BUDGET,
        exhausted: false,
    };
    budget.spend();
    let mut model: HashMap<TermId, i64> = HashMap::new();
    for (rows, diseqs) in components(constraints, disequalities) {
        match solve_rec(&rows, &diseqs, &mut budget) {
            Some(m) => model.extend(m),
            None if budget.exhausted => return LiaResult::Unknown,
            None => {
                let involved: Vec<TermId> = assignments.iter().map(|&(a, _)| a).collect();
                return LiaResult::Infeasible(involved);
            }
        }
    }
    LiaResult::Feasible(model)
}

/// Search nodes branch-and-bound may visit per [`check`] call.
const BRANCH_BUDGET: u64 = 8_000;

type Diseq = (LinExpr, TermId);

/// Splits a system into independent subproblems: constraints and
/// disequalities that share no variable can be solved separately, and their
/// models merged. Constant-only rows form one extra component (first, so a
/// trivially false row is found before any elimination). Components come out
/// in order of first appearance; within one, rows keep their input order.
fn components(
    constraints: Vec<Constraint>,
    disequalities: Vec<Diseq>,
) -> Vec<(Vec<Constraint>, Vec<Diseq>)> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Union-find over the variables, densely indexed; each row remembers one
    // of its variables, or none.
    let mut index: HashMap<TermId, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    let supports = constraints
        .iter()
        .map(|c| &c.coeffs)
        .chain(disequalities.iter().map(|(e, _)| &e.coeffs));
    let mut first_var: Vec<Option<usize>> = Vec::new();
    for coeffs in supports {
        let mut first = None;
        for &v in coeffs.keys() {
            let fresh = parent.len();
            let i = *index.entry(v).or_insert(fresh);
            if i == fresh {
                parent.push(i);
            }
            match first {
                None => first = Some(i),
                Some(f) => {
                    let (rf, ri) = (find(&mut parent, f), find(&mut parent, i));
                    parent[ri] = rf;
                }
            }
        }
        first_var.push(first);
    }

    // Slot 0 holds the constant-only rows; variable components follow.
    let mut slot_of_root: HashMap<usize, usize> = HashMap::new();
    let slots: Vec<usize> = first_var
        .into_iter()
        .map(|v| match v {
            None => 0,
            Some(i) => {
                let next = slot_of_root.len() + 1;
                *slot_of_root.entry(find(&mut parent, i)).or_insert(next)
            }
        })
        .collect();
    let mut out: Vec<(Vec<Constraint>, Vec<Diseq>)> = Vec::new();
    out.resize_with(slot_of_root.len() + 1, Default::default);
    let (row_slots, diseq_slots) = slots.split_at(constraints.len());
    for (c, &s) in constraints.into_iter().zip(row_slots) {
        out[s].0.push(c);
    }
    for (d, &s) in disequalities.into_iter().zip(diseq_slots) {
        out[s].1.push(d);
    }
    out
}

fn from_expr(e: LinExpr, slack: i64) -> Constraint {
    // e.coeffs + e.constant <= slack  =>  coeffs <= slack - constant
    Constraint {
        coeffs: e.coeffs,
        bound: slack - e.constant,
    }
}

struct Budget {
    remaining: u64,
    exhausted: bool,
}

impl Budget {
    fn spend(&mut self) -> bool {
        if self.remaining == 0 {
            self.exhausted = true;
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// Recursive branch-and-bound search over one component. Returns an integer
/// model or `None`.
fn solve_rec(
    constraints: &[Constraint],
    disequalities: &[Diseq],
    budget: &mut Budget,
) -> Option<HashMap<TermId, i64>> {
    let rational = fourier_motzkin(constraints)?;

    // Branch on the lowest-id fractional variable, so the search (and the
    // model it ends in) does not depend on hash iteration order.
    if let Some((&var, val)) = rational
        .iter()
        .filter(|(_, v)| v.as_integer().is_none())
        .min_by_key(|(&var, _)| var)
    {
        // Branch: var <= floor(val)  or  var >= ceil(val).
        return branch(
            constraints,
            single_var_le(var, val.floor() as i64),
            disequalities,
            budget,
        )
        .or_else(|| {
            branch(
                constraints,
                single_var_ge(var, val.ceil() as i64),
                disequalities,
                budget,
            )
        });
    }
    let int_model: HashMap<TermId, i64> = rational
        .into_iter()
        .map(|(var, val)| (var, val.as_integer().expect("integral") as i64))
        .collect();

    // All values integral; check disequalities.
    for (expr, _origin) in disequalities {
        let mut v = expr.constant;
        for (&var, &c) in &expr.coeffs {
            v += c * int_model.get(&var).copied().unwrap_or(0);
        }
        if v == 0 {
            // Violated: expr = 0. Branch expr <= -1 or expr >= 1.
            let below = Constraint {
                coeffs: expr.coeffs.clone(),
                bound: -expr.constant - 1,
            };
            let above = Constraint {
                coeffs: expr.coeffs.iter().map(|(&k, &v)| (k, -v)).collect(),
                bound: expr.constant - 1,
            };
            return branch(constraints, below, disequalities, budget)
                .or_else(|| branch(constraints, above, disequalities, budget));
        }
    }

    Some(int_model)
}

/// One branch node: `constraints` plus the cut, charged to the budget.
fn branch(
    constraints: &[Constraint],
    cut: Constraint,
    disequalities: &[Diseq],
    budget: &mut Budget,
) -> Option<HashMap<TermId, i64>> {
    if !budget.spend() {
        return None;
    }
    let mut sub = constraints.to_vec();
    sub.push(cut);
    solve_rec(&sub, disequalities, budget)
}

fn single_var_le(var: TermId, bound: i64) -> Constraint {
    let mut coeffs = HashMap::new();
    coeffs.insert(var, 1);
    Constraint { coeffs, bound }
}

fn single_var_ge(var: TermId, bound: i64) -> Constraint {
    let mut coeffs = HashMap::new();
    coeffs.insert(var, -1);
    Constraint {
        coeffs,
        bound: -bound,
    }
}

/// Fourier–Motzkin elimination with integer tightening. Returns a rational
/// model if the constraints are feasible over the rationals, `None` otherwise.
fn fourier_motzkin(constraints: &[Constraint]) -> Option<HashMap<TermId, Rat>> {
    // Collect the variables in a deterministic order.
    let mut vars: Vec<TermId> = Vec::new();
    for c in constraints {
        for &v in c.coeffs.keys() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars.sort();

    // Working representation: (coeffs as Vec aligned with `vars`, bound).
    #[derive(Clone, Debug)]
    struct Row {
        coeffs: Vec<i64>,
        bound: i64,
    }
    let rows: Vec<Row> = constraints
        .iter()
        .map(|c| Row {
            coeffs: vars
                .iter()
                .map(|v| c.coeffs.get(v).copied().unwrap_or(0))
                .collect(),
            bound: c.bound,
        })
        .collect();

    fn gcd(a: i64, b: i64) -> i64 {
        let (mut a, mut b) = (a.abs(), b.abs());
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    fn tighten(row: &mut Row) {
        let mut g = 0;
        for &c in &row.coeffs {
            g = gcd(g, c);
        }
        if g > 1 {
            for c in &mut row.coeffs {
                *c /= g;
            }
            // integer tightening: floor division of the bound
            row.bound = row.bound.div_euclid(g);
        }
    }

    // Eliminate variables one at a time; remember the constraints mentioning
    // each eliminated variable for back-substitution.
    let mut elimination_steps: Vec<(usize, Vec<Row>)> = Vec::new();
    let mut current = rows.clone();
    for c in &mut current {
        tighten(c);
    }

    for vi in 0..vars.len() {
        let mentioning: Vec<Row> = current
            .iter()
            .filter(|r| r.coeffs[vi] != 0)
            .cloned()
            .collect();
        let mut next: Vec<Row> = current
            .iter()
            .filter(|r| r.coeffs[vi] == 0)
            .cloned()
            .collect();
        let lowers: Vec<&Row> = mentioning.iter().filter(|r| r.coeffs[vi] < 0).collect();
        let uppers: Vec<&Row> = mentioning.iter().filter(|r| r.coeffs[vi] > 0).collect();
        for lo in &lowers {
            for up in &uppers {
                // lo: -a*x + rest_lo <= b_lo (a > 0);  up: c*x + rest_up <= b_up (c > 0)
                let a = -lo.coeffs[vi];
                let c = up.coeffs[vi];
                debug_assert!(a > 0 && c > 0);
                let mut combined = Row {
                    coeffs: vec![0; vars.len()],
                    bound: c * lo.bound + a * up.bound,
                };
                for k in 0..vars.len() {
                    combined.coeffs[k] = c * lo.coeffs[k] + a * up.coeffs[k];
                }
                debug_assert_eq!(combined.coeffs[vi], 0);
                tighten(&mut combined);
                next.push(combined);
            }
        }
        elimination_steps.push((vi, mentioning));
        current = next;
        // Cheap subsumption: drop duplicate rows to curb blowup.
        current.sort_by(|a, b| a.coeffs.cmp(&b.coeffs).then(a.bound.cmp(&b.bound)));
        current.dedup_by(|a, b| a.coeffs == b.coeffs && a.bound >= b.bound);
    }

    // All variables eliminated: remaining rows are `0 <= bound` facts.
    for r in &current {
        if r.bound < 0 {
            return None;
        }
    }

    // Back-substitute in reverse elimination order.
    let mut model: HashMap<TermId, Rat> = HashMap::new();
    for (vi, mentioning) in elimination_steps.iter().rev() {
        let var = vars[*vi];
        let mut lower: Option<Rat> = None;
        let mut upper: Option<Rat> = None;
        for row in mentioning {
            // coeff*x + rest <= bound
            let coeff = row.coeffs[*vi];
            let mut rest = Rat::int(-(row.bound as i128));
            for (k, (&coeff_k, var_k)) in row.coeffs.iter().zip(vars.iter()).enumerate() {
                if k == *vi || coeff_k == 0 {
                    continue;
                }
                let val = model.get(var_k).copied().unwrap_or(Rat::ZERO);
                rest = rest + Rat::int(coeff_k as i128) * val;
            }
            // coeff*x <= -rest
            let limit = -rest / Rat::int(coeff as i128);
            if coeff > 0 {
                upper = Some(match upper {
                    None => limit,
                    Some(u) => {
                        if limit < u {
                            limit
                        } else {
                            u
                        }
                    }
                });
            } else {
                lower = Some(match lower {
                    None => limit,
                    Some(l) => {
                        if limit > l {
                            limit
                        } else {
                            l
                        }
                    }
                });
            }
        }
        let value = choose_value(lower, upper);
        model.insert(var, value);
    }
    Some(model)
}

/// Chooses a value within `[lower, upper]`, preferring small integers.
fn choose_value(lower: Option<Rat>, upper: Option<Rat>) -> Rat {
    match (lower, upper) {
        (None, None) => Rat::ZERO,
        (Some(l), None) => {
            if l <= Rat::ZERO {
                Rat::ZERO
            } else {
                Rat::int(l.ceil())
            }
        }
        (None, Some(u)) => {
            if u >= Rat::ZERO {
                Rat::ZERO
            } else {
                Rat::int(u.floor())
            }
        }
        (Some(l), Some(u)) => {
            if l <= Rat::ZERO && Rat::ZERO <= u {
                return Rat::ZERO;
            }
            // Prefer an integer in [l, u]; otherwise the midpoint.
            let li = l.ceil();
            if Rat::int(li) <= u {
                Rat::int(li)
            } else {
                (l + u) * Rat::new(1, 2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;
    use crate::testutil::XorShift;

    fn int_var(store: &mut TermStore, name: &str) -> TermId {
        store.var(name, Sort::Int)
    }

    #[test]
    fn linearize_combines_terms() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let y = int_var(&mut s, "y");
        let two = s.int(2);
        let tx = s.mul_const(3, x);
        let sum = s.add(tx, y);
        let e = s.sub(sum, two);
        let lin = linearize(&s, e);
        assert_eq!(lin.constant, -2);
        assert_eq!(lin.coeffs.get(&x), Some(&3));
        assert_eq!(lin.coeffs.get(&y), Some(&1));
    }

    #[test]
    fn simple_feasible_bounds() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let zero = s.int(0);
        let ten = s.int(10);
        let a1 = s.le(zero, x);
        let a2 = s.le(x, ten);
        let r = check(&s, &[(a1, true), (a2, true)]);
        match r {
            LiaResult::Feasible(m) => {
                let v = m[&x];
                assert!((0..=10).contains(&v));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn simple_infeasible_bounds() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let zero = s.int(0);
        let a1 = s.lt(x, zero);
        let a2 = s.le(zero, x);
        let r = check(&s, &[(a1, true), (a2, true)]);
        assert!(matches!(r, LiaResult::Infeasible(_)));
    }

    #[test]
    fn negated_atoms_flip_constraints() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let zero = s.int(0);
        // not (x <= 0)  means x >= 1
        let a = s.le(x, zero);
        let r = check(&s, &[(a, false)]);
        match r {
            LiaResult::Feasible(m) => assert!(m[&x] >= 1),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn equalities_propagate_values() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let y = int_var(&mut s, "y");
        let one = s.int(1);
        let xp1 = s.add(x, one);
        let eq = s.eq(y, xp1);
        let three = s.int(3);
        let yeq3 = s.eq(y, three);
        let r = check(&s, &[(eq, true), (yeq3, true)]);
        match r {
            LiaResult::Feasible(m) => {
                assert_eq!(m[&y], 3);
                assert_eq!(m[&x], 2);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_equalities_are_infeasible() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let one = s.int(1);
        let two = s.int(2);
        let e1 = s.eq(x, one);
        let e2 = s.eq(x, two);
        let r = check(&s, &[(e1, true), (e2, true)]);
        assert!(matches!(r, LiaResult::Infeasible(_)));
    }

    #[test]
    fn disequality_branches_away_from_equal_value() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let zero = s.int(0);
        let five = s.int(5);
        let a1 = s.le(zero, x);
        let a2 = s.le(x, five);
        let eq0 = s.eq(x, zero);
        // x in [0,5] and x != 0
        let r = check(&s, &[(a1, true), (a2, true), (eq0, false)]);
        match r {
            LiaResult::Feasible(m) => {
                assert!(m[&x] >= 1 && m[&x] <= 5);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn pinched_disequality_is_infeasible() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let three = s.int(3);
        let le = s.le(x, three);
        let ge = s.ge(x, three);
        let eq = s.eq(x, three);
        let r = check(&s, &[(le, true), (ge, true), (eq, false)]);
        assert!(matches!(r, LiaResult::Infeasible(_)));
    }

    #[test]
    fn integer_tightening_finds_gap() {
        // 2x >= 1 and 2x <= 1 has the rational solution x = 1/2 but no integer
        // solution. Branch and bound must report infeasible.
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let one = s.int(1);
        let two_x = s.mul_const(2, x);
        let a1 = s.ge(two_x, one);
        let a2 = s.le(two_x, one);
        let r = check(&s, &[(a1, true), (a2, true)]);
        assert!(matches!(r, LiaResult::Infeasible(_)));
    }

    #[test]
    fn chain_of_inequalities() {
        // x < y, y < z, z < x is infeasible.
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let y = int_var(&mut s, "y");
        let z = int_var(&mut s, "z");
        let a1 = s.lt(x, y);
        let a2 = s.lt(y, z);
        let a3 = s.lt(z, x);
        let r = check(&s, &[(a1, true), (a2, true), (a3, true)]);
        assert!(matches!(r, LiaResult::Infeasible(_)));
        // Dropping one link makes it feasible.
        let r2 = check(&s, &[(a1, true), (a2, true)]);
        assert!(matches!(r2, LiaResult::Feasible(_)));
    }

    #[test]
    fn uninterpreted_int_application_is_an_atomic_variable() {
        let mut s = TermStore::new();
        let x = int_var(&mut s, "x");
        let h = s.app("height", vec![x], Sort::Int);
        let zero = s.int(0);
        let a1 = s.ge(h, zero);
        let one = s.int(1);
        let a2 = s.le(h, one);
        let r = check(&s, &[(a1, true), (a2, true)]);
        match r {
            LiaResult::Feasible(m) => assert!(m[&h] == 0 || m[&h] == 1),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn model_satisfies_all_constraints_property() {
        // A small randomized property: generate constraint systems and check
        // that reported models satisfy them.
        let mut rng = XorShift(0x2026_0615);
        for _ in 0..100 {
            let mut s = TermStore::new();
            let vars: Vec<TermId> = (0..3).map(|i| s.var(&format!("v{i}"), Sort::Int)).collect();
            let mut atoms = Vec::new();
            for _ in 0..4 {
                let a = vars[rng.range(0, 3) as usize];
                let b = vars[rng.range(0, 3) as usize];
                let c = s.int(rng.range(-5, 5));
                let lhs = s.add(a, c);
                let atom = if rng.chance(50) {
                    s.le(lhs, b)
                } else {
                    s.lt(b, lhs)
                };
                atoms.push((atom, rng.chance(80)));
            }
            if let LiaResult::Feasible(m) = check(&s, &atoms) {
                for &(atom, val) in &atoms {
                    let holds = eval_atom(&s, atom, &m);
                    assert_eq!(holds, val, "model violates atom {}", s.display(atom));
                }
            }
        }
    }

    /// `Σ coeffs·vars` with every variable present (a zero coefficient
    /// still yields a term), so the sum is never a bare constant.
    fn combination(s: &mut TermStore, coeffs: &[i64], vars: &[TermId]) -> TermId {
        let mut terms = coeffs.iter().zip(vars).map(|(&c, &v)| s.mul_const(c, v));
        let first = terms.next().expect("at least one variable");
        let rest: Vec<TermId> = terms.collect();
        rest.into_iter().fold(first, |acc, t| s.add(acc, t))
    }

    #[test]
    fn random_systems_agree_with_box_enumeration() {
        // Seeded systems over at most 4 variables, boxed to [-4, 4]: an
        // `Infeasible` answer must leave no integer point of the box, and a
        // `Feasible` model must satisfy every input atom. Atoms mention
        // random variable subsets, so the systems split into components.
        let mut rng = XorShift(0x5eed_1a11);
        let (mut feasible, mut infeasible) = (0, 0);
        for _ in 0..300 {
            let mut s = TermStore::new();
            let n = rng.range(1, 5) as usize;
            let vars: Vec<TermId> = (0..n).map(|i| s.var(&format!("v{i}"), Sort::Int)).collect();
            let (lo, hi) = (s.int(-4), s.int(4));
            let mut atoms = Vec::new();
            for &v in &vars {
                atoms.push((s.le(lo, v), true));
                atoms.push((s.le(v, hi), true));
            }
            for _ in 0..rng.range(1, 6) {
                let picked: Vec<TermId> = vars.iter().copied().filter(|_| rng.chance(60)).collect();
                if picked.is_empty() {
                    continue;
                }
                let coeffs: Vec<i64> = picked.iter().map(|_| rng.range(-3, 4)).collect();
                let e = combination(&mut s, &coeffs, &picked);
                let k = s.int(rng.range(-4, 5));
                let atom = match rng.range(0, 3) {
                    0 => s.le(e, k),
                    1 => s.lt(e, k),
                    _ => s.eq(e, k),
                };
                atoms.push((atom, rng.chance(70)));
            }
            match check(&s, &atoms) {
                LiaResult::Feasible(m) => {
                    feasible += 1;
                    for &(atom, val) in &atoms {
                        assert_eq!(eval_atom(&s, atom, &m), val, "{}", s.display(atom));
                    }
                }
                LiaResult::Infeasible(_) => {
                    infeasible += 1;
                    let points = 9usize.pow(n as u32);
                    for code in 0..points {
                        let m: HashMap<TermId, i64> = vars
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| (v, (code / 9usize.pow(i as u32) % 9) as i64 - 4))
                            .collect();
                        assert!(
                            !atoms.iter().all(|&(a, val)| eval_atom(&s, a, &m) == val),
                            "reported infeasible, but {m:?} satisfies every atom"
                        );
                    }
                }
                LiaResult::Unknown => panic!("small boxed system came back Unknown"),
            }
        }
        assert!(
            feasible >= 50 && infeasible >= 50,
            "{feasible}/{infeasible}"
        );
    }

    #[test]
    fn branch_and_bound_models_are_deterministic() {
        // Rationally, v0 and v1 both come out fractional, and the integer
        // model reached depends on which one is branched on first. Every run
        // on a fresh store must branch the same way.
        let run = || {
            let mut s = TermStore::new();
            let v: Vec<TermId> = (0..3).map(|i| s.var(&format!("v{i}"), Sort::Int)).collect();
            let (lo, hi, zero) = (s.int(-4), s.int(4), s.int(0));
            let mut atoms = Vec::new();
            for &x in &v {
                atoms.push((s.le(lo, x), true));
                atoms.push((s.le(x, hi), true));
            }
            let e1 = combination(&mut s, &[1, 2], &v[..2]);
            atoms.push((s.eq(e1, zero), true));
            let e2 = combination(&mut s, &[-1, 3, 2], &v);
            let two = s.int(2);
            atoms.push((s.le(e2, two), true));
            let e3 = combination(&mut s, &[2, -1, 2], &v);
            let minus_two = s.int(-2);
            atoms.push((s.le(e3, minus_two), true));
            match check(&s, &atoms) {
                LiaResult::Feasible(m) => v.iter().map(|x| m[x]).collect::<Vec<i64>>(),
                other => panic!("expected feasible, got {other:?}"),
            }
        };
        let first = run();
        for _ in 0..50 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn many_components_share_one_branch_budget() {
        // 9000 independent bounded variables plus one component that only
        // becomes integral after branching (x = 1/2 rationally). The budget
        // counts branch nodes, so the component count alone cannot exhaust
        // it.
        let mut s = TermStore::new();
        let mut atoms = Vec::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let (one, two) = (s.int(1), s.int(2));
        let two_x = s.mul_const(2, x);
        atoms.push((s.le(one, y), true));
        atoms.push((s.le(y, two), true));
        atoms.push((s.le(two_x, y), true));
        atoms.push((s.le(y, two_x), true));
        for i in 0..9000 {
            let v = s.var(&format!("c{i}"), Sort::Int);
            let bound = s.int(i);
            atoms.push((s.le(v, bound), true));
        }
        match check(&s, &atoms) {
            LiaResult::Feasible(m) => {
                assert_eq!((m[&x], m[&y]), (1, 2));
                assert_eq!(m.len(), 9002);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    fn eval_atom(s: &TermStore, atom: TermId, m: &HashMap<TermId, i64>) -> bool {
        fn eval(s: &TermStore, t: TermId, m: &HashMap<TermId, i64>) -> i64 {
            match s.data(t) {
                TermData::IntConst(n) => *n,
                TermData::Var(..) | TermData::App(..) => m.get(&t).copied().unwrap_or(0),
                TermData::Add(a, b) => eval(s, *a, m) + eval(s, *b, m),
                TermData::Sub(a, b) => eval(s, *a, m) - eval(s, *b, m),
                TermData::Neg(a) => -eval(s, *a, m),
                TermData::MulConst(c, a) => c * eval(s, *a, m),
                other => panic!("unexpected {other:?}"),
            }
        }
        match s.data(atom) {
            TermData::Le(a, b) => eval(s, *a, m) <= eval(s, *b, m),
            TermData::Lt(a, b) => eval(s, *a, m) < eval(s, *b, m),
            TermData::Eq(a, b) => eval(s, *a, m) == eval(s, *b, m),
            other => panic!("unexpected {other:?}"),
        }
    }
}
