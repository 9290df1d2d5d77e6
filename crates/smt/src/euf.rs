//! Congruence closure for equality and uninterpreted functions (EUF).
//!
//! JMatch verification conditions use uninterpreted object sorts for every
//! reference type and uninterpreted functions for method results that the
//! verifier treats abstractly. This module checks a set of equality and
//! predicate-application assignments for consistency:
//!
//! * asserted equalities are merged with union-find,
//! * congruence (`x = y  ⟹  f(x) = f(y)`) is propagated to a fixed point,
//! * asserted disequalities and distinct integer constants must not end up in
//!   the same class, and
//! * congruent uninterpreted *predicate* applications must not be assigned
//!   opposite truth values.
//!
//! Congruence is found through a *signature table* keyed by
//! `(symbol, [find(arg)…])` (Downey, Sethi & Tarjan, "Variations on the
//! Common Subexpression Problem", JACM 1980): each closure round hashes every
//! application once and merges it with the first application already holding
//! its signature, and the predicate check is one more pass that records the
//! polarity per signature and fails as soon as a signature is seen with both.
//! A check is therefore linear in the relevant terms per closure round, not
//! quadratic in the predicate atoms.
//!
//! The check is used as a post-model filter in the DPLL(T) loop: a conflict
//! produces a blocking clause over the participating atoms.

use crate::sym::Symbol;
use crate::term::{TermData, TermId, TermStore};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Result of an EUF consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EufResult {
    /// The assignments are consistent with the theory of equality.
    Consistent,
    /// The assignments are inconsistent; the payload lists the atoms involved.
    Inconsistent(Vec<TermId>),
}

/// An assignment of a truth value to an equality or predicate atom.
pub type AtomAssignment = (TermId, bool);

#[derive(Debug, Default)]
struct UnionFind {
    parent: HashMap<TermId, TermId>,
}

impl UnionFind {
    fn find(&mut self, x: TermId) -> TermId {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: TermId, b: TermId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.parent.insert(ra, rb);
        true
    }
}

/// Checks consistency of equality/predicate assignments.
///
/// `assignments` should contain:
/// * `Eq` atoms (of any sort) with their truth values, and
/// * boolean `App` atoms (uninterpreted predicates) with their truth values.
///
/// Other atoms are ignored so the caller can pass its full atom assignment.
pub fn check(store: &TermStore, assignments: &[AtomAssignment]) -> EufResult {
    let mut uf = UnionFind::default();
    let mut disequalities: Vec<(TermId, TermId)> = Vec::new();
    let mut predicates: Vec<(TermId, bool)> = Vec::new();
    let mut relevant_terms: HashSet<TermId> = HashSet::new();

    for &(atom, value) in assignments {
        match store.data(atom) {
            TermData::Eq(a, b) => {
                collect_subterms(store, *a, &mut relevant_terms);
                collect_subterms(store, *b, &mut relevant_terms);
                if value {
                    uf.union(*a, *b);
                } else {
                    disequalities.push((*a, *b));
                }
            }
            TermData::App(..) => {
                collect_subterms(store, atom, &mut relevant_terms);
                predicates.push((atom, value));
            }
            _ => {}
        }
    }

    // Congruence closure to a fixed point: one signature-table pass per
    // round merges every application with the first one sharing its key.
    let apps: Vec<(TermId, Symbol, &[TermId])> = relevant_terms
        .iter()
        .filter_map(|&t| match store.data(t) {
            TermData::App(sym, args, _) => Some((t, *sym, args.as_slice())),
            _ => None,
        })
        .collect();
    let mut table: HashMap<(Symbol, Vec<TermId>), TermId> = HashMap::new();
    loop {
        let mut changed = false;
        table.clear();
        for &(app, sym, args) in &apps {
            let key = (sym, args.iter().map(|&a| uf.find(a)).collect());
            match table.entry(key) {
                Entry::Occupied(e) => changed |= uf.union(*e.get(), app),
                Entry::Vacant(e) => {
                    e.insert(app);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let inconsistent = || EufResult::Inconsistent(assignments.iter().map(|&(a, _)| a).collect());

    // Check disequalities.
    for &(a, b) in &disequalities {
        if uf.find(a) == uf.find(b) {
            return inconsistent();
        }
    }

    // Distinct integer constants are never equal: a class may hold at most
    // one of the relevant constants (they are hash-consed, so distinct ids
    // are distinct values).
    let mut constant_of: HashMap<TermId, TermId> = HashMap::new();
    for &t in &relevant_terms {
        if matches!(store.data(t), TermData::IntConst(_))
            && constant_of.insert(uf.find(t), t).is_some()
        {
            return inconsistent();
        }
    }

    // Predicate congruence: applications with the same signature
    // `(symbol, [find(arg)…])` must not carry opposite truth values.
    let mut polarity: HashMap<(Symbol, Vec<TermId>), bool> = HashMap::new();
    for &(p, value) in &predicates {
        if let TermData::App(sym, args, _) = store.data(p) {
            let key = (*sym, args.iter().map(|&a| uf.find(a)).collect());
            if *polarity.entry(key).or_insert(value) != value {
                return inconsistent();
            }
        }
    }

    EufResult::Consistent
}

/// Computes equivalence-class representatives for the object-sorted terms
/// mentioned by a *consistent* set of assignments. Used for model building.
pub fn classes(store: &TermStore, assignments: &[AtomAssignment]) -> HashMap<TermId, u32> {
    let mut uf = UnionFind::default();
    let mut relevant: HashSet<TermId> = HashSet::new();
    for &(atom, value) in assignments {
        if let TermData::Eq(a, b) = store.data(atom) {
            collect_subterms(store, *a, &mut relevant);
            collect_subterms(store, *b, &mut relevant);
            if value {
                uf.union(*a, *b);
            }
        } else if matches!(store.data(atom), TermData::App(..)) {
            collect_subterms(store, atom, &mut relevant);
        }
    }
    let mut reps: HashMap<TermId, u32> = HashMap::new();
    let mut next = 0u32;
    let mut by_root: HashMap<TermId, u32> = HashMap::new();
    let mut sorted: Vec<TermId> = relevant
        .into_iter()
        .filter(|t| store.sort(*t).is_obj())
        .collect();
    sorted.sort();
    for t in sorted {
        let root = uf.find(t);
        let class = *by_root.entry(root).or_insert_with(|| {
            let c = next;
            next += 1;
            c
        });
        reps.insert(t, class);
    }
    reps
}

fn collect_subterms(store: &TermStore, t: TermId, out: &mut HashSet<TermId>) {
    if !out.insert(t) {
        return;
    }
    match store.data(t) {
        TermData::App(_, args, _) | TermData::And(args) | TermData::Or(args) => {
            for &a in args {
                collect_subterms(store, a, out);
            }
        }
        TermData::Add(a, b)
        | TermData::Sub(a, b)
        | TermData::Le(a, b)
        | TermData::Lt(a, b)
        | TermData::Eq(a, b)
        | TermData::Implies(a, b)
        | TermData::Iff(a, b) => {
            collect_subterms(store, *a, out);
            collect_subterms(store, *b, out);
        }
        TermData::Neg(a) | TermData::MulConst(_, a) | TermData::Not(a) => {
            collect_subterms(store, *a, out)
        }
        TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;
    use crate::testutil::XorShift;

    fn obj_sort(store: &mut TermStore) -> Sort {
        let s = store.symbol("Nat");
        Sort::Obj(s)
    }

    #[test]
    fn transitivity_of_equality() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let a = s.var("a", so);
        let b = s.var("b", so);
        let c = s.var("c", so);
        let e1 = s.eq(a, b);
        let e2 = s.eq(b, c);
        let e3 = s.eq(a, c);
        // a=b, b=c, a!=c is inconsistent
        let r = check(&s, &[(e1, true), (e2, true), (e3, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // a=b, b=c, a=c is consistent
        let r2 = check(&s, &[(e1, true), (e2, true), (e3, true)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn congruence_of_functions() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let fx = s.app("pred", vec![x], so);
        let fy = s.app("pred", vec![y], so);
        let exy = s.eq(x, y);
        let efxy = s.eq(fx, fy);
        // x=y and pred(x) != pred(y) is inconsistent
        let r = check(&s, &[(exy, true), (efxy, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // x!=y and pred(x) != pred(y) is consistent
        let r2 = check(&s, &[(exy, false), (efxy, false)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn distinct_int_constants_conflict_when_merged() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let one = s.int(1);
        let two = s.int(2);
        let e1 = s.eq(x, one);
        let e2 = s.eq(x, two);
        let r = check(&s, &[(e1, true), (e2, true)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
    }

    #[test]
    fn predicate_congruence() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let px = s.app("zero", vec![x], Sort::Bool);
        let py = s.app("zero", vec![y], Sort::Bool);
        let exy = s.eq(x, y);
        // x=y, zero(x), !zero(y) is inconsistent
        let r = check(&s, &[(exy, true), (px, true), (py, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // without x=y it is consistent
        let r2 = check(&s, &[(exy, false), (px, true), (py, false)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn nested_congruence_propagates() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let fx = s.app("f", vec![x], so);
        let fy = s.app("f", vec![y], so);
        let gfx = s.app("g", vec![fx], so);
        let gfy = s.app("g", vec![fy], so);
        let exy = s.eq(x, y);
        let egg = s.eq(gfx, gfy);
        let r = check(&s, &[(exy, true), (egg, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
    }

    /// Independent oracle: merge pairwise to a fixpoint (asserted
    /// equalities, then any two applications of one symbol whose arguments
    /// are already equal), then compare every disequality and every pair of
    /// predicate applications.
    fn naive_consistent(s: &TermStore, assignments: &[AtomAssignment]) -> bool {
        let mut terms = HashSet::new();
        for &(atom, _) in assignments {
            collect_subterms(s, atom, &mut terms);
        }
        let mut class: HashMap<TermId, TermId> = terms.iter().map(|&t| (t, t)).collect();
        let merge = |class: &mut HashMap<TermId, TermId>, a: TermId, b: TermId| {
            let (ca, cb) = (class[&a], class[&b]);
            if ca == cb {
                return false;
            }
            for c in class.values_mut() {
                if *c == cb {
                    *c = ca;
                }
            }
            true
        };
        let apps: Vec<(TermId, Symbol, Vec<TermId>)> = terms
            .iter()
            .filter_map(|&t| match s.data(t) {
                TermData::App(f, args, _) => Some((t, *f, args.clone())),
                _ => None,
            })
            .collect();
        let same_args = |class: &HashMap<TermId, TermId>, x: &[TermId], y: &[TermId]| {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| class[a] == class[b])
        };
        loop {
            let mut changed = false;
            for &(atom, value) in assignments {
                if let (TermData::Eq(a, b), true) = (s.data(atom), value) {
                    changed |= merge(&mut class, *a, *b);
                }
            }
            for (t, f, xs) in &apps {
                for (u, g, ys) in &apps {
                    if f == g && same_args(&class, xs, ys) {
                        changed |= merge(&mut class, *t, *u);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for &(atom, value) in assignments {
            if let (TermData::Eq(a, b), false) = (s.data(atom), value) {
                if class[a] == class[b] {
                    return false;
                }
            }
        }
        for &(p, vp) in assignments {
            for &(q, vq) in assignments {
                if let (TermData::App(f, xs, _), TermData::App(g, ys, _)) = (s.data(p), s.data(q)) {
                    if vp != vq && f == g && same_args(&class, xs, ys) {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn random_mixes_agree_with_naive_closure() {
        // Seeded mixes of (dis)equalities and unary/binary predicates over at
        // most 5 constants and nested applications of the unary/binary
        // functions `f`/`g`.
        let mut rng = XorShift(0x0e0f_2026);
        let (mut consistent, mut inconsistent) = (0, 0);
        for _ in 0..400 {
            let mut s = TermStore::new();
            let so = obj_sort(&mut s);
            let n = rng.range(2, 6) as usize;
            let mut pool: Vec<TermId> = (0..n).map(|i| s.var(&format!("c{i}"), so)).collect();
            for _ in 0..rng.range(0, 5) {
                let a = pool[rng.range(0, pool.len() as i64) as usize];
                pool.push(s.app("f", vec![a], so));
            }
            for _ in 0..rng.range(0, 3) {
                let a = pool[rng.range(0, pool.len() as i64) as usize];
                let b = pool[rng.range(0, pool.len() as i64) as usize];
                pool.push(s.app("g", vec![a, b], so));
            }
            let pick = |rng: &mut XorShift| pool[rng.range(0, pool.len() as i64) as usize];
            let mut atoms: Vec<AtomAssignment> = Vec::new();
            for _ in 0..rng.range(2, 14) {
                let atom = match rng.range(0, 4) {
                    0 | 1 => {
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        if a == b {
                            continue;
                        }
                        s.eq(a, b)
                    }
                    2 => {
                        let a = pick(&mut rng);
                        s.app("p", vec![a], Sort::Bool)
                    }
                    _ => {
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        s.app("q", vec![a, b], Sort::Bool)
                    }
                };
                if atoms.iter().all(|&(t, _)| t != atom) {
                    atoms.push((atom, rng.chance(60)));
                }
            }
            let expected = naive_consistent(&s, &atoms);
            let got = check(&s, &atoms) == EufResult::Consistent;
            assert_eq!(
                got,
                expected,
                "{:?}",
                atoms
                    .iter()
                    .map(|&(a, v)| (s.display(a), v))
                    .collect::<Vec<_>>()
            );
            if got {
                consistent += 1;
            } else {
                inconsistent += 1;
            }
        }
        assert!(
            consistent >= 50 && inconsistent >= 50,
            "{consistent}/{inconsistent}"
        );
    }

    #[test]
    fn irrelevant_atoms_are_ignored() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let zero = s.int(0);
        let le = s.le(x, zero);
        let r = check(&s, &[(le, true)]);
        assert_eq!(r, EufResult::Consistent);
    }
}
