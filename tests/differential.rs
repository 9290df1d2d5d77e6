//! Differential testing: the plan engine (resumable stack machine) versus
//! the legacy tree-walking interpreter, driven through the `Program` /
//! `Query` embedding API.
//!
//! Every corpus program is driven through both engines by the same generic
//! workload — constructions, lazy deconstruction queries (backward mode),
//! constructor predicates, the deep-equality matrix, and forward method
//! calls with synthesized arguments — and the resulting transcripts
//! (values, solution rows, enumeration order, and failures) must be
//! identical line by line. A separate test pins that both engines honor
//! the same `Limits` (the legacy `Interp::solve` honored `depth` on one
//! engine and ignored it on the other).

use jmatch::{args, Bindings, Engine, Limits, Program, Value, Workspace};

mod harness;
use harness::transcript;

fn engines_for(src: &str) -> (Program, Program) {
    let program = Workspace::new().verify(false).compile(src).unwrap();
    assert!(program.diagnostics().errors.is_empty());
    (
        program.clone().with_engine(Engine::Plan),
        program.with_engine(Engine::TreeWalk),
    )
}

#[test]
fn every_corpus_program_agrees_across_engines() {
    for entry in jmatch::corpus::entries() {
        let (plan, tree) = engines_for(&entry.combined_jmatch());
        let got = transcript(&plan);
        let want = transcript(&tree);
        // Interface-only entries (no concrete class, no free method) have
        // nothing to drive; everything else must yield a real workload.
        let has_concrete = plan
            .table()
            .types()
            .any(|t| !t.is_interface && !t.is_abstract)
            || !plan.table().free_methods().is_empty();
        if has_concrete {
            assert!(
                got.len() >= 20,
                "{}: workload too small ({} ops) to be meaningful",
                entry.name,
                got.len()
            );
            assert!(
                got.iter().any(|line| !line.ends_with("err")),
                "{}: every operation failed; the workload exercised nothing",
                entry.name
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "{}: transcript lengths diverge",
            entry.name
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{}: engines diverge", entry.name);
        }
    }
}

#[test]
fn enumeration_order_agrees_on_iterative_formulas() {
    let src = r#"
        class Gen {
            boolean pick(int n, int x) iterates(x)
                ( x = 0 # 1 # 2 || x = n + 1 || x = n - 1 # 7 )
        }
    "#;
    let (plan, tree) = engines_for(src);
    let collect = |program: &Program| -> Vec<i64> {
        let pick = program.method("Gen", "pick").unwrap();
        let mut env = Bindings::new();
        env.insert("n".into(), Value::Int(10));
        // `pick` is an instance method, but its body only mentions `n` and
        // `x`; iterate without a receiver like the legacy `solve` test did.
        let query = pick.iterate(None, &env).unwrap();
        query
            .solutions()
            .map(|b| b["x"].as_int().unwrap())
            .collect()
    };
    let a = collect(&plan);
    let b = collect(&tree);
    assert_eq!(a, b);
    assert_eq!(a, vec![0, 1, 2, 11, 9, 7]);
}

#[test]
fn imperative_statements_agree_across_engines() {
    let src = r#"
        class Acc {
            int grind(int n) {
                int total = 0;
                int i = 0;
                while (i < n) {
                    foreach (int x = 0 # 1 # 2 # i) {
                        total = total + total + x;
                    }
                    i = i + 1;
                }
                switch (total - total) {
                    case 0: total = total + 1;
                    default: total = -1;
                }
                cond {
                    (total > 100) { return total; }
                    (total > 0)   { return total + 1000; }
                    else          { return 0 - total; }
                }
            }
        }
    "#;
    let (plan, tree) = engines_for(src);
    for n in 0..5i64 {
        let mk = |program: &Program| {
            // No constructor declared: build the instance through the
            // program (all fields Null).
            let obj = program.instance("Acc").unwrap();
            program
                .method("Acc", "grind")
                .unwrap()
                .call(Some(&obj), args![n])
        };
        let a = mk(&plan);
        let b = mk(&tree);
        assert_eq!(a.is_ok(), b.is_ok(), "n={n}");
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b, "n={n}");
        }
    }
}

/// A deep-recursion workload both engines can run out of budget on: `elem`
/// descends one constructor match per list cell.
const DEEP_LIST: &str = r#"
    interface IntList {
        constructor nil() returns();
        constructor cons(int h, IntList t) returns(h, t);
        boolean elem(int x) iterates(x);
    }
    class Nil implements IntList {
        constructor nil() returns() ( true )
        constructor cons(int h, IntList t) returns(h, t) ( false )
        boolean elem(int x) iterates(x) ( false )
    }
    class Cons implements IntList {
        int head;
        IntList tail;
        constructor nil() returns() ( false )
        constructor cons(int h, IntList t) returns(h, t) ( head = h && tail = t )
        boolean elem(int x) iterates(x) ( cons(x, _) || cons(_, IntList t) && t.elem(x) )
    }
"#;

fn int_list(program: &Program, n: i64) -> Value {
    let nil = program.ctor("Nil", "nil").unwrap();
    let cons = program.ctor("Cons", "cons").unwrap();
    let mut l = nil.construct(args![]).unwrap();
    for i in 0..n {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}

/// Satellite fix for the old `Interp::solve` inconsistency: the `depth`
/// parameter was honored by the tree-walker and silently ignored by the
/// plan engine. The `Query` API takes explicit `Limits` and both engines
/// must honor them: generous limits yield identical full enumerations;
/// tight limits make *both* engines stop with a `LimitExceeded` error.
#[test]
fn limits_are_honored_identically_by_both_engines() {
    use jmatch::runtime::RtErrorKind;

    let (plan, tree) = engines_for(DEEP_LIST);
    let enumerate = |program: &Program, limits: Limits| {
        let list = int_list(program, 40);
        let elem = program.method("Cons", "elem").unwrap();
        let query = elem
            .iterate(Some(&list), &Bindings::new())
            .unwrap()
            .limits(limits);
        let mut solutions = query.solutions();
        let seen: Vec<i64> = solutions
            .by_ref()
            .map(|b| b["x"].as_int().unwrap())
            .collect();
        (seen, solutions.take_error())
    };

    // Generous limits: both engines enumerate the full list identically.
    let generous = Limits::default();
    let (plan_seen, plan_err) = enumerate(&plan, generous);
    let (tree_seen, tree_err) = enumerate(&tree, generous);
    assert_eq!(plan_seen, (0..40).rev().collect::<Vec<i64>>());
    assert_eq!(plan_seen, tree_seen);
    assert!(plan_err.is_none(), "{plan_err:?}");
    assert!(tree_err.is_none(), "{tree_err:?}");

    // Tight step budget: both engines stop with a LimitExceeded error.
    let tight_steps = Limits {
        max_steps: 50,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let (seen, err) = enumerate(program, tight_steps);
        assert!(
            seen.len() < 40,
            "{name}: step budget did not cut the enumeration short"
        );
        let err = err.unwrap_or_else(|| panic!("{name}: no limit error"));
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "steps"),
            "{name}: {err:?}"
        );
    }

    // Tight depth ceiling: both engines stop with a LimitExceeded error.
    let tight_depth = Limits {
        max_depth: 5,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let (seen, err) = enumerate(program, tight_depth);
        assert!(
            seen.len() < 40,
            "{name}: depth ceiling did not cut the enumeration short"
        );
        let err = err.unwrap_or_else(|| panic!("{name}: no limit error"));
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "depth"),
            "{name}: {err:?}"
        );
    }

    // Deconstruction queries honor limits too (the plan engine used to have
    // a fixed internal ceiling only). Step *units* are engine-specific, so
    // the budget is chosen below what either engine needs for one row.
    let tight_call = Limits {
        max_steps: 1,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let list = int_list(program, 10);
        let err = program
            .deconstruct(&list, "cons")
            .unwrap()
            .limits(tight_call)
            .try_collect()
            .unwrap_err();
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { .. }),
            "{name}: {err:?}"
        );
    }
}

/// Formula shapes the plan engine compiles into sub-entries of a form's
/// code or into a goal of their own: negation (`!f`), `p where f` in a
/// formula and as a `switch` case pattern, a conjunction the lowering can
/// only schedule at run time, and `let` / `if` / `cond` / `foreach` /
/// `while` statements over disjunctions.
const MOVED_SHAPES: &str = r#"
    class Shapes {
        int v;
        constructor of(int n) returns(n) ( v = n )
        boolean odd(int x) iterates(x) ( x = 0 # 1 # 2 # 3 # 4 # 5 && !(x = 0 # 2 # 4) )
        boolean big(int n, int x) iterates(x)
            ( (int y where (y > 3 && x = y * 2)) = n # n + 1 # n + 2 )
        boolean sched(int z) iterates(z) ( (z = 1 # 2 || true) && z < 5 && z = 3 # 4 # 1 )
    }
    static int classify(int n) {
        switch (n) {
            case int k where (k > 10 && k < 20): return 1;
            case int k where (k = 0 # 1 || k = 7): return 2;
            default: return 3;
        }
    }
    static int dynlet(int n) {
        let ((int w = n # n + 1 || true) && w < 5 && w = 3 # 4);
        return w;
    }
    static int stmts(int n) {
        int total = 0;
        foreach (int x = n # n + 1 # n + 2 || int x = 10 # 20) {
            total = total + x;
        }
        if (total > 100 || total = 0 # 33) {
            total = total + 1000;
        } else {
            total = total - 1;
        }
        if (!(total = 1033 # 44)) {
            total = total + 2;
        }
        cond {
            (total < 0 || total > 5000) { total = total * 2; }
            (total = 3 # 4 || total > 20) { total = total + 7; }
            else { total = 0; }
        }
        int i = 0;
        while (i < n || i = 0 # 1) {
            i = i + 1;
            total = total + i;
        }
        while (!(i = n + 3)) {
            i = i + 1;
        }
        return total + i;
    }
"#;

fn solution_texts(s: jmatch::Solutions<'_>) -> (Vec<String>, bool) {
    let mut s = s;
    let items: Vec<String> = s
        .by_ref()
        .map(|b| {
            let mut pairs: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v}")).collect();
            pairs.sort();
            pairs.join(",")
        })
        .collect();
    (items, s.take_error().is_some())
}

#[test]
fn moved_formula_shapes_agree_across_engines() {
    let (plan, tree) = engines_for(MOVED_SHAPES);
    // Forward calls: the statement goals and the forward solved forms.
    for n in -1..6i64 {
        for name in ["classify", "dynlet", "stmts"] {
            let call = |p: &Program| p.free_method(name).unwrap().call(None, args![n]);
            let (a, b) = (call(&plan), call(&tree));
            assert_eq!(a.is_ok(), b.is_ok(), "{name}({n}): {a:?} vs {b:?}");
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b, "{name}({n})");
            }
        }
        for name in ["odd", "sched"] {
            let call = |p: &Program| {
                let obj = p.ctor("Shapes", "of").unwrap().construct(args![n])?;
                p.method("Shapes", name).unwrap().call(Some(&obj), args![n])
            };
            let (a, b) = (call(&plan), call(&tree));
            assert_eq!(a.is_ok(), b.is_ok(), "{name}({n}): {a:?} vs {b:?}");
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b, "{name}({n})");
            }
        }
        for s in [11i64, 15, 25] {
            let call = |p: &Program| p.free_method("classify").unwrap().call(None, args![s]);
            assert_eq!(call(&plan).unwrap(), call(&tree).unwrap(), "classify({s})");
        }
    }
    // Enumerations: the machine and the OR-parallel pool against the
    // tree-walker, on iterative-mode queries.
    for (name, known) in [
        ("odd", None),
        ("big", Some(2i64)),
        ("big", Some(10)),
        ("sched", None),
    ] {
        let mut env = Bindings::new();
        if let Some(n) = known {
            env.insert("n".into(), Value::Int(n));
        }
        let query = |p: &Program| {
            let m = p.method("Shapes", name).unwrap();
            let q = m.iterate(None, &env).unwrap();
            let seq = solution_texts(q.solutions());
            let par: Vec<_> = [1, 2].map(|t| solution_texts(q.par_solutions(t))).into();
            (seq, par)
        };
        let (seq, par) = query(&plan);
        let (want, _) = query(&tree);
        assert!(!want.0.is_empty(), "{name}: the oracle enumerates nothing");
        assert_eq!(
            seq, want,
            "{name} {known:?}: machine diverges from the tree-walker"
        );
        for (t, got) in [1, 2].iter().zip(par) {
            assert_eq!(got, want, "{name} {known:?}: par_solutions({t}) diverges");
        }
    }
}

/// Integer arithmetic follows Java's two's-complement semantics on both
/// engines, through every evaluator of the plan engine: register code,
/// formula evaluation, the fast constructor path, and inverted arithmetic
/// patterns. `MIN / -1` and `-MIN` are `MIN`, `MIN % -1` is `0`, and
/// `MAX + 1` wraps to `MIN` — none of them may panic.
#[test]
fn integer_overflow_wraps_like_java_on_both_engines() {
    let src = r#"
        class Wrap {
            int v;
            Wrap(int a) returns(a) ( v = a + 1 )
            int div(int b) ( result = v / b )
            int rem(int b) ( result = v % b )
            int neg() ( result = -v )
        }
        static int div(int a, int b) { return a / b; }
        static int rem(int a, int b) { return a % b; }
        static int neg(int a) { return -a; }
        static int add(int a, int b) { return a + b; }
        static int minDivNegOne() { return (-9223372036854775807 - 1) / -1; }
        static int back(int t) {
            let (int x + 1 = t);
            return x;
        }
        static int negBack(int t) {
            let (-(int x) = t);
            return x;
        }
    "#;
    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    let (plan, tree) = engines_for(src);
    for program in [&plan, &tree] {
        let free = |name: &str, args: Vec<Value>| {
            program
                .free_method(name)
                .unwrap()
                .call(None, args)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        assert_eq!(free("div", args![MIN, -1]), Value::Int(MIN));
        assert_eq!(free("rem", args![MIN, -1]), Value::Int(0));
        assert_eq!(free("neg", args![MIN]), Value::Int(MIN));
        assert_eq!(free("add", args![MAX, 1]), Value::Int(MIN));
        assert_eq!(free("minDivNegOne", args![]), Value::Int(MIN));
        assert_eq!(free("back", args![MIN]), Value::Int(MAX));
        assert_eq!(free("negBack", args![MIN]), Value::Int(MIN));
        // `Wrap(MAX)` stores `MAX + 1`, i.e. `MIN`.
        let w = program
            .ctor("Wrap", "Wrap")
            .unwrap()
            .construct(args![MAX])
            .unwrap();
        assert_eq!(w.field("v"), Some(&Value::Int(MIN)));
        let method = |name: &str, args: Vec<Value>| {
            program
                .method("Wrap", name)
                .unwrap()
                .call(Some(&w), args)
                .unwrap_or_else(|e| panic!("Wrap.{name}: {e}"))
        };
        assert_eq!(method("div", args![-1]), Value::Int(MIN));
        assert_eq!(method("rem", args![-1]), Value::Int(0));
        assert_eq!(method("neg", args![]), Value::Int(MIN));
    }
}
