//! Golden-text tests for the bytecode disassembler.
//!
//! The disassembly is a public, stable surface (`Program::disasm`): these
//! pins catch accidental changes to instruction selection — a lost
//! superinstruction, a regressed unify-mode analysis, or a switch that
//! stopped compiling to a jump table shows up as a text diff here long
//! before it shows up on a benchmark.

use jmatch::core::bytecode::{compile_body, BcBody, Instr, Pc};
use jmatch::core::lower::{BodyPlan, CompiledGoal, Goal, PExpr, StmtPlan};
use jmatch::corpus;
use jmatch::Workspace;

fn program(src: &str) -> jmatch::Program {
    Workspace::new().verify(false).compile(src).expect("parse")
}

/// `ZNat.succ` is Figure 3's binary-representation successor: one body,
/// two mode-specialized forms. The pins document what the static unify-mode
/// analysis is expected to prove — forward mode knows `val` and emits a
/// match-eval unification (`me`: solve the pattern side against the
/// evaluated right side); matching mode cannot direct the same equation
/// statically and keeps it dynamic (`dyn`).
#[test]
fn znat_succ_disassembles_to_pinned_text() {
    let entry = corpus::entry("ZNat").unwrap();
    let program = program(entry.jmatch_source);
    let text = program.disasm(Some("ZNat"), "succ").unwrap();
    // Note every `-> next` address is smaller than the pc holding it: the
    // threaded form is emitted right-to-left, which is what lets both
    // engines chase continuations inline without a termination check.
    let expected = "\
; ZNat.succ [forward]
entry: 2
   0: emit
   1: cmp val@2 >= 1 -> 0
   2: unify.me ZNat((val@2 - 1)) = n@0 -> 1
; ZNat.succ [matching]
entry: 2
   0: emit
   1: unify.dyn ZNat((val@2 - 1)) = n@0 -> 0
   2: cmp val@2 >= 1 -> 1
";
    assert_eq!(text, expected, "ZNat.succ bytecode drifted:\n{text}");
}

#[test]
fn arrlist_tocons_block_disassembles_to_pinned_text() {
    let entry = corpus::entry("ArrList").unwrap();
    let mut src = String::new();
    for dep in entry.jmatch_deps {
        src.push_str(dep);
    }
    src.push_str(entry.jmatch_source);
    let program = program(&src);
    let text = program.disasm(Some("ArrList"), "toCons").unwrap();
    // The body is the corpus's hot imperative shape: the two declarations
    // fall back to statement plans, then the `while` becomes a native
    // counted loop — condition as a fused compare-and-branch, accumulator
    // and index as register arithmetic, and only the constructor call
    // leaving the register file.
    let expected = "\
; ArrList.toCons [block]
regs: 3  guards: 1
   0: stmt#0
   1: stmt#1
   2: guard 0 = 0
   3: r0 = slot 2 (i)
   4: r1 = slot 3 (count)
   5: if !(r0 < r1) jmp 15
   6: r1 = eval elems@5[i@2]
   7: r2 = slot 0 (out)
   8: r0 = call plan#15 (r1..+2)
   9: slot 0 = r0
  10: r1 = slot 2 (i)
  11: r2 = const 1
  12: r0 = r1 + r2
  13: slot 2 = r0
  14: loop 3 (guard 0)
  15: r0 = slot 0 (out)
  16: ret r0
  17: end
";
    assert_eq!(text, expected, "ArrList.toCons bytecode drifted:\n{text}");
}

/// A form whose conjunction is scheduled at run time and holds a negation:
/// both compile to sub-entries of the same stream, each emitted before the
/// instruction that refers to it and ending at the shared pc `0`.
#[test]
fn dynseq_and_not_disassemble_to_pinned_text() {
    let program = program(
        "class Sched {
             boolean both(int z) iterates(z)
                 ( (z = 1 # 2 || true) && z < 5 && z = 3 # 4 && !(z = 4) )
         }",
    );
    let text = program.disasm(Some("Sched"), "both").unwrap();
    // Forward mode knows `z` and schedules the conjunction statically;
    // the negation's sub-entry (pc 1) sits just below the `not` that runs
    // it. Matching mode cannot order the conjuncts until run time: each
    // is a sub-entry ending at pc 0, listed by the `dynseq` in source
    // order, and equations stay dynamic because any conjunct may already
    // have bound `z`.
    let expected = "\
; Sched.both [forward]
entry: 10
   0: emit
   1: unify.ee z@0 = 4 -> 0
   2: not 1 -> 0
   3: unify.ee z@0 = 4 -> 2
   4: unify.ee z@0 = 3 -> 2
   5: choice [4, 3]
   6: cmp z@0 < 5 -> 5
   7: unify.ee z@0 = 2 -> 6
   8: unify.ee z@0 = 1 -> 6
   9: choice [8, 7]
  10: choice [9, 6]
; Sched.both [matching]
entry: 11
   0: emit
   1: unify.dyn z@0 = 4 -> 0
   2: not 1 -> 0
   3: unify.dyn z@0 = 4 -> 0
   4: unify.dyn z@0 = 3 -> 0
   5: choice [4, 3]
   6: cmp z@0 < 5 -> 0
   7: unify.dyn z@0 = 2 -> 0
   8: unify.dyn z@0 = 1 -> 0
   9: choice [8, 7]
  10: choice [9, 0]
  11: dynseq [10, 6, 5, 2] -> 0
";
    assert_eq!(text, expected, "Sched.both bytecode drifted:\n{text}");
}

/// Every `Not` / `DynSeq` / `where` / statement goal collected from a goal
/// tree, pattern or statement list.
fn goals_in_goal<'a>(g: &'a Goal, out: &mut Vec<&'a CompiledGoal>) {
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| goals_in_goal(g, out)),
        Goal::DynSeq(items) => items.iter().for_each(|(_, g)| goals_in_goal(g, out)),
        Goal::Not(g) => goals_in_goal(g, out),
        Goal::Unify(l, r) | Goal::Compare(_, l, r) => {
            goals_in_expr(l, out);
            goals_in_expr(r, out);
        }
        Goal::Invoke { args, .. } => args.iter().for_each(|a| goals_in_expr(a, out)),
        Goal::Test(e) => goals_in_expr(e, out),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

fn goals_in_expr<'a>(e: &'a PExpr, out: &mut Vec<&'a CompiledGoal>) {
    match e {
        PExpr::Where(p, g) => {
            goals_in_expr(p, out);
            out.push(g);
            goals_in_goal(&g.goal, out);
        }
        PExpr::Call { receiver, args, .. } => {
            receiver.iter().for_each(|r| goals_in_expr(r, out));
            args.iter().for_each(|a| goals_in_expr(a, out));
        }
        PExpr::Field(a, ..) | PExpr::NewArray(_, a) | PExpr::Neg(a) => goals_in_expr(a, out),
        PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::As(a, b) | PExpr::OrPat(a, b) => {
            goals_in_expr(a, out);
            goals_in_expr(b, out);
        }
        PExpr::Tuple(xs) => xs.iter().for_each(|x| goals_in_expr(x, out)),
        _ => {}
    }
}

fn goals_in_stmts<'a>(stmts: &'a [StmtPlan], out: &mut Vec<&'a CompiledGoal>) {
    let goal = |g: &'a CompiledGoal, out: &mut Vec<&'a CompiledGoal>| {
        out.push(g);
        goals_in_goal(&g.goal, out);
    };
    for s in stmts {
        match s {
            StmtPlan::Let(g) => goal(g, out),
            StmtPlan::Foreach { goal: g, body, .. } | StmtPlan::While { cond: g, body } => {
                goal(g, out);
                goals_in_stmts(body, out);
            }
            StmtPlan::If { cond, then, els } => {
                goal(cond, out);
                goals_in_stmts(then, out);
                goals_in_stmts(els.as_deref().unwrap_or(&[]), out);
            }
            StmtPlan::Cond { arms, else_arm } => {
                for (g, body) in arms {
                    goal(g, out);
                    goals_in_stmts(body, out);
                }
                goals_in_stmts(else_arm.as_deref().unwrap_or(&[]), out);
            }
            StmtPlan::Switch {
                cases,
                bodies,
                default,
                ..
            } => {
                cases
                    .iter()
                    .flat_map(|c| &c.patterns)
                    .for_each(|p| goals_in_expr(p, out));
                bodies.iter().for_each(|b| goals_in_stmts(b, out));
                goals_in_stmts(default.as_deref().unwrap_or(&[]), out);
            }
            StmtPlan::Block(body) => goals_in_stmts(body, out),
            StmtPlan::Return(_)
            | StmtPlan::Assign(..)
            | StmtPlan::AssignUnsupported(_)
            | StmtPlan::Expr(_) => {}
        }
    }
}

/// Pc `0` is the shared `emit`, and every continuation, alternative and
/// sub-entry pc is smaller than the pc holding it — the invariant that
/// lets both engines chase pcs inline without a termination check.
fn assert_backward_pcs(what: &str, bc: &BcBody) {
    assert_eq!(bc.instrs[0], Instr::Emit, "{what}\n{bc}");
    assert!((bc.entry as usize) < bc.instrs.len(), "{what}\n{bc}");
    for (pc, instr) in bc.instrs.iter().enumerate() {
        let refs: Vec<Pc> = match instr {
            Instr::Emit | Instr::Fail => Vec::new(),
            Instr::Choice(alts) => alts.to_vec(),
            Instr::Unify { next, .. }
            | Instr::Compare { next, .. }
            | Instr::Invoke { next, .. }
            | Instr::Test { next, .. } => vec![*next],
            Instr::Not { entry, next } => vec![*entry, *next],
            Instr::DynSeq { conjuncts, next } => {
                conjuncts.iter().map(|&(_, pc)| pc).chain([*next]).collect()
            }
        };
        for r in refs {
            assert!((r as usize) < pc, "{what}: pc {pc} refers to pc {r}\n{bc}");
        }
    }
}

/// Dead disjuncts the analysis prunes, in a solved form and in statement
/// goals, so the check below also sees goals that were rewritten after
/// they were first compiled.
const PRUNED: &str = "
    class P {
        boolean pick(int x) iterates(x) ( x = 1 || false || x = 2 )
    }
    static int first(int n) {
        let (int y = n || false);
        int acc = 0;
        foreach (int z = 3 || false || int z = n) { acc = acc + z; }
        return y + acc;
    }
";

/// The code every corpus goal runs after analysis is exactly a fresh
/// compile of its final goal — a goal the analysis rewrote was recompiled
/// — and every body keeps its pcs pointing backwards.
#[test]
fn every_corpus_goal_runs_a_fresh_compile_of_its_final_goal() {
    let pruned = program(PRUNED);
    assert!(
        pruned.analysis().is_some_and(|a| a.prunes.len() >= 3),
        "the pruned fixture no longer exercises recompilation"
    );
    let mut forms = 0;
    let sources = corpus::entries().into_iter().map(|e| e.combined_jmatch());
    for src in sources.chain([PRUNED.to_owned()]) {
        let program = program(&src);
        for mp in program.plan().methods() {
            let name = mp.info.qualified_name();
            let mut goals = Vec::new();
            match &mp.body {
                BodyPlan::Formula {
                    forward,
                    matching,
                    equals_bound,
                } => {
                    for form in [forward, matching].into_iter().chain(equals_bound) {
                        assert_backward_pcs(&name, &form.bc);
                        assert_eq!(
                            form.bc,
                            compile_body(&form.goal, form.entry()),
                            "{name}: stale form code"
                        );
                        goals_in_goal(&form.goal, &mut goals);
                        forms += 1;
                    }
                }
                BodyPlan::Block(bp) => goals_in_stmts(&bp.stmts, &mut goals),
                BodyPlan::Absent => {}
            }
            for g in goals {
                assert_backward_pcs(&name, &g.bc);
                assert_eq!(
                    *g,
                    CompiledGoal::new(g.goal.clone()),
                    "{name}: stale goal code"
                );
            }
        }
    }
    assert!(forms > 300, "only {forms} solved forms in the corpus");
}
