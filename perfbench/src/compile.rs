//! The compile phase: source → verified `Program` over the Table 1 corpus.
//!
//! Scratch passes load all 18 corpus programs through `Workspace::load`
//! at defaults; between their loads, sweeps of a seeded edit script run
//! through the resident workspaces. Probe edits touch a free method the benchmark
//! appends to each program; real edits rewrite one real method's body so
//! one real unit goes back to the solver.

use crate::stats::{geomean, median, quantile, raw, Report, Rng};
use crate::trace::{in_turn, time, Tracer};
use jmatch_core::diag::Diagnostics;
use jmatch_core::incremental::{Fingerprints, VerifyEngine};
use jmatch_core::lower::{PlanOptions, ProgramPlan};
use jmatch_core::table::ClassTable;
use jmatch_core::verify::VerifyOptions;
use jmatch_core::{CompileOptions, SessionStats};
use jmatch_runtime::Workspace;
use jmatch_syntax::ast;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scratch passes and sweeps of edits per run never fall below these.
const MIN_PASSES: usize = 3;
const MIN_SWEEPS: usize = 16;

/// Edits of each kind per row in one sweep: probe-body edits and probe
/// signature edits. Every real edit is drawn once per sweep as well, so a
/// sweep is 18 × 4 + 15 = 87 edits, about 62% probe body, 21% probe
/// signature and 17% real body. The 50th percentile falls among
/// probe-body edits, away from the boundaries between kinds.
const PROBE_BODY_PER_ROW: usize = 3;
const PROBE_SIG_PER_ROW: usize = 1;

/// Body edits to real corpus methods: `(row, text, replacement)`. Each text
/// occurs exactly once in its row and lies inside one method body, so the
/// edit sends exactly that unit back to the solver. AVLTree's `rebalance`
/// is left out: one re-verification of it costs seconds.
const REAL_EDITS: &[(&str, &str, &str)] = &[
    ("PZero", "( result = other )", "( other = result )"),
    ("PSucc", "( n.succ(pred) )", "( n.succ(pred) && true )"),
    (
        "ZNat",
        "int toInt() ensures(result >= 0) ( result = val )",
        "int toInt() ensures(result >= 0) ( val = result )",
    ),
    (
        "ZNat",
        "boolean isZero() returns() ( val = 0 )",
        "boolean isZero() returns() ( 0 = val )",
    ),
    ("EmptyList", "( l.nil() )", "( l.nil() && true )"),
    (
        "ConsList",
        "( result = tail.size() + 1 )",
        "( result = 1 + tail.size() )",
    ),
    (
        "SnocList",
        "( result = front.size() + 1 )",
        "( result = 1 + front.size() )",
    ),
    (
        "ArrList",
        "int size() ensures(result >= 0) ( result = count )",
        "int size() ensures(result >= 0) ( count = result )",
    ),
    ("Variable", "( e.Var(name) )", "( e.Var(name) && true )"),
    (
        "Lambda",
        "( result = param.size() + body.size() + 1 )",
        "( result = body.size() + param.size() + 1 )",
    ),
    (
        "Apply",
        "( result = fn.size() + arg.size() + 1 )",
        "( result = arg.size() + fn.size() + 1 )",
    ),
    (
        "CPS",
        "return sizeOfCps(b) + 1;",
        "return 1 + sizeOfCps(b);",
    ),
    ("TreeLeaf", "( t.leaf() )", "( t.leaf() && true )"),
    (
        "TreeBranch",
        "( x = value || left.contains(x) || right.contains(x) )",
        "( x = value || right.contains(x) || left.contains(x) )",
    ),
    (
        "AVLTree",
        "(x = v) { return true; }",
        "(v = x) { return true; }",
    ),
];

/// One corpus row as the benchmark compiles it.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    /// The row's program (dependencies + entry), without the probe.
    pub program: String,
}

pub fn corpus() -> Vec<Row> {
    jmatch_corpus::entries()
        .iter()
        .map(|e| Row {
            name: e.name,
            program: e.combined_jmatch(),
        })
        .collect()
}

/// The editable state of one row: the probe's constant and arity, and
/// which of the row's real edits are applied.
#[derive(Debug, Clone)]
struct RowState {
    probe_k: i64,
    probe_wide: bool,
    applied: Vec<bool>,
}

fn probe(k: i64, wide: bool) -> String {
    if wide {
        format!("\nstatic int perfbenchProbe(int x, int y) {{ return x + y + {k}; }}\n")
    } else {
        format!("\nstatic int perfbenchProbe(int x) {{ return x + {k}; }}\n")
    }
}

/// One edit of the script.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// A new constant in row `i`'s probe body.
    ProbeBody(usize),
    /// Row `i`'s probe switches arity, which changes its signature.
    ProbeSig(usize),
    /// Real edit `k` (an index into `EditScript::real`) toggles.
    Real(usize),
}

/// The seeded edit script: an endless, deterministic sequence of
/// `(row, full new source)` pairs, dealt in sweeps. Every sweep holds the
/// same edits in a seeded order, so the seed moves the order and the
/// probe constants but never the mix a sweep's latencies are drawn from.
#[derive(Debug)]
pub struct EditScript {
    rows: Vec<Row>,
    states: Vec<RowState>,
    /// Real edits as `(row index, text, replacement, index within row)`.
    real: Vec<(usize, &'static str, &'static str, usize)>,
    /// The rest of the current sweep, dealt from the back.
    deck: Vec<Edit>,
    rng: Rng,
}

impl EditScript {
    pub fn new(rows: &[Row], rng: Rng) -> EditScript {
        let mut real = Vec::new();
        let mut per_row = vec![0usize; rows.len()];
        for (name, text, replacement) in REAL_EDITS {
            let i = rows
                .iter()
                .position(|r| r.name == *name)
                .unwrap_or_else(|| panic!("no corpus row {name}"));
            assert_eq!(
                rows[i].program.matches(text).count(),
                1,
                "real edit text must occur once in {name}: {text}"
            );
            real.push((i, *text, *replacement, per_row[i]));
            per_row[i] += 1;
        }
        let states = per_row
            .iter()
            .map(|n| RowState {
                probe_k: 0,
                probe_wide: false,
                applied: vec![false; *n],
            })
            .collect();
        EditScript {
            rows: rows.to_vec(),
            states,
            real,
            deck: Vec::new(),
            rng,
        }
    }

    /// Edits per sweep.
    pub fn sweep_len(&self) -> usize {
        self.rows.len() * (PROBE_BODY_PER_ROW + PROBE_SIG_PER_ROW) + self.real.len()
    }

    /// The full source of row `i` in its current state.
    pub fn source(&self, i: usize) -> String {
        let st = &self.states[i];
        let mut program = self.rows[i].program.clone();
        for (row, text, replacement, slot) in &self.real {
            if *row == i && st.applied[*slot] {
                program = program.replacen(text, replacement, 1);
            }
        }
        program.push_str(&probe(st.probe_k, st.probe_wide));
        program
    }

    /// Deals the next edit and returns the edited row with its new source.
    pub fn next_edit(&mut self) -> (usize, String) {
        if self.deck.is_empty() {
            for i in 0..self.rows.len() {
                self.deck.extend([Edit::ProbeBody(i); PROBE_BODY_PER_ROW]);
                self.deck.extend([Edit::ProbeSig(i); PROBE_SIG_PER_ROW]);
            }
            self.deck.extend((0..self.real.len()).map(Edit::Real));
            self.rng.shuffle(&mut self.deck);
        }
        let row = match self.deck.pop().expect("the deck was just dealt") {
            Edit::ProbeBody(i) => {
                self.states[i].probe_k += 1 + self.rng.below(9) as i64;
                i
            }
            Edit::ProbeSig(i) => {
                self.states[i].probe_wide = !self.states[i].probe_wide;
                i
            }
            Edit::Real(k) => {
                let (i, _, _, slot) = self.real[k];
                self.states[i].applied[slot] = !self.states[i].applied[slot];
                i
            }
        };
        (row, self.source(row))
    }
}

fn workspace(threads: usize) -> Workspace {
    Workspace::new().verify_threads(threads)
}

/// Rows whose scratch build takes longer than this are not rebuilt once
/// more after the run just to check their last edits, and are loaded once
/// per scratch pass.
const CHEAP_CHECK_MS: f64 = 150.0;
/// Loads per scratch pass of every other row (after the first pass).
const CHEAP_LOADS: usize = 3;

fn check_same(name: &str, incremental: &Diagnostics, scratch: &Diagnostics) -> Result<(), String> {
    if incremental == scratch {
        Ok(())
    } else {
        Err(format!(
            "{name}: incremental diagnostics differ from a scratch build"
        ))
    }
}

fn check_clean(name: &str, diags: &Diagnostics) -> Result<(), String> {
    if diags.errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name}: corpus program has errors: {:?}",
            diags.errors
        ))
    }
}

/// Shares of the compile phase's time: scratch loads and edit sweeps.
const LOAD_SHARE: f64 = 0.8;
const EDIT_SHARE: f64 = 0.2;

/// The untraced compile phase, measured in steps: a step either loads the
/// next row of the current scratch pass into a fresh workspace (passes go
/// over the corpus in seeded orders) or runs one sweep of the edit script
/// through the resident workspaces, whichever is behind its share.
pub struct Phase<'a> {
    rows: &'a [Row],
    threads: usize,
    script: EditScript,
    order_rng: Rng,
    /// Rows the current pass has still to load, taken from the back.
    pending: Vec<usize>,
    passes: usize,
    resident: Vec<Option<Workspace>>,
    row_ms: Vec<Vec<f64>>,
    /// Per sweep of edits: the median latency.
    p50_ms: Vec<f64>,
    /// Per row: the last edited generation's source and diagnostics.
    finals: Vec<Option<(String, Diagnostics)>>,
    load_s: f64,
    edit_s: f64,
    attempted: u64,
}

impl<'a> Phase<'a> {
    pub fn new(rows: &'a [Row], rng: &Rng, threads: usize) -> Phase<'a> {
        Phase {
            rows,
            threads,
            script: EditScript::new(rows, rng.fork(1)),
            order_rng: rng.fork(2),
            pending: Vec::new(),
            passes: 0,
            resident: (0..rows.len()).map(|_| None).collect(),
            row_ms: vec![Vec::new(); rows.len()],
            p50_ms: Vec::new(),
            finals: vec![None; rows.len()],
            load_s: 0.0,
            edit_s: 0.0,
            attempted: 0,
        }
    }

    /// Loads the next row of the current pass from scratch. Its resident
    /// workspace is replaced; the generation its edits left behind must
    /// have the scratch build's diagnostics.
    fn load_next(&mut self) -> Result<(), String> {
        let rows = self.rows;
        if self.pending.is_empty() {
            // After the first pass, the cheap rows are loaded
            // `CHEAP_LOADS` times per pass: they cost little, and the
            // geometric mean over rows weighs them as much as the rest.
            for (i, ms) in self.row_ms.iter().enumerate() {
                let cheap = !ms.is_empty() && median(ms) <= CHEAP_CHECK_MS;
                let loads = if cheap { CHEAP_LOADS } else { 1 };
                self.pending.extend(std::iter::repeat_n(i, loads));
            }
            self.order_rng.shuffle(&mut self.pending);
        }
        let i = self.pending.pop().expect("a pass was just dealt");
        let source = self.script.source(i);
        // The old workspace goes first, so two generations of a row are
        // never resident at once.
        self.resident[i] = None;
        let mut ws = workspace(self.threads);
        let t = Instant::now();
        let gen = ws
            .load(&source)
            .map_err(|e| format!("{}: parse error: {e}", rows[i].name))?;
        self.row_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
        let diags = gen.program().diagnostics();
        check_clean(rows[i].name, diags)?;
        if let Some((edited, inc)) = self.finals[i].take() {
            debug_assert_eq!(edited, source);
            check_same(rows[i].name, &inc, diags)?;
        }
        self.resident[i] = Some(ws);
        self.attempted += 1;
        if self.pending.is_empty() {
            self.passes += 1;
            let last_s: f64 = self.row_ms.iter().filter_map(|v| v.last()).sum::<f64>() / 1e3;
            eprintln!(
                "perfbench: compile pass {}: last loads sum to {last_s:.3}s",
                self.passes
            );
        }
        Ok(())
    }

    /// One sweep of the edit script through the resident workspaces.
    fn sweep(&mut self) -> Result<(), String> {
        let rows = self.rows;
        let sweep = self.script.sweep_len();
        let mut edit_ms = Vec::with_capacity(sweep);
        for _ in 0..sweep {
            let (i, source) = self.script.next_edit();
            let ws = self.resident[i].as_mut().expect("every row is resident");
            let t = Instant::now();
            let gen = ws
                .update_source(&source)
                .map_err(|e| format!("{}: edit does not parse: {e}", rows[i].name))?;
            edit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_clean(rows[i].name, gen.program().diagnostics())?;
            self.finals[i] = Some((source, gen.program().diagnostics().clone()));
        }
        self.p50_ms.push(median(&edit_ms));
        self.attempted += sweep as u64;
        Ok(())
    }
}

impl crate::Steps for Phase<'_> {
    /// Loads until the first pass is complete (edits need every row
    /// resident), then whichever of loads and sweeps is behind its share.
    fn step(&mut self) -> Result<(), String> {
        let t = Instant::now();
        if self.passes == 0 || self.load_s * EDIT_SHARE <= self.edit_s * LOAD_SHARE {
            self.load_next()?;
            self.load_s += t.elapsed().as_secs_f64();
        } else {
            self.sweep()?;
            self.edit_s += t.elapsed().as_secs_f64();
        }
        Ok(())
    }

    fn ready(&self) -> bool {
        self.passes >= MIN_PASSES && self.p50_ms.len() >= MIN_SWEEPS
    }
}

impl Phase<'_> {
    /// Runs the oracles (outside the timed steps) and reports, each from
    /// medians: the time of one scratch pass, as the sum over programs of
    /// each one's median compile time; the geometric mean of the same
    /// medians; the median over sweeps of each sweep's median edit latency.
    pub fn finish(self, report: &mut Report) -> Result<(), String> {
        // Edits since a row's last scratch load have no later load to check
        // them: rebuild from scratch the rows that compile in under
        // `CHEAP_CHECK_MS` (all but the solver-heavy tree rows).
        for (i, fin) in self.finals.iter().enumerate() {
            if let Some((source, diags)) = fin {
                if median(&self.row_ms[i]) <= CHEAP_CHECK_MS {
                    let scratch = workspace(self.threads)
                        .compile(source)
                        .map_err(|e| format!("{}: {e}", self.rows[i].name))?;
                    check_same(self.rows[i].name, diags, scratch.diagnostics())?;
                }
            }
        }
        let eff = jmatch_bench::effectiveness();
        if !eff.all_pass() {
            return Err(format!("§7.3 effectiveness checks fail: {:?}", eff.checks));
        }

        raw("compile.p50_ms", &self.p50_ms);
        for (i, v) in self.row_ms.iter().enumerate() {
            raw(&format!("compile.row{i}"), v);
        }
        let per_row: Vec<f64> = self.row_ms.iter().map(|v| median(v)).collect();
        let loads: usize = self.row_ms.iter().map(Vec::len).sum();
        let edits = self.p50_ms.len() * self.script.sweep_len();
        report.attempted += self.attempted;
        report.put("compile_s", per_row.iter().sum::<f64>() / 1e3, "s", loads);
        report.put("compile_geomean_ms", geomean(&per_row), "ms", loads);
        report.put("rebuild_p50_ms", median(&self.p50_ms), "ms", edits);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The traced pipeline
// ---------------------------------------------------------------------------

/// The previous generation a traced rebuild is incremental against.
struct Prev {
    table: Arc<ClassTable>,
    plan: Arc<ProgramPlan>,
    fps: Fingerprints,
}

/// What one traced rebuild did.
#[derive(Default)]
struct Rebuilt {
    full: bool,
    reverified: usize,
    reused_verifications: usize,
    reused_plans: usize,
    recompiled: usize,
    units: usize,
    tokens: usize,
    stats: SessionStats,
}

/// The calls `Workspace::rebuild` makes, in its order, each wrapped in a
/// span: lex and parse, class table, fingerprints, verification, plan.
struct TracedWorkspace {
    verifier: VerifyEngine,
    prev: Option<Prev>,
    threads: usize,
}

impl TracedWorkspace {
    fn new(threads: usize) -> TracedWorkspace {
        TracedWorkspace {
            // The options `Workspace` verifies with at its defaults.
            verifier: VerifyEngine::new(VerifyOptions {
                max_expansion_depth: CompileOptions::default().max_expansion_depth,
                report_unknown: false,
                session_reuse: true,
            }),
            prev: None,
            threads,
        }
    }

    fn rebuild(
        &mut self,
        tracer: &Tracer,
        group: u64,
        source: &str,
    ) -> Result<(Diagnostics, Rebuilt), String> {
        // The parser lexes internally; this separate lex measures the lexer
        // alone and lies outside the rebuild span.
        let tokens = tracer
            .root("syntax.lex", group, || jmatch_syntax::lex(source))
            .map_err(|e| e.to_string())?;
        tracer.root("rebuild", group, || {
            let ast: ast::Program = tracer
                .span("syntax.parse", || jmatch_syntax::parse_program(source))
                .map_err(|e| e.to_string())?;
            let mut out = Rebuilt {
                tokens: tokens.len(),
                ..Rebuilt::default()
            };
            let mut diags = Diagnostics::new();
            let table = tracer.span("core.table", || match &self.prev {
                Some(p) => ClassTable::build_reusing(&ast, &mut diags, &p.table),
                None => ClassTable::build(&ast, &mut diags),
            });
            let fps = tracer.span("core.fingerprint", || Fingerprints::of(&table));
            let (vdiags, stats) = tracer.span("core.verify", || {
                self.verifier.verify(&table, &fps, self.threads)
            });
            diags.extend(vdiags);
            out.units = fps.units.len();
            out.reverified = stats.reverified.len();
            out.reused_verifications = stats.reused;
            out.stats = stats.stats;
            let prev = self
                .prev
                .take()
                .filter(|p| p.fps.structure == fps.structure);
            let plan = tracer.span("core.plan", || match &prev {
                Some(p) => {
                    let dirty: Vec<bool> = p
                        .fps
                        .units
                        .iter()
                        .zip(&fps.units)
                        .map(|(old, new)| old.body != new.body)
                        .collect();
                    ProgramPlan::recompile(
                        &p.plan,
                        Arc::clone(&table),
                        &dirty,
                        PlanOptions::default(),
                    )
                }
                None => ProgramPlan::compile_with(Arc::clone(&table), PlanOptions::default()),
            });
            out.full = prev.is_none();
            for (pid, mp) in plan.methods().iter().enumerate() {
                match &prev {
                    Some(p) if Arc::ptr_eq(mp, &p.plan.methods()[pid]) => out.reused_plans += 1,
                    _ => out.recompiled += 1,
                }
            }
            self.prev = Some(Prev { table, plan, fps });
            Ok((diags, out))
        })
    }

    fn plan(&self) -> &ProgramPlan {
        &self.prev.as_ref().expect("a generation is built").plan
    }
}

/// Edits the traced run applies, both untraced and traced.
const TRACE_EDITS: usize = 150;

/// The traced compile phase: one scratch pass and the first
/// [`TRACE_EDITS`] edits of the script, each run untraced through
/// `Workspace` and then traced through the same public calls, plus one
/// traced scratch pass at one verification worker for the scaling ratio.
pub fn run_traced(
    rows: &[Row],
    rng: &Rng,
    threads: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut script = EditScript::new(rows, rng.fork(1));
    let sources: Vec<String> = (0..rows.len()).map(|i| script.source(i)).collect();
    let edits: Vec<(usize, String)> = (0..TRACE_EDITS).map(|_| script.next_edit()).collect();

    // A program compiles faster the second time in a process, so one
    // untraced pass warms up first. Then each corpus program and each edit
    // runs untraced through `Workspace` and traced through the same calls,
    // back to back and in alternating order, so drift in the host's speed
    // cancels out of the overhead.
    for source in &sources {
        workspace(threads).load(source).map_err(|e| e.to_string())?;
    }
    let mut untraced = Duration::ZERO;
    let mut traced_total = Duration::ZERO;
    let mut plain: Vec<Workspace> = Vec::new();
    let mut traced: Vec<TracedWorkspace> = Vec::new();
    let mut scratch = Rebuilt::default();
    let (mut plan_methods, mut forms, mut det_forms, mut prunes) = (0, 0, 0, 0);
    let mut row_ms = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        let mut ws = workspace(threads);
        let mut tw = TracedWorkspace::new(threads);
        let ((gen, plain_t), (built, traced_t)) = in_turn(
            i,
            || {
                time(|| {
                    ws.load(source)
                        .map_err(|e| format!("{}: {e}", rows[i].name))
                })
            },
            || time(|| tw.rebuild(tracer, 1 + i as u64, source)),
        );
        let (gen, (diags, built)) = (gen?, built?);
        untraced += plain_t;
        traced_total += traced_t;
        row_ms.push((rows[i].name, plain_t.as_secs_f64() * 1e3));
        if &diags != gen.program().diagnostics() {
            return Err(format!(
                "{}: traced pipeline diverges from Workspace",
                rows[i].name
            ));
        }
        scratch.stats.absorb(built.stats);
        scratch.tokens += built.tokens;
        let plan = tw.plan();
        plan_methods += plan.methods().len();
        if let Some(a) = plan.analysis() {
            forms += a.forms;
            det_forms += a.det_forms;
            prunes += a.prunes.len();
        }
        plain.push(ws);
        traced.push(tw);
    }
    let verify_n = tracer.total_ms("core.verify");
    let mut edit_ms = Vec::new();
    let mut inc = Rebuilt::default();
    let mut full_rebuilds = 0;
    for (k, (i, source)) in edits.iter().enumerate() {
        let (ws, tw) = (&mut plain[*i], &mut traced[*i]);
        let ((gen, plain_t), (built, traced_t)) = in_turn(
            k,
            || time(|| ws.update_source(source).map_err(|e| e.to_string())),
            || time(|| tw.rebuild(tracer, 1000 + k as u64, source)),
        );
        let (gen, (diags, built)) = (gen?, built?);
        untraced += plain_t;
        traced_total += traced_t;
        edit_ms.push(plain_t.as_secs_f64() * 1e3);
        if &diags != gen.program().diagnostics() {
            return Err(format!("edit {k}: traced pipeline diverges from Workspace"));
        }
        full_rebuilds += built.full as usize;
        inc.reverified += built.reverified;
        inc.reused_verifications += built.reused_verifications;
        inc.reused_plans += built.reused_plans;
        inc.recompiled += built.recompiled;
        inc.units += built.units;
        inc.stats.absorb(built.stats);
        inc.tokens += built.tokens;
    }

    // Verification scaling: the verify spans of a scratch pass at one
    // worker against the pass above.
    let one = Tracer::new();
    for (i, source) in sources.iter().enumerate() {
        TracedWorkspace::new(1).rebuild(&one, 1 + i as u64, source)?;
    }
    let verify_1 = one.total_ms("core.verify");

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let lex_ms = tracer.total_ms("syntax.lex");
    let parse_ms = tracer.total_ms("syntax.parse");
    report.put("syntax.lex_ms", lex_ms, "ms", 1);
    report.put("syntax.parse_ms", (parse_ms - lex_ms).max(0.0), "ms", 1);
    report.put(
        "syntax.tokens_per_s",
        (scratch.tokens + inc.tokens) as f64 / (lex_ms / 1e3),
        "1/s",
        1,
    );
    report.put("core.table_ms", tracer.total_ms("core.table"), "ms", 1);
    report.put(
        "core.fingerprint_ms",
        tracer.total_ms("core.fingerprint"),
        "ms",
        1,
    );
    report.put("core.verify_ms", tracer.total_ms("core.verify"), "ms", 1);
    report.put("core.plan_ms", tracer.total_ms("core.plan"), "ms", 1);
    // The tail does not repeat run to run within a tenth on a shared host,
    // so it is a per-layer metric, taken from the untraced edits above.
    report.put(
        "tail.rebuild_p90_ms",
        quantile(&edit_ms, 0.9),
        "ms",
        edit_ms.len(),
    );
    report.count("core.incremental.reverified", inc.reverified as f64);
    report.count(
        "core.incremental.reused_verifications",
        inc.reused_verifications as f64,
    );
    report.count("core.incremental.reused_plans", inc.reused_plans as f64);
    report.count("core.incremental.recompiled", inc.recompiled as f64);
    report.count("core.incremental.full_rebuilds", full_rebuilds as f64);
    report.ratio(
        "core.incremental.reuse_ratio",
        inc.reused_verifications as f64,
        inc.units as f64,
    );
    for (name, t) in row_ms {
        report.put(format!("compile_ms.{name}"), t, "ms", 1);
    }
    let mut smt = scratch.stats;
    smt.absorb(inc.stats);
    report.count("smt.solver_queries", smt.solver_queries as f64);
    report.count("smt.cache_hits", smt.cache_hits as f64);
    report.count("smt.rounds", smt.rounds as f64);
    report.count("smt.theory_conflicts", smt.theory_conflicts as f64);
    report.count("smt.lemmas", smt.lemmas as f64);
    report.count("smt.sat_conflicts", smt.sat_conflicts as f64);
    report.count("smt.sat_decisions", smt.sat_decisions as f64);
    report.count("smt.sat_propagations", smt.sat_propagations as f64);
    report.ratio(
        "smt.cache_hit_ratio",
        smt.cache_hits as f64,
        (smt.cache_hits + smt.solver_queries) as f64,
    );
    report.ratio("core.verify.scaling", verify_1, verify_n);
    report.count("core.plan.methods", plan_methods as f64);
    report.count("core.analysis.forms", forms as f64);
    report.count("core.analysis.det_forms", det_forms as f64);
    report.count("core.analysis.prunes", prunes as f64);
    let untraced = ms(untraced);
    report.put(
        "trace.compile_overhead_ms",
        ms(traced_total) - untraced,
        "ms",
        1,
    );
    report.ratio(
        "trace.compile_accounted",
        tracer.total_ms("rebuild"),
        untraced,
    );
    // Time inside a rebuild but outside every layer call.
    let glue = tracer.self_ms().get("rebuild").copied().unwrap_or(0.0);
    report.put("trace.compile_glue_ms", glue, "ms", 1);
    report.attempted += (2 * rows.len() + 2 * edits.len()) as u64;
    Ok(())
}
