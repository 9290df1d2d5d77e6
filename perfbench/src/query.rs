//! The query phase: embedding-API operations → all solutions.
//!
//! The programs are the runtime programs of `jmatch-bench`, compiled once
//! in setup with verification off. A seeded sequence of operations runs
//! against them on the default engine; every result is checked against
//! the tree-walker (`Engine::TreeWalk`) result computed in setup, and
//! against a closed form where one exists. One OR-parallel enumeration of
//! a complete binary tree runs at `nproc` workers.

use crate::stats::{median, quantile, raw, Report, Rng};
use crate::trace::{count_allocs, in_turn, time, Tracer};
use jmatch_bench::{
    repr_dispatch_source, runtime_workload_source, DET_TREE_SOURCE, PARALLEL_TREE_SOURCE,
    REPR_DISPATCH_ARMS, REPR_FIELD_SOURCE,
};
use jmatch_runtime::{
    args, Bindings, CtorRef, Engine, Limits, MethodRef, Program, Value, Workspace,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// List lengths the list operations draw from.
const LIST_LENS: [i64; 3] = [4, 16, 48];
/// Left-chain depths for `det_tree_min`.
const CHAIN_DEPTHS: [i64; 3] = [8, 32, 96];
/// Largest natural number `nat_plus` adds.
const NAT_MAX: i64 = 12;
/// Depth of the complete binary tree enumerated in parallel.
pub const PAR_DEPTH: u32 = 13;
/// Trees in the `query_many` batch of the traced run, and their depth.
const MANY_TREES: usize = 8;
const MANY_DEPTH: u32 = 9;
/// Operations of each kind per window. Every window holds the same
/// operations (see [`Op::nth`]) in its own seeded order, so the seed
/// moves the order but never the mix a window's latencies come from.
const PER_KIND: usize = 450;
/// Operations per window. Each window yields one throughput and one
/// median latency.
const WINDOW: usize = KINDS.len() * PER_KIND;
/// Windows in the pre-generated sequence; a run cycles through it.
const SEQUENCE_WINDOWS: usize = 12;
/// Operations the traced run times per pass.
const TRACE_OPS: usize = 20_000;

/// One embedding-API operation. Every operation yields an integer
/// (booleans as 0/1), which the oracle checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    NatPlus(i64, i64),
    ListSize(usize),
    ListContains(usize, i64),
    ListEquals(usize),
    GenBurn(i64),
    Dispatch(usize, i64),
    Deconstruct(usize),
    DetTreeMin(usize),
    Field(i64),
}

pub const KINDS: [&str; 9] = [
    "nat_plus",
    "list_size",
    "list_contains",
    "list_equals",
    "gen_burn",
    "dispatch",
    "deconstruct",
    "det_tree_min",
    "field",
];

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::NatPlus(..) => 0,
            Op::ListSize(..) => 1,
            Op::ListContains(..) => 2,
            Op::ListEquals(..) => 3,
            Op::GenBurn(..) => 4,
            Op::Dispatch(..) => 5,
            Op::Deconstruct(..) => 6,
            Op::DetTreeMin(..) => 7,
            Op::Field(..) => 8,
        }
    }

    /// The `j`-th operation of kind `kind` in a window: the parameters
    /// step through their ranges (lists and chains in turn, `nat_plus`
    /// over `0..=NAT_MAX` squared, `contains` over `0..=2 × length`,
    /// `burn` over `1..=40`, dispatch over every arm and `0..=7`, field
    /// churn over `1..=20`).
    fn nth(kind: usize, j: usize) -> Op {
        let list = j % LIST_LENS.len();
        let nats = NAT_MAX as usize + 1;
        match kind {
            0 => Op::NatPlus((j % nats) as i64, (j / nats % nats) as i64),
            1 => Op::ListSize(list),
            2 => {
                let xs = 2 * LIST_LENS[list] as usize + 1;
                Op::ListContains(list, (j / LIST_LENS.len() % xs) as i64)
            }
            3 => Op::ListEquals(list),
            4 => Op::GenBurn(1 + (j % 40) as i64),
            5 => Op::Dispatch(j % REPR_DISPATCH_ARMS, (j / REPR_DISPATCH_ARMS % 8) as i64),
            6 => Op::Deconstruct(list),
            7 => Op::DetTreeMin(j % CHAIN_DEPTHS.len()),
            _ => Op::Field(1 + (j % 20) as i64),
        }
    }

    /// The result in closed form, where the operation has one.
    fn closed_form(self) -> Option<i64> {
        Some(match self {
            Op::NatPlus(a, b) => a + b,
            Op::ListSize(l) => LIST_LENS[l],
            Op::ListContains(l, x) => (x < LIST_LENS[l]) as i64,
            Op::ListEquals(_) => 1,
            Op::GenBurn(n) => 28 * n + 4 * n * (n - 1),
            Op::Dispatch(k, v) => v + k as i64,
            Op::Deconstruct(l) => LIST_LENS[l] * (LIST_LENS[l] - 1) / 2,
            // The leftmost node is the deepest one of the chain.
            Op::DetTreeMin(d) => 1000 + CHAIN_DEPTHS[d] - 1,
            Op::Field(_) => return None,
        })
    }
}

/// Per-operation engine counters, gathered only by the traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    steps: u64,
    choice_points: u64,
    live_max: usize,
}

/// The runtime programs compiled on one engine, with resolved handles and
/// prebuilt input values.
pub struct Fixture {
    rt: Program,
    plus: MethodRef,
    to_int: MethodRef,
    size: MethodRef,
    contains: MethodRef,
    burn: MethodRef,
    gen: Value,
    route: MethodRef,
    arms: Vec<CtorRef>,
    min: MethodRef,
    churn: MethodRef,
    point: Value,
    nats: Vec<Value>,
    lists_a: Vec<Value>,
    lists_b: Vec<Value>,
    chains: Vec<Value>,
}

fn build(source: &str, engine: Engine) -> Result<Program, String> {
    let program = Workspace::new()
        .verify(false)
        .engine(engine)
        .compile(source)
        .map_err(|e| format!("query program does not parse: {e}"))?;
    if !program.diagnostics().errors.is_empty() {
        return Err(format!(
            "query program has errors: {:?}",
            program.diagnostics().errors
        ));
    }
    Ok(program)
}

fn rt<T>(r: jmatch_runtime::RtResult<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

fn int(v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(n) => Ok(*n),
        Value::Bool(b) => Ok(*b as i64),
        other => Err(format!("expected an int, got {other}")),
    }
}

impl Fixture {
    pub fn new(engine: Engine) -> Result<Fixture, String> {
        let rt_prog = build(&runtime_workload_source(), engine)?;
        let dispatch = build(&repr_dispatch_source(), engine)?;
        let det = build(DET_TREE_SOURCE, engine)?;
        let field = build(REPR_FIELD_SOURCE, engine)?;

        let zero = rt(rt_prog.ctor("ZNat", "zero"))?;
        let succ = rt(rt_prog.ctor("ZNat", "succ"))?;
        let mut nats = vec![rt(zero.construct(args![]))?];
        for i in 0..NAT_MAX as usize {
            nats.push(rt(succ.construct(args![nats[i].clone()]))?);
        }
        let nil = rt(rt_prog.ctor("EmptyList", "nil"))?;
        let cons = rt(rt_prog.ctor("ConsList", "cons"))?;
        let list = |n: i64| -> Result<Value, String> {
            let mut l = rt(nil.construct(args![]))?;
            for i in (0..n).rev() {
                l = rt(cons.construct(args![i, l]))?;
            }
            Ok(l)
        };
        let lists_a = LIST_LENS
            .iter()
            .map(|n| list(*n))
            .collect::<Result<_, _>>()?;
        let lists_b = LIST_LENS
            .iter()
            .map(|n| list(*n))
            .collect::<Result<_, _>>()?;

        let leaf = rt(det.ctor("Leaf", "leaf"))?;
        let node = rt(det.ctor("Node", "node"))?;
        let chains = CHAIN_DEPTHS
            .iter()
            .map(|depth| {
                let mut t = rt(leaf.construct(args![]))?;
                for i in (0..*depth).rev() {
                    let sibling = rt(leaf.construct(args![]))?;
                    t = rt(node.construct(args![i + 1000, t, sibling]))?;
                }
                Ok(t)
            })
            .collect::<Result<_, String>>()?;

        let arms = (0..REPR_DISPATCH_ARMS)
            .map(|k| rt(dispatch.ctor(&format!("C{k}"), &format!("C{k}"))))
            .collect::<Result<_, _>>()?;
        let point = rt(rt(field.ctor("Point", "at"))?.construct(args![3, 5, 7, 11]))?;
        Ok(Fixture {
            plus: rt(rt_prog.free_method("plus"))?,
            to_int: rt(rt_prog.method("ZNat", "toInt"))?,
            size: rt(rt_prog.method("ConsList", "size"))?,
            contains: rt(rt_prog.method("ConsList", "contains"))?,
            burn: rt(rt_prog.method("Gen", "burn"))?,
            gen: rt(rt_prog.instance("Gen"))?,
            route: rt(dispatch.free_method("route"))?,
            min: rt(det.method("Node", "min"))?,
            churn: rt(field.free_method("churn"))?,
            arms,
            point,
            nats,
            lists_a,
            lists_b,
            chains,
            rt: rt_prog,
        })
    }

    /// Runs one operation through the embedding API as an embedder would.
    pub fn run(&self, op: Op) -> Result<i64, String> {
        match op {
            Op::NatPlus(a, b) => {
                let s = rt(self.plus.call(
                    None,
                    args![self.nats[a as usize].clone(), self.nats[b as usize].clone()],
                ))?;
                int(&rt(self.to_int.call(Some(&s), args![]))?)
            }
            Op::ListSize(l) => int(&rt(self.size.call(Some(&self.lists_a[l]), args![]))?),
            Op::ListContains(l, x) => {
                int(&rt(self.contains.call(Some(&self.lists_a[l]), args![x]))?)
            }
            Op::ListEquals(l) => {
                Ok(rt(self.rt.values_equal(&self.lists_a[l], &self.lists_b[l]))? as i64)
            }
            Op::GenBurn(n) => int(&rt(self.burn.call(Some(&self.gen), args![n]))?),
            Op::Dispatch(k, v) => {
                let value = rt(self.arms[k].construct(args![v]))?;
                int(&rt(self.route.call(None, args![value]))?)
            }
            Op::Deconstruct(l) => {
                let mut total = 0;
                let mut cur = self.lists_a[l].clone();
                while !rt(self.rt.matches(&cur, "nil"))? {
                    let rows = rt(rt(self.rt.deconstruct(&cur, "cons"))?.try_collect_rows())?;
                    let row = rows.first().ok_or("cons deconstruction has no solution")?;
                    total += int(&row[0])?;
                    cur = row[1].clone();
                }
                Ok(total)
            }
            Op::DetTreeMin(d) => {
                let query = rt(self.min.iterate(Some(&self.chains[d]), &Bindings::new()))?;
                let mut solutions = query.solutions();
                let first = solutions.next().ok_or("min has no solution")?;
                int(&first["m"])
            }
            Op::Field(rounds) => int(&rt(self
                .churn
                .call(None, args![self.point.clone(), rounds]))?),
        }
    }

    /// [`Fixture::run`] through the counted entry points a server uses,
    /// each call wrapped in a span; returns the engine counters too.
    fn run_traced(&self, op: Op, tracer: &Tracer) -> Result<(i64, Counters), String> {
        let mut c = Counters::default();
        let limits = Limits::default();
        let mut call =
            |m: &MethodRef, recv: Option<&Value>, a: Vec<Value>| -> Result<Value, String> {
                let (out, steps) =
                    tracer.span("runtime.call_counted", || m.call_counted(recv, a, limits));
                if let Some(s) = steps {
                    c.steps += s;
                }
                rt(out)
            };
        let v = match op {
            Op::NatPlus(a, b) => {
                let s = call(
                    &self.plus,
                    None,
                    args![self.nats[a as usize].clone(), self.nats[b as usize].clone()],
                )?;
                int(&call(&self.to_int, Some(&s), args![])?)?
            }
            Op::ListSize(l) => int(&call(&self.size, Some(&self.lists_a[l]), args![])?)?,
            Op::ListContains(l, x) => {
                int(&call(&self.contains, Some(&self.lists_a[l]), args![x])?)?
            }
            Op::GenBurn(n) => int(&call(&self.burn, Some(&self.gen), args![n])?)?,
            Op::Dispatch(k, v) => {
                let value = rt(self.arms[k].construct(args![v]))?;
                int(&call(&self.route, None, args![value])?)?
            }
            Op::Field(rounds) => int(&call(&self.churn, None, args![self.point.clone(), rounds])?)?,
            Op::DetTreeMin(d) => {
                let query = rt(self.min.iterate(Some(&self.chains[d]), &Bindings::new()))?;
                tracer.span("runtime.solutions", || {
                    let mut solutions = query.solutions();
                    let first = solutions.next().ok_or("min has no solution")?;
                    c.steps += solutions.steps().unwrap_or(0);
                    c.choice_points += solutions.choice_points_created().unwrap_or(0);
                    c.live_max = c.live_max.max(solutions.choice_points().unwrap_or(0));
                    int(&first["m"])
                })?
            }
            Op::Deconstruct(l) => {
                let mut total = 0;
                let mut cur = self.lists_a[l].clone();
                while !rt(self.rt.matches(&cur, "nil"))? {
                    let query = rt(self.rt.deconstruct(&cur, "cons"))?;
                    let rows = tracer.span("runtime.solutions", || rt(query.try_collect_rows()))?;
                    let row = rows.first().ok_or("cons deconstruction has no solution")?;
                    total += int(&row[0])?;
                    cur = row[1].clone();
                }
                total
            }
            Op::ListEquals(_) => tracer.span("runtime.values_equal", || self.run(op))?,
        };
        Ok((v, c))
    }
}

/// Everything the query phase needs, built in setup.
pub struct Setup {
    fixture: Fixture,
    ops: Vec<Op>,
    expected: HashMap<Op, i64>,
    par: Program,
    tree: Value,
}

impl Setup {
    pub fn new(rng: &Rng) -> Result<Setup, String> {
        let fixture = Fixture::new(Engine::Plan)?;
        let oracle = Fixture::new(Engine::TreeWalk)?;
        let mut r = rng.fork(3);
        let mut window: Vec<Op> = (0..KINDS.len())
            .flat_map(|kind| (0..PER_KIND).map(move |j| Op::nth(kind, j)))
            .collect();
        let mut ops = Vec::with_capacity(WINDOW * SEQUENCE_WINDOWS);
        for _ in 0..SEQUENCE_WINDOWS {
            r.shuffle(&mut window);
            ops.extend_from_slice(&window);
        }
        let mut expected = HashMap::new();
        for op in &ops {
            if expected.contains_key(op) {
                continue;
            }
            let want = oracle
                .run(*op)
                .map_err(|e| format!("tree-walker oracle, {op:?}: {e}"))?;
            if let Some(closed) = op.closed_form() {
                if closed != want {
                    return Err(format!(
                        "{op:?}: tree-walker gives {want}, closed form {closed}"
                    ));
                }
            }
            expected.insert(*op, want);
        }
        let par = build(PARALLEL_TREE_SOURCE, Engine::Plan)?;
        let tree = jmatch_bench::parallel_tree(&par, PAR_DEPTH);
        Ok(Setup {
            fixture,
            ops,
            expected,
            par,
            tree,
        })
    }

    fn check(&self, op: Op, got: i64) -> Result<(), String> {
        let want = self.expected[&op];
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{op:?}: got {got}, the tree-walker oracle gives {want}"
            ))
        }
    }

    /// One full enumeration of the tree; checks every leaf arrives in order.
    fn enumerate(&self, threads: Option<usize>) -> Result<(), String> {
        let vals = rt(self.par.method("Node", "vals"))?;
        let query = rt(vals.iterate(Some(&self.tree), &Bindings::new()))?;
        let mut solutions = match threads {
            Some(n) => query.par_solutions(n),
            None => query.solutions(),
        };
        let mut next = 0i64;
        for b in solutions.by_ref() {
            if int(&b["x"])? != next {
                return Err(format!("enumeration: leaf {next} out of order"));
            }
            next += 1;
        }
        if let Some(e) = solutions.error() {
            return Err(format!("enumeration failed: {e}"));
        }
        if next != 1 << PAR_DEPTH {
            return Err(format!(
                "enumeration: {next} leaves, want {}",
                1 << PAR_DEPTH
            ));
        }
        Ok(())
    }
}

/// Shares of the query phase's time: windows of operations and parallel
/// enumerations.
const WINDOW_SHARE: f64 = 0.8;
const PAR_SHARE: f64 = 0.2;
/// Windows and enumerations per run never fall below these.
const MIN_WINDOWS: usize = 8;
const MIN_PAR_RUNS: usize = 10;

/// The untraced query phase, measured in steps: a step is one window of
/// operations or one parallel enumeration, whichever is behind its share;
/// each metric is a median over windows or enumerations.
pub struct Phase<'a> {
    setup: &'a Setup,
    threads: usize,
    cursor: usize,
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    par_ms: Vec<f64>,
    window_s: f64,
    par_s: f64,
    attempted: u64,
}

impl<'a> Phase<'a> {
    pub fn new(setup: &'a Setup, threads: usize) -> Phase<'a> {
        Phase {
            setup,
            threads,
            cursor: 0,
            ops_per_s: Vec::new(),
            p50_us: Vec::new(),
            par_ms: Vec::new(),
            window_s: 0.0,
            par_s: 0.0,
            attempted: 0,
        }
    }

    fn window(&mut self) -> Result<(), String> {
        let setup = self.setup;
        let mut lat_us = Vec::with_capacity(WINDOW);
        let t_window = Instant::now();
        for _ in 0..WINDOW {
            let op = setup.ops[self.cursor % setup.ops.len()];
            self.cursor += 1;
            let t = Instant::now();
            let got = setup.fixture.run(op)?;
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            setup.check(op, got)?;
        }
        self.ops_per_s
            .push(WINDOW as f64 / t_window.elapsed().as_secs_f64());
        self.p50_us.push(median(&lat_us));
        self.attempted += WINDOW as u64;
        Ok(())
    }

    fn enumerate(&mut self) -> Result<(), String> {
        let t = Instant::now();
        self.setup.enumerate(Some(self.threads))?;
        self.par_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        Ok(())
    }
}

impl crate::Steps for Phase<'_> {
    fn step(&mut self) -> Result<(), String> {
        let t = Instant::now();
        if self.window_s * PAR_SHARE <= self.par_s * WINDOW_SHARE {
            self.window()?;
            self.window_s += t.elapsed().as_secs_f64();
        } else {
            self.enumerate()?;
            self.par_s += t.elapsed().as_secs_f64();
        }
        Ok(())
    }

    fn ready(&self) -> bool {
        self.ops_per_s.len() >= MIN_WINDOWS && self.par_ms.len() >= MIN_PAR_RUNS
    }
}

impl Phase<'_> {
    pub fn finish(self, report: &mut Report) {
        raw("query.ops_per_s", &self.ops_per_s);
        raw("query.p50_us", &self.p50_us);
        raw("query.par_ms", &self.par_ms);
        let n = self.ops_per_s.len() * WINDOW;
        report.attempted += self.attempted;
        report.put("query_ops_per_s", median(&self.ops_per_s), "1/s", n);
        report.put("query_p50_us", median(&self.p50_us), "us", n);
        report.put("par_enum_ms", median(&self.par_ms), "ms", self.par_ms.len());
    }
}

/// The traced query phase: the first [`TRACE_OPS`] operations under
/// allocation counting, then each one untraced and traced through the
/// counted entry points; then the parallel-pool layer on its own.
pub fn run_traced(
    setup: &Setup,
    threads: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let ops = &setup.ops[..TRACE_OPS.min(setup.ops.len())];
    let (res, allocs, bytes) = count_allocs(|| -> Result<(), String> {
        for op in ops {
            setup.fixture.run(*op)?;
        }
        Ok(())
    });
    res?;

    // Each operation runs untraced and traced, back to back and in
    // alternating order, so drift in the host's speed cancels out of the
    // overhead.
    let mut lat_us = Vec::with_capacity(ops.len());
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut total = Counters::default();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for (k, op) in ops.iter().enumerate() {
        let ((got, plain_t), (out, traced_t)) = in_turn(
            k,
            || time(|| setup.fixture.run(*op)),
            || {
                time(|| {
                    tracer.root(KIND_SPANS[op.kind()], k as u64, || {
                        setup.fixture.run_traced(*op, tracer)
                    })
                })
            },
        );
        let (got, (traced_got, c)) = (got?, out?);
        untraced += plain_t;
        traced += traced_t;
        lat_us.push(plain_t.as_secs_f64() * 1e6);
        per_kind[op.kind()].push(plain_t.as_secs_f64() * 1e6);
        setup.check(*op, got)?;
        setup.check(*op, traced_got)?;
        total.steps += c.steps;
        total.choice_points += c.choice_points;
        total.live_max = total.live_max.max(c.live_max);
    }
    // The tail does not repeat run to run within a tenth on a shared host,
    // so it is a per-layer metric.
    report.put(
        "tail.query_p99_us",
        quantile(&lat_us, 0.99),
        "us",
        lat_us.len(),
    );

    for (kind, lat) in KINDS.iter().zip(&per_kind) {
        report.put(format!("runtime.{kind}_us"), median(lat), "us", lat.len());
    }
    let n = ops.len() as f64;
    let engine_s =
        tracer.total_ms("runtime.call_counted") / 1e3 + tracer.total_ms("runtime.solutions") / 1e3;
    report.put(
        "runtime.steps_per_op",
        total.steps as f64 / n,
        "count",
        ops.len(),
    );
    report.put(
        "runtime.steps_per_s",
        total.steps as f64 / engine_s,
        "1/s",
        ops.len(),
    );
    report.count("runtime.choice_points_created", total.choice_points as f64);
    report.count("runtime.choice_points_live_max", total.live_max as f64);
    report.put(
        "runtime.allocs_per_op",
        allocs as f64 / n,
        "count",
        ops.len(),
    );
    report.put(
        "runtime.alloc_bytes_per_op",
        bytes as f64 / n,
        "B",
        ops.len(),
    );
    report.put(
        "trace.query_overhead_ms",
        (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e3,
        "ms",
        1,
    );
    let selfs = tracer.self_ms();
    let (mut spans_ms, mut glue_ms) = (0.0, 0.0);
    for name in KIND_SPANS {
        spans_ms += tracer.total_ms(name);
        glue_ms += selfs.get(name).copied().unwrap_or(0.0);
    }
    report.ratio(
        "trace.query_accounted",
        spans_ms,
        untraced.as_secs_f64() * 1e3,
    );
    // Time inside an operation but outside the engine entry points.
    report.put("trace.query_glue_ms", glue_ms, "ms", 1);

    // The parallel pool: sequential against `threads` workers on the same
    // tree, and one `query_many` batch of smaller trees.
    tracer.root("par.seq", 0, || setup.enumerate(None))?;
    tracer.root("par.par", 0, || setup.enumerate(Some(threads)))?;
    let (seq, par) = (tracer.total_ms("par.seq"), tracer.total_ms("par.par"));
    let vals = rt(setup.par.method("Node", "vals"))?;
    let trees: Vec<Value> = (0..MANY_TREES)
        .map(|k| jmatch_bench::parallel_tree_from(&setup.par, MANY_DEPTH, (k as i64) << MANY_DEPTH))
        .collect();
    let queries = trees
        .iter()
        .map(|t| rt(vals.iterate(Some(t), &Bindings::new())))
        .collect::<Result<Vec<_>, _>>()?;
    let results = tracer.root("par.query_many", 0, || {
        setup.par.query_many(&queries, threads)
    });
    for (k, r) in results.into_iter().enumerate() {
        let got: Vec<i64> = rt(r)?
            .iter()
            .map(|b| int(&b["x"]))
            .collect::<Result<_, _>>()?;
        let base = (k as i64) << MANY_DEPTH;
        if got != (base..base + (1 << MANY_DEPTH)).collect::<Vec<_>>() {
            return Err(format!("query_many: tree {k} enumerates wrongly"));
        }
    }
    report.put("par.seq_ms", seq, "ms", 1);
    report.put("par.par_ms", par, "ms", 1);
    report.ratio("par.speedup", seq, par);
    report.put(
        "par.query_many_ms",
        tracer.total_ms("par.query_many"),
        "ms",
        1,
    );
    report.attempted += (3 * ops.len() + 2 + MANY_TREES) as u64;
    Ok(())
}

/// Root span names per operation kind, in [`KINDS`] order.
const KIND_SPANS: [&str; 9] = [
    "runtime.nat_plus",
    "runtime.list_size",
    "runtime.list_contains",
    "runtime.list_equals",
    "runtime.gen_burn",
    "runtime.dispatch",
    "runtime.deconstruct",
    "runtime.det_tree_min",
    "runtime.field",
];
