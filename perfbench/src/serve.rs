//! The serve phase: wire request → reply against an in-process
//! `serve::Server` on loopback.
//!
//! Load is generated open loop: two generator threads, each owning one
//! pipelined connection, send requests at seeded exponential gaps around
//! a fixed rate, whether or not earlier replies have arrived, and match
//! replies to requests by `id`. Latency runs from each request's *due*
//! time, so a stall also charges the requests queued behind it. The rate
//! steps through a fixed ladder; every reply frame is checked against the
//! embedding-API oracle computed in setup.

use crate::stats::{median, quantile, raw, Report, Rng};
use crate::trace::Tracer;
use jmatch_runtime::serve::cache::ProgramCache;
use jmatch_runtime::serve::json::Json;
use jmatch_runtime::serve::proto::{bindings_to_json, frame_bytes, value_to_json};
use jmatch_runtime::serve::{Client, QuotaConfig, ServeConfig, Server};
use jmatch_runtime::{args, Bindings, Value, Workspace};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered rates in requests per second, lowest first.
pub const LADDER: [f64; 17] = [
    10_000.0, 36_000.0, 40_000.0, 44_000.0, 48_000.0, 52_000.0, 56_000.0, 60_000.0, 64_000.0,
    68_000.0, 72_000.0, 76_000.0, 80_000.0, 84_000.0, 88_000.0, 92_000.0, 96_000.0,
];
/// The rung `serve_p50_us` is measured at: a moderate load, about a fifth
/// of saturation on a 2-core host, so the latency is the cost of serving
/// a request rather than of waiting behind others.
pub const MIDDLE: usize = 0;
/// Requests of the middle rung, in due order, per latency slice: each
/// slice yields one median.
const SLICE: usize = 250;
/// How long each rung offers its rate.
const RUNG: Duration = Duration::from_millis(300);
/// The traced run's middle rung lasts this long, untraced and traced.
const TRACE_RUNG: Duration = Duration::from_secs(1);
/// The fixed latency limit on the 99th percentile, from due time.
pub const P99_LIMIT_US: f64 = 25_000.0;
/// Generator threads, each with one connection.
pub const CONNECTIONS: usize = 2;
/// How long stragglers may take after a rung's last due time before they
/// count as a backlog that did not drain.
const GRACE: Duration = Duration::from_secs(2);
/// Requests one connection may have in flight before its rung is cut
/// short as saturated: well over what the latency limit lets pile up at
/// the top rate (96k/s × 25 ms ÷ 2 connections = 1200).
const MAX_BACKLOG: usize = 2048;

/// Request kinds and their weights in the mix.
pub const KINDS: [&str; 7] = [
    "ping",
    "call",
    "query",
    "stream",
    "compile_cached",
    "compile_cold",
    "reload",
];
/// Connection 0 sends all reloads, at twice the share, so the mix over
/// both connections holds 2.5% reloads.
const WEIGHTS: [u32; 7] = [150, 350, 250, 120, 80, 25, 50];
const WEIGHTS_NO_RELOAD: [u32; 7] = [150, 350, 250, 120, 80, 25, 0];

/// The cached program every call, query and stream runs against.
const SERVE_SRC: &str = "\
static boolean below(int n, int x) iterates(x)
    ( x = 0 || x = 1 || x = 2 || x = 3 || x = 4 )
static int add(int a, int b) { return a + b; }
static int tri(int n) {
    int t = 0;
    int i = 0;
    while (i < n) { i = i + 1; t = t + i; }
    return t;
}
";

/// The reload lineage's source: the probe's constant is the edit.
fn reload_src(k: u64) -> String {
    format!(
        "static int probe(int x) {{ return x + {k}; }}\nstatic int twice(int x) {{ return x + x; }}\n"
    )
}

/// Largest `n` the queries send (`below` ignores it; it only varies the
/// bindings the reply echoes).
const QUERY_N_MAX: i64 = 7;
const STREAM_BATCH: i64 = 2;

#[derive(Debug, Clone, Copy)]
enum Req {
    Ping,
    Add(i64, i64),
    Tri(i64),
    Query(i64),
    Stream(i64),
    CompileCached,
    CompileCold,
    Reload,
}

impl Req {
    fn kind(self) -> usize {
        match self {
            Req::Ping => 0,
            Req::Add(..) | Req::Tri(..) => 1,
            Req::Query(..) => 2,
            Req::Stream(..) => 3,
            Req::CompileCached => 4,
            Req::CompileCold => 5,
            Req::Reload => 6,
        }
    }

    /// Draws a request; only a connection with `reloads` sends reloads,
    /// so the server sees the one lineage's edits in a known order.
    fn draw(rng: &mut Rng, reloads: bool) -> Req {
        let weights = if reloads { WEIGHTS } else { WEIGHTS_NO_RELOAD };
        match rng.weighted(&weights) {
            0 => Req::Ping,
            1 if rng.below(2) == 0 => Req::Add(rng.range(-99, 99), rng.range(-99, 99)),
            1 => Req::Tri(rng.range(0, 24)),
            2 => Req::Query(rng.range(0, QUERY_N_MAX)),
            3 => Req::Stream(rng.range(0, QUERY_N_MAX)),
            4 => Req::CompileCached,
            5 => Req::CompileCold,
            _ => Req::Reload,
        }
    }
}

/// The server and everything the oracle knows, built in setup.
pub struct Setup {
    server: Option<Server>,
    serve_key: String,
    reload_key: String,
    /// `below` solutions for each `n`, as wire JSON.
    solutions: Vec<Vec<Json>>,
    /// `tri(n)` for each `n`.
    tri: Vec<Json>,
    /// What a probe-body reload recompiles, per the embedding API.
    reload_methods: Vec<Json>,
    specs: Vec<Vec<Req>>,
    /// Serial numbers that keep every cold compile's source distinct and
    /// every reload an edit, across all ladders on this server.
    cold_serial: AtomicU64,
    reload_serial: AtomicU64,
}

fn oracle_err(e: impl std::fmt::Display) -> String {
    format!("serve oracle: {e}")
}

impl Setup {
    pub fn new(rng: &Rng, threads: usize, tracer: Option<&Tracer>) -> Result<Setup, String> {
        let program = Workspace::new()
            .verify(false)
            .compile(SERVE_SRC)
            .map_err(oracle_err)?;
        let below = program.free_method("below").map_err(oracle_err)?;
        let mut solutions = Vec::new();
        for n in 0..=QUERY_N_MAX {
            let mut known = Bindings::new();
            known.insert("n".into(), Value::Int(n));
            let all = below
                .iterate(None, &known)
                .and_then(|q| q.try_collect())
                .map_err(oracle_err)?;
            solutions.push(all.iter().map(bindings_to_json).collect());
        }
        let tri_m = program.free_method("tri").map_err(oracle_err)?;
        let tri = (0..=24)
            .map(|n| tri_m.call(None, args![n]).map(|v| value_to_json(&v)))
            .collect::<Result<_, _>>()
            .map_err(oracle_err)?;
        let mut ws = Workspace::new();
        ws.load(&reload_src(0)).map_err(oracle_err)?;
        let gen = ws.update_source(&reload_src(1)).map_err(oracle_err)?;
        let reload_methods = gen
            .report()
            .recompiled
            .iter()
            .map(|m| Json::Str(m.clone()))
            .collect();

        let config = ServeConfig {
            workers: threads,
            inner_threads: 1,
            batch_max: 16,
            // Deeper than the generator's whole backlog (`MAX_BACKLOG` per
            // connection), so overload shows as latency, not refusals.
            queue_depth: 4 * MAX_BACKLOG,
            max_connections: 16,
            cache_capacity: 1024,
            // The default per-request ceilings, with a pool no open-loop
            // rung can drain: the benchmark measures serving, not refusals.
            quota: QuotaConfig {
                steps_per_window: u64::MAX / 4,
                ..QuotaConfig::default()
            },
            send_queue_depth: 4 * MAX_BACKLOG,
            send_queue_wait_ms: 10_000,
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut compile = |source: &str, verify: bool| -> Result<String, String> {
            let reply = match tracer {
                Some(t) => t.root("serve.client.compile", 0, || client.compile(source, verify)),
                None => client.compile(source, verify),
            }
            .map_err(|e| format!("compile: {e}"))?;
            let key = reply.get("program").and_then(Json::as_str);
            if reply.get("ok") != Some(&Json::Bool(true))
                || key != Some(ProgramCache::key_of(source, verify).as_str())
            {
                return Err(format!("compile reply diverges from the oracle: {reply}"));
            }
            Ok(key.expect("checked above").to_owned())
        };
        let serve_key = compile(SERVE_SRC, false)?;
        let reload_key = compile(&reload_src(0), true)?;

        let specs = (0..CONNECTIONS)
            .map(|c| {
                let mut r = rng.fork(10 + c as u64);
                (0..30_000).map(|_| Req::draw(&mut r, c == 0)).collect()
            })
            .collect();
        Ok(Setup {
            server: Some(server),
            serve_key,
            reload_key,
            solutions,
            tri,
            reload_methods,
            specs,
            cold_serial: AtomicU64::new(0),
            reload_serial: AtomicU64::new(0),
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// A request in flight.
struct Pending {
    req: Req,
    due: Instant,
    /// Solutions streamed so far.
    streamed: Vec<Json>,
    /// The source a cold compile or a reload sent.
    source: Option<String>,
}

/// One connection's outcome on one rung.
#[derive(Default)]
struct Tally {
    /// `(kind, latency from due time in µs, due, done)` per completed request.
    done: Vec<(usize, f64, Instant, Instant)>,
    late_us: Vec<f64>,
    sent: usize,
    failed: usize,
    outstanding: usize,
    /// The rung was cut short at [`MAX_BACKLOG`].
    cut: bool,
}

/// One generator thread's connection and counters, kept across rungs.
struct Generator {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: i64,
    cursor: usize,
    conn: usize,
    rng: Rng,
}

impl Generator {
    fn request(&mut self, setup: &Setup, req: Req, id: i64) -> (Json, Option<String>) {
        let s = |v: &str| Json::Str(v.to_owned());
        let mut doc = vec![("id".to_owned(), Json::Int(id))];
        let mut source = None;
        let mut op = |name: &str, rest: Vec<(&str, Json)>| {
            doc.push(("op".to_owned(), s(name)));
            doc.extend(rest.into_iter().map(|(k, v)| (k.to_owned(), v)));
        };
        let target = || s(&setup.serve_key);
        let known = |n: i64| Json::Obj(vec![("n".to_owned(), Json::Int(n))]);
        match req {
            Req::Ping => op("ping", vec![]),
            Req::Add(a, b) => op(
                "call",
                vec![
                    ("program", target()),
                    ("method", s("add")),
                    ("args", Json::Arr(vec![Json::Int(a), Json::Int(b)])),
                ],
            ),
            Req::Tri(n) => op(
                "call",
                vec![
                    ("program", target()),
                    ("method", s("tri")),
                    ("args", Json::Arr(vec![Json::Int(n)])),
                ],
            ),
            Req::Query(n) => op(
                "query",
                vec![
                    ("program", target()),
                    ("method", s("below")),
                    ("known", known(n)),
                ],
            ),
            Req::Stream(n) => op(
                "stream",
                vec![
                    ("program", target()),
                    ("method", s("below")),
                    ("known", known(n)),
                    ("batch", Json::Int(STREAM_BATCH)),
                ],
            ),
            Req::CompileCached => op(
                "compile",
                vec![("source", s(SERVE_SRC)), ("verify", Json::Bool(false))],
            ),
            Req::CompileCold => {
                let n = setup.cold_serial.fetch_add(1, Ordering::Relaxed) + 1;
                let src = format!("static int cold{n}(int a) {{ return a + {n}; }}\n");
                op(
                    "compile",
                    vec![("source", s(&src)), ("verify", Json::Bool(false))],
                );
                source = Some(src);
            }
            Req::Reload => {
                let src = reload_src(setup.reload_serial.fetch_add(1, Ordering::Relaxed) + 1);
                op(
                    "reload",
                    vec![("program", s(&setup.reload_key)), ("source", s(&src))],
                );
                source = Some(src);
            }
        }
        (Json::Obj(doc), source)
    }

    /// Checks a reply frame against the oracle. `Ok(None)` means the
    /// request needs more frames; `Ok(Some(ok))` ends it, `ok` false for a
    /// refused or failed request.
    fn check(setup: &Setup, p: &mut Pending, frame: &Json) -> Result<Option<bool>, String> {
        if frame.get("ok") != Some(&Json::Bool(true)) {
            return Ok(Some(false));
        }
        let get = |k: &str| frame.get(k);
        let same = match p.req {
            Req::Ping => get("pong") == Some(&Json::Bool(true)),
            Req::Add(a, b) => get("value") == Some(&Json::Int(a + b)),
            Req::Tri(n) => get("value") == Some(&setup.tri[n as usize]),
            Req::Query(n) => {
                get("solutions").and_then(Json::as_arr) == Some(&setup.solutions[n as usize][..])
            }
            Req::Stream(n) => {
                if let Some(batch) = get("solutions").and_then(Json::as_arr) {
                    p.streamed.extend(batch.iter().cloned());
                }
                if get("done") != Some(&Json::Bool(true)) {
                    return Ok(None);
                }
                p.streamed == setup.solutions[n as usize]
                    && get("count") == Some(&Json::Int(p.streamed.len() as i64))
                    && get("cancelled") == Some(&Json::Bool(false))
            }
            Req::CompileCached => {
                get("cached") == Some(&Json::Bool(true))
                    && get("program").and_then(Json::as_str) == Some(setup.serve_key.as_str())
            }
            Req::CompileCold => {
                let src = p
                    .source
                    .as_deref()
                    .expect("cold compiles keep their source");
                get("cached") == Some(&Json::Bool(false))
                    && get("program").and_then(Json::as_str)
                        == Some(ProgramCache::key_of(src, false).as_str())
            }
            Req::Reload => {
                let src = p.source.as_deref().expect("reloads keep their source");
                get("status") == Some(&Json::Str("recompiled".into()))
                    && get("program").and_then(Json::as_str)
                        == Some(ProgramCache::key_of(src, true).as_str())
                    && get("methods").and_then(Json::as_arr) == Some(&setup.reload_methods[..])
            }
        };
        if same {
            Ok(Some(true))
        } else {
            Err(format!(
                "reply to {:?} diverges from the oracle: {frame}",
                p.req
            ))
        }
    }

    /// Reads whatever arrives within `wait` and settles complete frames.
    fn receive(
        &mut self,
        setup: &Setup,
        wait: Duration,
        pending: &mut HashMap<i64, Pending>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        if !wait_readable(&self.stream, wait).map_err(|e| format!("poll: {e}"))? {
            return Ok(());
        }
        // Readable: this one read returns at once.
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len =
                u32::from_be_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() - at - 4 < len {
                break;
            }
            let text =
                std::str::from_utf8(&self.buf[at + 4..at + 4 + len]).map_err(|e| e.to_string())?;
            let frame = Json::parse(text).map_err(|e| format!("unparsable reply: {e:?}"))?;
            at += 4 + len;
            let id = frame
                .get("id")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("reply without an id: {frame}"))?;
            let p = pending
                .get_mut(&id)
                .ok_or_else(|| format!("reply to unknown id {id}"))?;
            if let Some(ok) = Self::check(setup, p, &frame)? {
                let p = pending.remove(&id).expect("present");
                if ok {
                    tally
                        .done
                        .push((p.req.kind(), (now - p.due).as_secs_f64() * 1e6, p.due, now));
                } else {
                    tally.failed += 1;
                }
            }
        }
        self.buf.drain(..at);
        Ok(())
    }

    /// Offers `rate` requests per second for `dur`, then waits for the
    /// replies (at most [`GRACE`]).
    fn rung(&mut self, setup: &Setup, rate: f64, dur: Duration) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let mut pending: HashMap<i64, Pending> = HashMap::new();
        let start = Instant::now();
        let mut end = start + dur;
        let mut due = start;
        let specs = &setup.specs[self.conn];
        loop {
            let now = Instant::now();
            if due < end && pending.len() >= MAX_BACKLOG {
                // Saturated: stop offering, so the backlog (and the memory
                // it holds) stays bounded however slow the host is.
                tally.cut = true;
                end = now;
            }
            if due <= now && due < end {
                let req = specs[self.cursor % specs.len()];
                self.cursor += 1;
                let id = self.next_id;
                self.next_id += 1;
                let (doc, source) = self.request(setup, req, id);
                let bytes = frame_bytes(&doc).map_err(|e| e.to_string())?;
                self.stream
                    .write_all(&bytes)
                    .map_err(|e| format!("write: {e}"))?;
                tally
                    .late_us
                    .push((Instant::now() - due).as_secs_f64() * 1e6);
                tally.sent += 1;
                pending.insert(
                    id,
                    Pending {
                        req,
                        due,
                        streamed: Vec::new(),
                        source,
                    },
                );
                due += Duration::from_secs_f64(-(1.0 - self.rng.unit()).ln() / rate);
                self.receive(setup, Duration::ZERO, &mut pending, &mut tally)?;
                continue;
            }
            if due >= end && pending.is_empty() {
                break;
            }
            if now >= end + GRACE {
                tally.outstanding = pending.len();
                // Forget the stragglers: their replies are drained before
                // the next rung starts.
                break;
            }
            let wait = if due < end {
                due - now
            } else {
                Duration::from_millis(5)
            };
            self.receive(setup, wait, &mut pending, &mut tally)?;
        }
        if tally.outstanding > 0 {
            self.drain_stragglers(setup, pending)?;
        }
        Ok(tally)
    }

    /// Waits for replies that missed the grace period, so they do not
    /// land in the next rung.
    fn drain_stragglers(
        &mut self,
        setup: &Setup,
        mut pending: HashMap<i64, Pending>,
    ) -> Result<(), String> {
        let stop = Instant::now() + Duration::from_secs(20);
        let mut scratch = Tally::default();
        while !pending.is_empty() {
            if Instant::now() > stop {
                return Err(format!("{} requests never answered", pending.len()));
            }
            self.receive(setup, Duration::from_millis(5), &mut pending, &mut scratch)?;
        }
        Ok(())
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits up to `wait` for `stream` to become readable. Socket read
/// timeouts round up to a scheduler tick (up to 10 ms), which would make
/// the generator late; `ppoll` sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as c_long,
        tv_nsec: wait.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `pollfd` and
    // `timespec` values for the duration of the call, `nfds` is 1 to match
    // the single `pollfd`, and a null signal mask leaves the mask as is.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// One rung's outcome over both connections.
struct Rung {
    rate: f64,
    lat_us: Vec<f64>,
    /// The due time of each request of `lat_us`.
    due: Vec<Instant>,
    per_kind: Vec<Vec<f64>>,
    late_us: Vec<f64>,
    sent: usize,
    failed: usize,
    outstanding: usize,
    cut: bool,
}

impl Rung {
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.outstanding == 0
            && !self.cut
            && !self.lat_us.is_empty()
            && quantile(&self.lat_us, 0.99) <= P99_LIMIT_US
            && quantile(&self.late_us, 0.99) <= P99_LIMIT_US
    }
}

fn run_rung(
    gens: &mut [Generator],
    setup: &Setup,
    rate: f64,
    dur: Duration,
    tracer: Option<&Tracer>,
) -> Result<Rung, String> {
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|g| scope.spawn(move || g.rung(setup, rate / CONNECTIONS as f64, dur)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut rung = Rung {
        rate,
        lat_us: Vec::new(),
        due: Vec::new(),
        per_kind: vec![Vec::new(); KINDS.len()],
        late_us: Vec::new(),
        sent: 0,
        failed: 0,
        outstanding: 0,
        cut: false,
    };
    for (conn, t) in tallies.into_iter().enumerate() {
        let t = t?;
        for (n, (kind, lat, due, done)) in t.done.iter().enumerate() {
            rung.lat_us.push(*lat);
            rung.due.push(*due);
            rung.per_kind[*kind].push(*lat);
            if let Some(tr) = tracer {
                tr.record(SPANS[*kind], ((conn as u64) << 40) | n as u64, *due, *done);
            }
        }
        rung.late_us.extend(t.late_us);
        rung.sent += t.sent;
        rung.failed += t.failed;
        rung.outstanding += t.outstanding;
        rung.cut |= t.cut;
    }
    Ok(rung)
}

const SPANS: [&str; 7] = [
    "serve.ping",
    "serve.call",
    "serve.query",
    "serve.stream",
    "serve.compile_cached",
    "serve.compile_cold",
    "serve.reload",
];

/// Opens the generator connections; `salt` separates their arrival
/// streams from those of other ladders in the run.
fn connect(setup: &Setup, rng: &Rng, salt: u64) -> Result<Vec<Generator>, String> {
    let addr = setup.server().local_addr();
    (0..CONNECTIONS)
        .map(|conn| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(Generator {
                stream,
                buf: Vec::new(),
                next_id: 0,
                cursor: 0,
                conn,
                rng: rng.fork(salt + conn as u64),
            })
        })
        .collect()
}

fn quantile_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}

/// The untraced serve phase, measured in steps of one rung each. Rungs
/// climb the ladder: every rung up to [`MIDDLE`], then on until two rungs
/// in a row miss the limit, so one transient stall does not end the climb
/// but a saturated server does; then the next climb starts at the bottom.
/// Each climb yields its highest rung that met the limit, and its middle
/// rung yields a median latency per slice; each metric is a median over
/// climbs or slices.
pub struct Phase<'a> {
    setup: &'a Setup,
    gens: Vec<Generator>,
    /// The next rung of the current climb, its misses in a row and the
    /// highest rate it met so far.
    next: usize,
    misses: usize,
    best: f64,
    max_rps: Vec<f64>,
    p50_us: Vec<f64>,
    middle_samples: usize,
    attempted: u64,
    failed: u64,
}

impl<'a> Phase<'a> {
    pub fn new(setup: &'a Setup, rng: &Rng) -> Result<Phase<'a>, String> {
        Ok(Phase {
            setup,
            gens: connect(setup, rng, 20)?,
            next: 0,
            misses: 0,
            best: 0.0,
            max_rps: Vec::new(),
            p50_us: Vec::new(),
            middle_samples: 0,
            attempted: 0,
            failed: 0,
        })
    }
}

impl crate::Steps for Phase<'_> {
    fn step(&mut self) -> Result<(), String> {
        let i = self.next;
        let rung = run_rung(&mut self.gens, self.setup, LADDER[i], RUNG, None)?;
        let met = rung.meets_limit();
        eprintln!(
            "perfbench: serve rung {:>6.0}/s: sent {} p50 {:.0}us p99 {:.0}us late p99 {:.0}us failed {} backlog {}{} {}",
            rung.rate,
            rung.sent,
            quantile_or_zero(&rung.lat_us, 0.5),
            quantile_or_zero(&rung.lat_us, 0.99),
            quantile_or_zero(&rung.late_us, 0.99),
            rung.failed,
            rung.outstanding,
            if rung.cut { " (cut short)" } else { "" },
            if met { "meets the limit" } else { "misses the limit" },
        );
        self.attempted += rung.sent as u64;
        // A backlog only misses the limit; its replies are still drained
        // and checked.
        self.failed += rung.failed as u64;
        if i == MIDDLE {
            let mut by_due: Vec<(Instant, f64)> = rung
                .due
                .iter()
                .copied()
                .zip(rung.lat_us.iter().copied())
                .collect();
            by_due.sort_by_key(|(due, _)| *due);
            for slice in by_due.chunks(SLICE) {
                let lat: Vec<f64> = slice.iter().map(|(_, lat)| *lat).collect();
                self.p50_us.push(median(&lat));
            }
            self.middle_samples += rung.lat_us.len();
        }
        if met {
            self.best = self.best.max(rung.rate);
        }
        self.misses = if met { 0 } else { self.misses + 1 };
        self.next += 1;
        if (self.misses == 2 && i > MIDDLE) || self.next == LADDER.len() {
            self.max_rps.push(self.best);
            (self.next, self.misses, self.best) = (0, 0, 0.0);
        }
        Ok(())
    }

    fn ready(&self) -> bool {
        !self.max_rps.is_empty()
    }
}

impl Phase<'_> {
    pub fn finish(self, report: &mut Report) {
        raw("serve.slice_p50", &self.p50_us);
        raw("serve.max_rps", &self.max_rps);
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.put(
            "serve_p50_us",
            median(&self.p50_us),
            "us",
            self.middle_samples,
        );
        report.put(
            "serve_max_rps",
            median(&self.max_rps),
            "1/s",
            self.max_rps.len(),
        );
    }
}

/// The traced serve phase: the middle rung untraced and then with a span
/// per request, plus the server's own counters.
pub fn run_traced(
    setup: &Setup,
    rng: &Rng,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let plain = reference_rung(setup, rng, None)?;
    let traced = reference_rung(setup, rng, Some(tracer))?;
    for (kind, lat) in KINDS.iter().zip(&traced.per_kind) {
        let v = if lat.is_empty() { 0.0 } else { median(lat) };
        report.put(format!("serve.{kind}_us"), v, "us", lat.len());
    }
    report.put(
        "serve.late_ms",
        quantile(&traced.late_us, 0.99) / 1e3,
        "ms",
        traced.late_us.len(),
    );
    // The tail does not repeat run to run within a tenth on a shared host,
    // so it is a per-layer metric, from the untraced rung.
    report.put(
        "tail.serve_p99_us",
        quantile(&plain.lat_us, 0.99),
        "us",
        plain.lat_us.len(),
    );
    let m = setup.server().metrics();
    report.ratio(
        "serve.cache_hit_ratio",
        m.cache.hits as f64,
        (m.cache.hits + m.cache.misses) as f64,
    );
    report.count(
        "serve.rejected",
        (m.rejected_capacity + m.rejected_quota) as f64,
    );
    report.count("serve.deadline_exceeded", m.deadline_exceeded as f64);
    report.count("serve.frames", m.frames as f64);
    report.put(
        "trace.serve_overhead_us",
        median(&traced.lat_us) - median(&plain.lat_us),
        "us",
        traced.lat_us.len(),
    );
    for r in [&plain, &traced] {
        report.attempted += r.sent as u64;
        report.failed += r.failed as u64;
    }
    Ok(())
}

/// One rung at the middle rate, on fresh connections.
fn reference_rung(setup: &Setup, rng: &Rng, tracer: Option<&Tracer>) -> Result<Rung, String> {
    let mut gens = connect(setup, rng, 30)?;
    run_rung(&mut gens, setup, LADDER[MIDDLE], TRACE_RUNG, tracer)
}
