//! In-memory spans and allocation counting for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the library is
//! instrumented. Each span has a name, start, end, parent and a group id
//! shared by every span of one corpus program, one edit, one operation or
//! one request. Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use jmatch_runtime::serve::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: Option<u32>,
    group: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread and its group.
    static OPEN: Cell<Option<(u32, u64)>> = const { Cell::new(None) };
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new top-level span of `group`.
    pub fn root<R>(&self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, None, group, f)
    }

    /// Runs `f` inside a child of the innermost open span on this thread
    /// (a root of group 0 when none is open).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, group) = match OPEN.with(Cell::get) {
            Some((id, group)) => (Some(id), group),
            None => (None, 0),
        };
        self.enter(name, parent, group, f)
    }

    /// Records an already-measured interval (for work timed on another
    /// thread, such as a reply that arrives on the generator's socket).
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent: None,
            group,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    fn enter<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let saved = OPEN.with(|o| o.replace(Some((id, group))));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.set(saved));
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Per span name, the self time in milliseconds: each span's duration
    /// minus the part its child spans cover. Children of one span run one
    /// after another on the parent's thread, so their intervals are
    /// disjoint and their durations add up.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let span = Json::Obj(vec![
                ("id".into(), Json::Int(s.id.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p.into())),
                ),
                ("group".into(), Json::Int(s.group as i64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{span}")?;
        }
        out.flush()
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs `a` and `b`, `a` first on even `k` and `b` first on odd, so the
/// one that runs second does not always find caches warmed by the other.
pub fn in_turn<A, B>(k: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if k.is_multiple_of(2) {
        let x = a();
        (x, b())
    } else {
        let y = b();
        (a(), y)
    }
}

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and requested bytes while
/// [`count_allocs`] is running. Outside it, each allocation pays one
/// relaxed load.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which is `System`,
        // for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`, and the
        // caller upholds `realloc`'s size requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Runs `f` with allocation counting on and returns its result with the
/// number of allocations and bytes requested process-wide meanwhile.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}
