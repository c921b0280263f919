//! The live implementation, compiled only with the `enabled` feature.

use std::cell::RefCell;
use std::fmt::Write as FmtWrite;
use std::fs::File;
use std::io::{self, BufWriter, Write as IoWrite};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{push_escaped, push_f64};
use crate::Field;

/// Maximum number of `(name, value)` pairs an event can carry; extra pairs
/// passed to [`record`] are dropped.
pub const MAX_FIELDS: usize = 12;
/// Per-thread event buffer capacity. Sized so one event per Nesterov
/// iteration (≤ 500) or per SA temperature level (≤ 540 per chain) fits
/// comfortably between flushes.
pub const RING_CAPACITY: usize = 8192;
const MAX_SPAN_DEPTH: usize = 64;

static ACTIVE: AtomicBool = AtomicBool::new(false);
// True only while a JSONL sink is installed; `ACTIVE` is the union of sink
// and observer presence. Ring buffering is pointless without a sink to
// drain into, so `record` gates the buffering half on this flag alone.
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
// Bumped on every `install`; rings stamped with an older session are stale
// leftovers from a previous trace and are cleared instead of flushed.
static SESSION: AtomicU64 = AtomicU64::new(0);

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// An out-of-band tap on the event stream: called synchronously from
/// [`record`] with the event kind, timestamp, and field slice. Must be
/// cheap, allocation-free, and non-blocking — it runs on the recording
/// thread (a solver loop boundary).
pub type Observer = fn(kind: &'static str, t_us: u64, fields: &[(&'static str, f64)]);

// Stored as a raw address because there is no atomic fn-pointer cell; zero
// means "no observer installed".
static OBSERVER: AtomicU64 = AtomicU64::new(0);

#[inline]
fn observer_fn() -> Option<Observer> {
    let raw = OBSERVER.load(Ordering::Acquire);
    if raw == 0 {
        None
    } else {
        // SAFETY: the only non-zero stores come from `install_observer`,
        // which writes the address of a valid `Observer` fn pointer.
        Some(unsafe { std::mem::transmute::<usize, Observer>(raw as usize) })
    }
}

/// True while a sink or observer is installed. Constant `false` when the
/// `enabled` feature is off, so guarded blocks vanish from the build.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Microseconds since the process-wide telemetry epoch (pinned on first
/// use). Shared by the sink and any installed observer so their
/// timestamps are directly comparable.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Installs `f` as the event observer (replacing any previous one) and
/// activates recording. When no sink is live the registered stats are
/// reset, so counters/histograms/spans are per-run just as with
/// [`install`]; when a sink is already tracing, its stats are left alone.
pub fn install_observer(f: Observer) {
    let _ = now_us(); // pin the epoch before the first event
    if !SINK_ACTIVE.load(Ordering::SeqCst) {
        reset_stats();
    }
    OBSERVER.store(f as usize as u64, Ordering::Release);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the observer; recording stays active only if a sink remains.
pub fn uninstall_observer() {
    OBSERVER.store(0, Ordering::Release);
    ACTIVE.store(SINK_ACTIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

#[derive(Clone, Copy)]
struct Event {
    kind: &'static str,
    t_us: u64,
    nfields: u8,
    fields: [(&'static str, f64); MAX_FIELDS],
}

const EMPTY_EVENT: Event = Event {
    kind: "",
    t_us: 0,
    nfields: 0,
    fields: [("", 0.0); MAX_FIELDS],
};

struct Ring {
    session: u64,
    thread: u32,
    len: usize,
    // Grown once to RING_CAPACITY on first use; never reallocated after.
    events: Vec<Event>,
}

thread_local! {
    static RING: RefCell<Ring> = const {
        RefCell::new(Ring { session: 0, thread: u32::MAX, len: 0, events: Vec::new() })
    };
}

/// Buffers one point sample in this thread's ring. Allocation-free after
/// the ring's one-time warm-up; when the ring is full the event is dropped
/// and counted (surfaced by [`flush_stats`] as `telemetry_dropped_events`).
#[inline]
pub fn record(kind: &'static str, fields: &[(&'static str, f64)]) {
    if !active() {
        return;
    }
    record_slow(kind, fields);
}

fn record_slow(kind: &'static str, fields: &[(&'static str, f64)]) {
    let t_us = now_us();
    if let Some(observe) = observer_fn() {
        observe(kind, t_us, fields);
    }
    if !SINK_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let session = SESSION.load(Ordering::Relaxed);
        if ring.session != session {
            ring.len = 0;
            ring.session = session;
        }
        if ring.events.is_empty() {
            ring.events.resize(RING_CAPACITY, EMPTY_EVENT);
            ring.thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        if ring.len == RING_CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = fields.len().min(MAX_FIELDS);
        let mut event = Event {
            kind,
            t_us,
            nfields: n as u8,
            ..EMPTY_EVENT
        };
        event.fields[..n].copy_from_slice(&fields[..n]);
        let len = ring.len;
        ring.events[len] = event;
        ring.len = len + 1;
    });
}

/// Events dropped because a ring filled up between flushes.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Intrusive static registries: `static` metrics link themselves into a
// lock-free list on first touch, so enumeration at flush time needs no
// allocation and no central registration step.
// ---------------------------------------------------------------------------

macro_rules! registry {
    ($head:ident, $ty:ty) => {
        static $head: AtomicPtr<$ty> = AtomicPtr::new(std::ptr::null_mut());

        impl $ty {
            #[cold]
            fn register(&'static self) {
                if self.registered.swap(true, Ordering::AcqRel) {
                    return;
                }
                let me = self as *const $ty as *mut $ty;
                let mut head = $head.load(Ordering::Acquire);
                loop {
                    self.next.store(head, Ordering::Relaxed);
                    match $head.compare_exchange(head, me, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => break,
                        Err(h) => head = h,
                    }
                }
            }
        }
    };
}

/// A named monotonic counter. Declare as `static N: Counter =
/// Counter::new("name");` and bump with `N.add(k)`; counts only accumulate
/// while a sink is [`active`], and reset on [`install`].
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    next: AtomicPtr<Counter>,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !active() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

registry!(COUNTERS, Counter);

/// A log-scale histogram over positive `f64` samples: bucket `i` in
/// `1..=63` covers `[2^(i-33), 2^(i-32))` (derived from the exponent bits,
/// no float math on the record path); bucket 0 collects everything
/// non-positive or non-finite.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    buckets: [AtomicU64; 64],
    next: AtomicPtr<Histogram>,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            buckets: [ZERO; 64],
            next: AtomicPtr::new(std::ptr::null_mut()),
            registered: AtomicBool::new(false),
        }
    }

    fn bucket(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (exp + 33).clamp(1, 63) as usize
    }

    #[inline]
    pub fn record(&'static self, value: f64) {
        if !active() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

registry!(HISTOGRAMS, Histogram);

/// Aggregate statistics for a scoped timer. `self_ns` excludes time spent
/// in nested spans entered on the same thread.
pub struct SpanStat {
    name: &'static str,
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    next: AtomicPtr<SpanStat>,
    registered: AtomicBool,
}

struct SpanStack {
    depth: usize,
    child_ns: [u64; MAX_SPAN_DEPTH],
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack { depth: 0, child_ns: [0; MAX_SPAN_DEPTH] })
    };
}

impl SpanStat {
    pub const fn new(name: &'static str) -> Self {
        SpanStat {
            name,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
            registered: AtomicBool::new(false),
        }
    }

    /// Starts a scoped timer; the returned guard records elapsed time on
    /// drop. A no-op (not even a clock read) when no sink is installed.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !active() {
            return SpanGuard {
                stat: None,
                start: None,
            };
        }
        self.enter_slow()
    }

    fn enter_slow(&'static self) -> SpanGuard {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.depth < MAX_SPAN_DEPTH {
                let depth = stack.depth;
                stack.child_ns[depth] = 0;
            }
            stack.depth += 1;
        });
        SpanGuard {
            stat: Some(self),
            start: Some(Instant::now()),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

registry!(SPANS, SpanStat);

/// RAII guard returned by [`SpanStat::enter`].
#[must_use = "a span guard measures the scope it is dropped in"]
pub struct SpanGuard {
    stat: Option<&'static SpanStat>,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(stat), Some(start)) = (self.stat, self.start) else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        let child_ns = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.depth = stack.depth.saturating_sub(1);
            let depth = stack.depth;
            let child = if depth < MAX_SPAN_DEPTH {
                stack.child_ns[depth]
            } else {
                0
            };
            if depth > 0 && depth - 1 < MAX_SPAN_DEPTH {
                stack.child_ns[depth - 1] += elapsed;
            }
            child
        });
        stat.calls.fetch_add(1, Ordering::Relaxed);
        stat.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        stat.self_ns
            .fetch_add(elapsed.saturating_sub(child_ns), Ordering::Relaxed);
        if !stat.registered.load(Ordering::Relaxed) {
            stat.register();
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

struct Sink {
    out: BufWriter<File>,
    // Reused across lines so steady-state serialisation is allocation-free
    // (f64/u64 `Display` write through the formatter without heap use).
    line: String,
}

fn reset_stats() {
    DROPPED.store(0, Ordering::Relaxed);
    let mut p = COUNTERS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let c = unsafe { &*p };
        c.value.store(0, Ordering::Relaxed);
        p = c.next.load(Ordering::Acquire);
    }
    let mut p = HISTOGRAMS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: as above.
        let h = unsafe { &*p };
        h.count.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        p = h.next.load(Ordering::Acquire);
    }
    let mut p = SPANS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: as above.
        let s = unsafe { &*p };
        s.calls.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
        s.self_ns.store(0, Ordering::Relaxed);
        p = s.next.load(Ordering::Acquire);
    }
}

/// Opens `path` (creating parent directories) as the JSONL sink, resets all
/// counters/histograms/spans so stats are per-trace, and activates
/// recording. Replaces any previously installed sink.
pub fn install(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(path)?;
    let _ = now_us(); // pin the epoch before the first event
    let mut guard = SINK.lock().unwrap();
    SESSION.fetch_add(1, Ordering::Relaxed);
    reset_stats();
    *guard = Some(Sink {
        out: BufWriter::with_capacity(1 << 16, file),
        line: String::with_capacity(1024),
    });
    drop(guard);
    SINK_ACTIVE.store(true, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    Ok(())
}

/// Deactivates sink recording and closes the sink, flushing buffered
/// bytes. Pending ring events are *not* drained — call [`flush`] (per
/// recording thread) and [`flush_stats`] first. An installed observer
/// keeps recording active.
pub fn uninstall() {
    SINK_ACTIVE.store(false, Ordering::SeqCst);
    ACTIVE.store(OBSERVER.load(Ordering::Acquire) != 0, Ordering::SeqCst);
    let mut guard = SINK.lock().unwrap();
    if let Some(mut sink) = guard.take() {
        let _ = sink.out.flush();
    }
}

/// Drains the calling thread's event ring into the sink. Call from each
/// recording thread outside its hot loop (e.g. once per SA chain, once per
/// global-placement run). Allocation-free after sink warm-up.
pub fn flush() {
    let mut guard = SINK.lock().unwrap();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        if ring.session != SESSION.load(Ordering::Relaxed) {
            ring.len = 0;
            return;
        }
        let thread = ring.thread;
        for event in &ring.events[..ring.len] {
            let line = &mut sink.line;
            line.clear();
            let _ = write!(
                line,
                "{{\"type\":\"event\",\"kind\":\"{}\",\"t_us\":{},\"thread\":{}",
                event.kind, event.t_us, thread
            );
            for (name, value) in &event.fields[..event.nfields as usize] {
                let _ = write!(line, ",\"{name}\":");
                push_f64(line, *value);
            }
            line.push_str("}\n");
            let _ = sink.out.write_all(line.as_bytes());
        }
        ring.len = 0;
    });
    let _ = sink.out.flush();
}

/// Writes one line per registered counter, span, and histogram (plus a
/// `telemetry_dropped_events` counter when events were lost). Values are a
/// snapshot since [`install`]; calling twice writes two snapshots.
pub fn flush_stats() {
    let mut guard = SINK.lock().unwrap();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    let mut p = COUNTERS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let c = unsafe { &*p };
        let line = &mut sink.line;
        line.clear();
        let _ = writeln!(
            line,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            c.name,
            c.value()
        );
        let _ = sink.out.write_all(line.as_bytes());
        p = c.next.load(Ordering::Acquire);
    }
    let dropped = DROPPED.load(Ordering::Relaxed);
    if dropped > 0 {
        let line = &mut sink.line;
        line.clear();
        let _ = writeln!(
            line,
            "{{\"type\":\"counter\",\"name\":\"telemetry_dropped_events\",\"value\":{dropped}}}",
        );
        let _ = sink.out.write_all(line.as_bytes());
    }
    let mut p = SPANS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: as above.
        let s = unsafe { &*p };
        let line = &mut sink.line;
        line.clear();
        let _ = writeln!(
            line,
            "{{\"type\":\"span\",\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.calls(),
            s.total_ns(),
            s.self_ns.load(Ordering::Relaxed)
        );
        let _ = sink.out.write_all(line.as_bytes());
        p = s.next.load(Ordering::Acquire);
    }
    let mut p = HISTOGRAMS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: as above.
        let h = unsafe { &*p };
        let line = &mut sink.line;
        line.clear();
        let _ = write!(
            line,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{}",
            h.name,
            h.count()
        );
        for (i, bucket) in h.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                let _ = write!(line, ",\"b{i}\":{n}");
            }
        }
        line.push_str("}\n");
        let _ = sink.out.write_all(line.as_bytes());
        p = h.next.load(Ordering::Acquire);
    }
    let _ = sink.out.flush();
}

/// Writes a `{"type":"<tag>",...}` metadata line straight to the sink.
/// Off the hot path; safe to call from any thread.
pub fn emit_meta(tag: &str, fields: &[(&str, Field<'_>)]) {
    let mut guard = SINK.lock().unwrap();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    let line = &mut sink.line;
    line.clear();
    line.push_str("{\"type\":\"");
    push_escaped(line, tag);
    line.push('"');
    for (name, value) in fields {
        line.push_str(",\"");
        push_escaped(line, name);
        line.push_str("\":");
        match value {
            Field::F(v) => push_f64(line, *v),
            Field::U(v) => {
                let _ = write!(line, "{v}");
            }
            Field::I(v) => {
                let _ = write!(line, "{v}");
            }
            Field::B(v) => line.push_str(if *v { "true" } else { "false" }),
            Field::S(v) => {
                line.push('"');
                push_escaped(line, v);
                line.push('"');
            }
        }
    }
    line.push_str("}\n");
    let _ = sink.out.write_all(line.as_bytes());
    let _ = sink.out.flush();
}

/// Writes the run manifest line (`{"type":"manifest",...}`).
pub fn manifest(fields: &[(&str, Field<'_>)]) {
    emit_meta("manifest", fields);
}

/// Looks up a registered counter's current value by name (test/debug aid).
pub fn counter_value(name: &str) -> Option<u64> {
    let mut p = COUNTERS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let c = unsafe { &*p };
        if c.name == name {
            return Some(c.value());
        }
        p = c.next.load(Ordering::Acquire);
    }
    None
}

/// Calls `f` once per registered counter with `(name, value)`. Walks the
/// intrusive registry without allocating; order is registration order
/// (newest first).
pub fn visit_counters(f: &mut dyn FnMut(&'static str, u64)) {
    let mut p = COUNTERS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let c = unsafe { &*p };
        f(c.name, c.value());
        p = c.next.load(Ordering::Acquire);
    }
}

/// Calls `f` once per registered span with `(name, calls, total_ns,
/// self_ns)`.
pub fn visit_spans(f: &mut dyn FnMut(&'static str, u64, u64, u64)) {
    let mut p = SPANS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let s = unsafe { &*p };
        f(
            s.name,
            s.calls(),
            s.total_ns(),
            s.self_ns.load(Ordering::Relaxed),
        );
        p = s.next.load(Ordering::Acquire);
    }
}

/// Calls `f` once per registered histogram with `(name, count, buckets)`;
/// the bucket array is a relaxed snapshot copied out of the atomics.
pub fn visit_histograms(f: &mut dyn FnMut(&'static str, u64, &[u64; 64])) {
    let mut p = HISTOGRAMS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let h = unsafe { &*p };
        let mut buckets = [0u64; 64];
        for (dst, src) in buckets.iter_mut().zip(h.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        f(h.name, h.count(), &buckets);
        p = h.next.load(Ordering::Acquire);
    }
}

/// Looks up a registered span's call count by name (test/debug aid).
pub fn span_calls(name: &str) -> Option<u64> {
    let mut p = SPANS.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registry nodes are `&'static`; pointers never dangle.
        let s = unsafe { &*p };
        if s.name == name {
            return Some(s.calls());
        }
        p = s.next.load(Ordering::Acquire);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "placer_telemetry_{}_{name}.jsonl",
            std::process::id()
        ))
    }

    // Telemetry state is process-global, so everything that installs a sink
    // lives in one test (cargo runs tests in the same binary concurrently).
    #[test]
    fn end_to_end_sink_events_stats_manifest() {
        static HIST: Histogram = Histogram::new("test_hist");
        static COUNT: Counter = Counter::new("test_count");
        static SPAN_OUTER: SpanStat = SpanStat::new("test_outer");
        static SPAN_INNER: SpanStat = SpanStat::new("test_inner");

        assert!(!active());
        // Inactive recording is a no-op.
        record("ignored", &[("x", 1.0)]);
        COUNT.add(5);
        assert_eq!(COUNT.value(), 0);

        let path = temp_path("e2e");
        install(&path).unwrap();
        assert!(active());

        record("iter", &[("i", 0.0), ("cost", 12.5)]);
        record("iter", &[("i", 1.0), ("cost", f64::NAN)]);
        COUNT.add(3);
        COUNT.add(4);
        HIST.record(3.0); // exponent 1 -> bucket 34
        HIST.record(-1.0); // bucket 0
        {
            let _outer = SPAN_OUTER.enter();
            {
                let _inner = SPAN_INNER.enter();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        manifest(&[
            ("circuit", Field::S(r#"quote" slash\"#)),
            ("seed", Field::U(7)),
            ("ok", Field::B(true)),
        ]);
        assert_eq!(counter_value("test_count"), Some(7));
        assert_eq!(span_calls("test_outer"), Some(1));
        flush();
        flush_stats();
        uninstall();
        assert!(!active());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"kind\":\"iter\""));
        assert!(text.contains("\"cost\":12.5"));
        assert!(text.contains("\"cost\":null"), "NaN must serialise as null");
        assert!(text.contains("\"name\":\"test_count\",\"value\":7"));
        assert!(text.contains("\"name\":\"test_outer\""));
        assert!(text.contains("\"name\":\"test_hist\""));
        assert!(text.contains("\"b34\":1"));
        assert!(text.contains("\"b0\":1"));
        assert!(text.contains(r#""circuit":"quote\" slash\\""#));
        assert!(text.contains("\"seed\":7"));
        // Nesting: outer's self time excludes inner's total.
        let outer_total: u64 = SPAN_OUTER.total_ns();
        let inner_total: u64 = SPAN_INNER.total_ns();
        assert!(inner_total > 0 && outer_total >= inner_total);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"type\":\""));
        }

        // A second install resets stats for the new trace.
        let path2 = temp_path("e2e_second");
        install(&path2).unwrap();
        assert_eq!(COUNT.value(), 0);
        COUNT.add(1);
        flush();
        flush_stats();
        uninstall();
        let text2 = std::fs::read_to_string(&path2).unwrap();
        std::fs::remove_file(&path2).ok();
        assert!(text2.contains("\"name\":\"test_count\",\"value\":1"));
        // Stale events from the first session never leak into the second.
        assert!(!text2.contains("\"kind\":\"iter\""));

        // Observer-only recording: the tap sees events synchronously,
        // stats accumulate (reset at observer install), and no sink is
        // needed.
        static OBSERVED_ITERS: AtomicU64 = AtomicU64::new(0);
        fn tap(kind: &'static str, _t_us: u64, fields: &[(&'static str, f64)]) {
            if kind == "iter" && !fields.is_empty() {
                OBSERVED_ITERS.fetch_add(1, Ordering::Relaxed);
            }
        }
        install_observer(tap);
        assert!(active());
        record("iter", &[("i", 2.0)]);
        COUNT.add(2);
        assert_eq!(COUNT.value(), 2, "observer install resets stats");
        assert_eq!(OBSERVED_ITERS.load(Ordering::Relaxed), 1);
        let mut seen = None;
        visit_counters(&mut |name, value| {
            if name == "test_count" {
                seen = Some(value);
            }
        });
        assert_eq!(seen, Some(2));
        let mut hist_seen = false;
        visit_histograms(&mut |name, _count, buckets| {
            if name == "test_hist" {
                hist_seen = true;
                assert_eq!(buckets.len(), 64);
            }
        });
        assert!(hist_seen);
        uninstall_observer();
        assert!(!active());
        record("iter", &[("i", 3.0)]);
        assert_eq!(OBSERVED_ITERS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn histogram_buckets_follow_exponent() {
        assert_eq!(Histogram::bucket(0.0), 0);
        assert_eq!(Histogram::bucket(-3.0), 0);
        assert_eq!(Histogram::bucket(f64::INFINITY), 0);
        assert_eq!(Histogram::bucket(f64::NAN), 0);
        assert_eq!(Histogram::bucket(1.0), 33); // [1, 2)
        assert_eq!(Histogram::bucket(1.999), 33);
        assert_eq!(Histogram::bucket(2.0), 34);
        assert_eq!(Histogram::bucket(0.5), 32);
        assert_eq!(Histogram::bucket(1e300), 63); // clamped
        assert_eq!(Histogram::bucket(1e-300), 1); // clamped
    }
}
