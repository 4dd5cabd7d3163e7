//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own files, around the calls into
//! each layer (spans inside the program are a later change). They stay in
//! a pre-sized vector while the workload runs and are written once, at
//! exit, in Chrome trace-event format — the format the roadmap's
//! `cdma-trace` exporter will emit from inside the stack, so both open in
//! the same viewer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Track (Chrome `tid`) of spans stamped on the benchmark thread's clock.
pub const TRACK_BENCH: u8 = 1;
/// Track of spans rebuilt from the server's own `arrival_s`/`finished_s`
/// stamps.
pub const TRACK_SERVER: u8 = 2;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a module path such as `compress.windowed`) plus the
    /// operation.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one request / pass / call.
    pub req: u64,
    /// Clock the stamps came from ([`TRACK_BENCH`] or [`TRACK_SERVER`]).
    pub track: u8,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded span store. Past `cap` spans further ones are counted in
/// [`Recorder::dropped`] instead of growing the vector mid-measurement.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    dropped: u64,
}

/// Handle of a span opened by [`Tracer::begin`]; `NONE` when tracing is
/// off or the recorder is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(u32);

impl Open {
    const NONE: Open = Open(u32::MAX);
}

impl Recorder {
    /// A recorder holding at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(16),
            cap,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the epoch, now.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn push(&mut self, span: Span) -> Open {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open::NONE;
        }
        self.spans.push(span);
        Open(self.spans.len() as u32 - 1)
    }

    /// Opens a span now; it becomes the parent of spans begun before its
    /// [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        let start_ns = self.now_ns();
        let open = self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            track: TRACK_BENCH,
        });
        if open != Open::NONE {
            self.open.push(open.0);
        }
        open
    }

    /// Closes a span now.
    pub fn end(&mut self, open: Open) {
        if open == Open::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[open.0 as usize].end_ns = end_ns;
        // Spans close innermost first; tolerate a skipped `end`.
        while let Some(top) = self.open.pop() {
            if top == open.0 {
                break;
            }
        }
    }

    /// Records a finished interval whose stamps were taken elsewhere.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            req,
            track: TRACK_BENCH,
        };
        self.push(span);
    }

    /// Records an interval stamped on another clock, already converted
    /// to nanoseconds since this recorder's epoch.
    pub fn record_foreign(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            req,
            track: TRACK_SERVER,
        });
    }

    /// Every span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (children clipped to the parent,
    /// overlapping children counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children.entry(p).or_default().push((lo, hi));
                }
            }
        }
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for (p, mut ivals) in children {
            ivals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in ivals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            out[p as usize] = out[p as usize].saturating_sub(covered);
        }
        out
    }

    /// Total duration in seconds per `(name, req)` — the per-pass sums the
    /// per-layer rates are computed from.
    pub fn seconds_by_name_req(&self) -> BTreeMap<(&'static str, u64), f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry((s.name, s.req)).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Serialises the first `limit` spans as Chrome trace-event JSON
    /// (complete events, microsecond stamps).
    pub fn chrome_json(&self, workload: &str, limit: usize) -> String {
        let mut out = String::with_capacity(128 * self.spans.len().min(limit) + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
        out.push_str(&escape_json(workload));
        let _ = write!(
            out,
            "\",\"spans\":{},\"dropped\":{}}},\"traceEvents\":[",
            self.spans.len(),
            self.dropped
        );
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"req\":{},\"parent\":{}}}}}",
                escape_json(s.name),
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                s.req,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The switch the workloads hold: a recorder when `--trace 1`, nothing
/// otherwise. With tracing off [`Tracer::begin`]/[`Tracer::end`] read no
/// clock, so the untraced run measures the program and not the probe.
#[derive(Debug, Default)]
pub struct Tracer {
    rec: Option<Recorder>,
}

impl Tracer {
    /// Tracing off.
    pub fn off() -> Self {
        Tracer { rec: None }
    }

    /// Tracing on, keeping at most `cap` spans.
    pub fn on(cap: usize) -> Self {
        Tracer {
            rec: Some(Recorder::new(cap)),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The recorder, when tracing.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.rec.as_ref()
    }

    /// Mutable recorder, when tracing.
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.rec.as_mut()
    }

    /// Opens a span (no clock read when tracing is off).
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        match &mut self.rec {
            Some(r) => r.begin(name, req),
            None => Open::NONE,
        }
    }

    /// Closes a span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Some(r) = &mut self.rec {
            r.end(open);
        }
    }

    /// Runs `f`, always returning its wall time in seconds, and records
    /// the same two stamps as a span when tracing — for callers that need
    /// the duration either way.
    #[inline]
    pub fn timed<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if let Some(r) = &mut self.rec {
            r.record(name, req, start, end);
        }
        (value, (end - start).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            track: TRACK_BENCH,
        }
    }

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        let mut r = Recorder::new(64);
        r.spans = spans;
        r
    }

    #[test]
    fn self_time_subtracts_what_the_children_cover() {
        let r = recorder_with(vec![
            span("engine", 0, 1000, None),
            span("windowed", 100, 400, Some(0)),
            span("dma", 500, 700, Some(0)),
            span("kernel", 150, 250, Some(1)),
        ]);
        // engine: 1000 - (300 + 200); windowed: 300 - 100; leaves keep all.
        assert_eq!(r.self_times_ns(), vec![500, 200, 200, 100]);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let r = recorder_with(vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // overhangs the parent by 60
            span("d", 120, 130, Some(0)), // wholly inside a
        ]);
        // Covered: [110,170) = 60 plus [190,200) = 10.
        assert_eq!(r.self_times_ns()[0], 30);
    }

    #[test]
    fn begin_end_nest_and_name_their_parent() {
        let mut r = Recorder::new(8);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        let sibling = r.begin("sibling", 7);
        r.end(sibling);
        r.end(outer);
        let after = r.begin("after", 8);
        r.end(after);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = r.self_times_ns();
        assert!(selfs[0] <= r.spans()[0].dur_ns());
    }

    #[test]
    fn a_full_recorder_counts_drops_instead_of_growing() {
        let mut r = Recorder::new(2);
        for i in 0..5 {
            let o = r.begin("s", i);
            r.end(o);
        }
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 3);
        assert!(r.open.is_empty());
    }

    #[test]
    fn tracer_off_records_nothing_but_still_times() {
        let mut t = Tracer::off();
        let o = t.begin("x", 0);
        t.end(o);
        let (v, secs) = t.timed("y", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.recorder().is_none());
        let mut t = Tracer::on(4);
        t.timed("y", 3, || ());
        assert_eq!(t.recorder().unwrap().spans()[0].req, 3);
    }

    #[test]
    fn json_escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain.name"), "plain.name");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
        assert_eq!(escape_json("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape_json("µs ✓"), "µs ✓");
    }

    #[test]
    fn chrome_trace_is_well_formed_and_escaped() {
        let r = recorder_with(vec![
            span("say \"hi\"\\", 1_500, 4_000, None),
            span("child", 2_000, 3_000, Some(0)),
        ]);
        let json = r.chrome_json("w\"l", 10);
        assert!(json.contains("\"workload\":\"w\\\"l\""));
        assert!(json.contains("\"name\":\"say \\\"hi\\\"\\\\\""));
        assert!(json.contains("\"ts\":1.500,\"dur\":2.500"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
        // Balanced outside string literals, and no raw quote survives.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, false, _) => {}
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
        }
        assert_eq!((depth, in_str), (0, false));
        // The limit truncates events, not the header counts.
        let short = r.chrome_json("w", 1);
        assert!(short.contains("\"spans\":2") && !short.contains("child"));
    }
}
