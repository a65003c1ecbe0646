//! Spans around the calls the benchmark makes into each layer.
//!
//! The spans are recorded here, from outside the crates, around public
//! functions; spans *inside* the program are a later change. A span holds
//! a name (`<layer>.<call>`), start and end in nanoseconds since the
//! tracer's epoch, the span that caused it, and a request id shared by
//! all spans of one request. Each thread records into its own [`Lane`]
//! (no lock on the hot path); lanes are merged when dropped and written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Shared by every span of one request (or build, or event); 0 when
    /// the span belongs to no single request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run-wide collector.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lanes: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; when `enabled` is false every lane only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            lanes: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A recording lane for one thread; its root spans get `parent`.
    pub fn lane(&self, parent: u64) -> Lane<'_> {
        // Span ids are unique across lanes: lane number in the high bits.
        let lane = self.lanes.fetch_add(1, Ordering::Relaxed) + 1;
        Lane {
            tracer: self,
            recording: self.enabled,
            next_id: lane << 40,
            stack: vec![parent],
            spans: Vec::new(),
        }
    }

    /// Every span merged so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .done
            .lock()
            .expect("no lane panics while merging")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                w,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// One thread's span buffer. Timing always happens — the workloads use
/// the returned seconds as their measurement — and a span is kept only
/// while the lane is recording.
pub struct Lane<'t> {
    tracer: &'t Tracer,
    recording: bool,
    next_id: u64,
    /// Open spans, innermost last; the first entry is the lane's parent.
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl<'t> Lane<'t> {
    /// A lane for a thread this one starts; its spans become children of
    /// the innermost span open here.
    pub fn child(&self) -> Lane<'t> {
        self.tracer.lane(self.current())
    }
}

impl Lane<'_> {
    /// Turns recording on or off (a no-op on a disabled tracer); the
    /// traced run records alternate segments so that one run holds both
    /// sides of the overhead comparison.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on && self.tracer.enabled;
    }

    /// The innermost open span, to hand to a child thread's lane.
    pub fn current(&self) -> u64 {
        *self.stack.last().expect("stack holds the lane parent")
    }

    /// Records a call that another thread timed (the ingest worker
    /// calling the benchmark's sink) as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.recording {
            return;
        }
        self.next_id += 1;
        let since = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.next_id,
            parent: self.current(),
            request,
            name,
            start_ns: since(start),
            end_ns: since(end),
        });
    }

    /// Times `f` and records it as a span named `name`; spans opened
    /// inside `f` on this lane become its children. Returns `f`'s value
    /// and the seconds it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        if !self.recording {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.current();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let since = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: since(start),
            end_ns: since(end),
        });
        (out, end.duration_since(start).as_secs_f64())
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // A poisoned lock means another lane's thread panicked; the run
        // is failing anyway, so the spans are simply not kept.
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover, summed by name. Returns `(name, calls, self_seconds)`
/// sorted by name — what `run --trace` prints under the metrics.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (calls, ns))| (name, calls, ns as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_link_to_their_parent_and_share_the_request() {
        let tracer = Tracer::new(true);
        {
            let mut lane = tracer.lane(0);
            lane.time("outer", 7, |lane| {
                lane.time("inner", 7, |_| ());
                lane.time("inner", 7, |_| ());
            });
            let parent = lane.time("phase", 0, |lane| lane.current()).0;
            let mut child = tracer.lane(parent);
            child.time("leaf", 9, |_| ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        let by = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let outer = by("outer")[0];
        assert_eq!(outer.parent, 0);
        assert!(by("inner")
            .iter()
            .all(|s| s.parent == outer.id && s.request == 7));
        assert_eq!(by("leaf")[0].parent, by("phase")[0].id);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5, "ids are unique across lanes");
        let selfs = self_times(&spans);
        let outer_self = selfs.iter().find(|s| s.0 == "outer").unwrap();
        assert!(outer_self.2 <= (outer.end_ns - outer.start_ns) as f64 / 1e9);
    }

    #[test]
    fn disabled_or_paused_lanes_time_without_recording() {
        let off = Tracer::new(false);
        let mut lane = off.lane(0);
        lane.set_recording(true);
        let (v, secs) = lane.time("x", 1, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        drop(lane);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let mut lane = on.lane(0);
        lane.set_recording(false);
        lane.time("skipped", 1, |_| ());
        lane.set_recording(true);
        lane.time("kept", 2, |_| ());
        drop(lane);
        assert_eq!(
            on.spans().iter().map(|s| s.name).collect::<Vec<_>>(),
            ["kept"]
        );
    }
}
