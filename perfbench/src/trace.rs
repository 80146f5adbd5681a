//! The traced run's span recorder.
//!
//! Spans are timed from outside the program, around calls into its
//! public functions. Every span has a name, a start and end (ns since the
//! recorder's epoch), the span that caused it, and the job it belongs to:
//! spans of one job share that id. Spans stay in memory until the run
//! ends and are then written out as JSON lines.
//!
//! Calls too small and too many to record one by one (the sampler and
//! the feature map run 64 times per suggest) are *folded*: one span per
//! parent carries the call count and the summed call time in `busy_ns`.
//! A folded span's self time is its busy time.
//! Folded calls run one after another on the parent's thread, so they
//! never overlap each other or the parent's other children.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The root's id: spans with this parent have none.
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// The id of the span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// The job (hardware sample, software search or daemon job) the
    /// span belongs to.
    pub job: u64,
    /// Layer boundary name, e.g. `eval.backend`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Calls the span stands for: 1, or the count of a folded span.
    pub calls: u64,
    /// Whether the span folds calls whose individual intervals were
    /// not kept.
    pub folded: bool,
    /// Time the calls took: `end_ns - start_ns` for one call, the sum
    /// of the call durations for a folded span.
    pub busy_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's epoch to `t` (0 before it).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one call that ran from `start_ns` until now.
    pub fn finish(&self, id: u64, parent: u64, job: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
            calls: 1,
            folded: false,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Accumulates many small calls of one kind under one parent, to be
/// recorded as a single folded span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fold {
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Fold {
    /// Adds one call that ran from `start_ns` to `end_ns`.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        self.add_busy(start_ns, end_ns, end_ns.saturating_sub(start_ns));
    }

    /// Adds one call known only by its duration, observed within
    /// `[start_ns, end_ns]`.
    pub fn add_busy(&mut self, start_ns: u64, end_ns: u64, busy_ns: u64) {
        if self.calls == 0 {
            self.first_ns = start_ns;
        }
        self.calls += 1;
        self.busy_ns += busy_ns;
        self.last_ns = end_ns;
    }

    /// Records the folded calls (if any) under `parent` and resets.
    pub fn flush(&mut self, rec: &Recorder, parent: u64, job: u64, name: &'static str) {
        if self.calls > 0 {
            rec.push(Span {
                id: rec.new_id(),
                parent,
                job,
                name,
                start_ns: self.first_ns,
                end_ns: self.last_ns,
                calls: self.calls,
                folded: true,
                busy_ns: self.busy_ns,
            });
        }
        *self = Fold::default();
    }
}

/// Self time of every span, by id: its busy time minus the part of its
/// interval its children cover. Children that overlap each other (calls
/// from parallel workers) count once; a folded child covers its
/// `busy_ns`.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut folded = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(kids.len());
            for k in kids {
                if k.folded {
                    folded += k.busy_ns;
                } else {
                    let (a, b) = (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns));
                    if a < b {
                        intervals.push((a, b));
                    }
                }
            }
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut open: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                match open {
                    Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                    _ => {
                        if let Some((oa, ob)) = open {
                            covered += ob - oa;
                        }
                        open = Some((a, b));
                    }
                }
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            (s.id, s.busy_ns.saturating_sub(covered + folded))
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Calls (a folded span counts its calls).
    pub calls: u64,
    /// Summed busy time, ns.
    pub busy_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Calls, busy time and self time summed per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += s.calls;
        t.busy_ns += s.busy_ns;
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Writes the spans as JSON lines, self time included.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"calls\":{},\"folded\":{},\"busy_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.job,
            s.name,
            s.start_ns,
            s.end_ns,
            s.calls,
            s.folded,
            s.busy_ns,
            selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: "x",
            start_ns,
            end_ns,
            calls: 1,
            folded: false,
            busy_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 70);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel workers under one parent: [10,50) and [30,70)
        // cover 60 ns together, not 80.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
        ];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, ROOT, 20, 60), span(2, 1, 0, 30), span(3, 1, 50, 90)];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn only_direct_children_are_subtracted() {
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 40)];
        let s = self_times(&spans);
        assert_eq!(s[&1], 50);
        assert_eq!(s[&2], 10);
    }

    #[test]
    fn folded_children_subtract_their_busy_time() {
        let rec = Recorder::default();
        let mut fold = Fold::default();
        for i in 0..4 {
            fold.add(10 + i * 20, 15 + i * 20);
        }
        fold.flush(&rec, 1, 1, "sample");
        let mut spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].calls, spans[0].busy_ns), (4, 20));
        spans.push(span(1, ROOT, 0, 100));
        assert_eq!(self_times(&spans)[&1], 80);
        let t = totals(&spans);
        assert_eq!(t["sample"].calls, 4);
        assert_eq!(t["x"].self_ns, 80);
    }

    #[test]
    fn empty_fold_records_nothing() {
        let rec = Recorder::default();
        Fold::default().flush(&rec, 1, 1, "sample");
        assert!(rec.spans().is_empty());
    }
}
