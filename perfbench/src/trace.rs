//! In-memory spans for the traced run: one per call into a layer, kept
//! until the run ends and then written out whole, so recording costs a
//! `Vec` push and no I/O while the clock runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed call. Times are seconds since the trace's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Trial index within its harness call, for trial spans.
    pub trial: Option<u32>,
    /// Small per-process thread number (see [`thread_index`]).
    pub thread: u32,
}

/// The spans of one run. While `enabled` is false nothing is recorded,
/// so untraced passes pay only a branch per call.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Trace {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished call and returns its span id (meaningless
    /// while disabled).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        trial: Option<u32>,
        thread: u32,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name: name.into(),
            start: self.secs(start),
            end: self.secs(end),
            parent,
            trial,
            thread,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span on the calling thread, to be ended with [`Self::close`]
    /// once the spans it encloses have been recorded.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, parent, (now, now), None, thread_index())
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.secs(Instant::now());
        }
    }
}

/// A span's self time: its duration minus the part of it its child
/// spans cover. Children that overlap (trials on parallel workers) are
/// merged first, so covered time is counted once, and each child is
/// clipped to the parent's interval.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let (lo, hi) = (spans[id].start, spans[id].end);
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(lo), s.end.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (hi - lo) - covered
}

/// Total self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&str, f64> {
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        *out.entry(s.name.as_str()).or_insert(0.0) += self_time(spans, id);
    }
    out
}

/// A small number naming the calling thread, stable for its lifetime:
/// threads are numbered in the order they first ask.
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"trial\": {}, \"thread\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.trial.map(|t| t.to_string())),
                s.thread
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start,
            end,
            parent,
            trial: None,
            thread: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span(1.0, 4.0, None)];
        assert!(close(self_time(&spans, 0), 3.0));
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,10] > mid [1,7] > leaf [2,5]
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 7.0, Some(0)),
            span(2.0, 5.0, Some(1)),
        ];
        assert!(close(self_time(&spans, 0), 4.0));
        assert!(close(self_time(&spans, 1), 3.0));
        assert!(close(self_time(&spans, 2), 3.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers: [1,6] and [2,8] overlap on [2,6]; a third child
        // [9,12] sticks out past the parent's end at 10.
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 6.0, Some(0)),
            span(2.0, 8.0, Some(0)),
            span(9.0, 12.0, Some(0)),
        ];
        // covered = [1,8] + [9,10] = 8
        assert!(close(self_time(&spans, 0), 2.0));
    }

    #[test]
    fn contained_and_disjoint_children() {
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 9.0, Some(0)),
            span(2.0, 3.0, Some(0)),   // inside the first child
            span(-5.0, -1.0, Some(0)), // entirely before the parent
        ];
        assert!(close(self_time(&spans, 0), 2.0));
    }

    #[test]
    fn self_times_sum_per_name() {
        let mut spans = vec![span(0.0, 4.0, None), span(1.0, 2.0, Some(0))];
        spans[1].name = "child".into();
        let t = self_times(&spans);
        assert!(close(t["s"], 3.0));
        assert!(close(t["child"], 1.0));
    }

    #[test]
    fn thread_index_is_stable_per_thread() {
        let main = thread_index();
        assert_eq!(main, thread_index());
        let other = std::thread::spawn(thread_index).join().expect("joined");
        assert_ne!(main, other);
    }
}
