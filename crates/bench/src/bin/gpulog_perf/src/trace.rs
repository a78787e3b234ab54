//! Spans around the calls into each layer, and the samples they yield.
//!
//! Every timed call in the benchmark goes through [`Recorder::begin`] /
//! [`Recorder::end`]: the pair always yields one duration sample under the
//! span's name (that is where every latency metric comes from), and — only
//! in a traced run — also keeps the span `{name, start, end, parent,
//! trial}` in memory. Spans nest through a stack, so a span's *self time*
//! is its duration minus the part its children cover. Nothing is recorded
//! inside the engine crates: this is measurement from outside, around the
//! public calls.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trial: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: hand it back to [`Recorder::end`].
#[must_use = "an open span must be ended"]
pub struct Open {
    name: &'static str,
    started: Instant,
    index: Option<usize>,
}

/// Collects duration samples by span name and, when tracing, the spans.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    trial: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracing,
            epoch: Instant::now(),
            trial: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Switches span recording on or off; only between spans (the stack
    /// must be empty), samples are kept either way.
    pub fn set_tracing(&mut self, tracing: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.tracing = tracing;
    }

    /// Tags the spans that follow with a trial (or serve round) number.
    pub fn set_trial(&mut self, trial: usize) {
        self.trial = trial;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.tracing.then(|| {
            let at = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                trial: self.trial,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            name,
            started,
            index,
        }
    }

    /// Closes a span, records its duration as a sample, and returns it in
    /// seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
        }
        let seconds = elapsed.as_secs_f64();
        self.push(open.name, seconds);
        seconds
    }

    /// Records a sample that is not a span (a counter read from `RunStats`,
    /// a per-trial sum).
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forgets the samples of the warm-up trial; its spans stay in the
    /// trace, tagged with trial 0.
    pub fn discard_samples(&mut self) {
        self.samples.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the time covered by its direct
    /// children (children of one parent never overlap here — one thread,
    /// one stack).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Sum of the durations of `parent`'s direct children, in seconds.
    pub fn children_seconds(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Index of the last span with this name.
    pub fn last_span(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// The spans as a JSON array, with self times, for `<out>.trace.json`.
    pub fn spans_json(&self, workload: &str) -> Json {
        let own = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(span, self_ns)| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(span.name.to_string()));
                    o.set("start_ns", Json::Num(span.start_ns as f64));
                    o.set("end_ns", Json::Num(span.end_ns as f64));
                    o.set("self_ns", Json::Num(self_ns as f64));
                    o.set(
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    );
                    o.set("workload", Json::Str(workload.to_string()));
                    o.set("trial", Json::Num(span.trial as f64));
                    o
                })
                .collect(),
        )
    }
}

/// Quartiles and median of a sample, by linear interpolation between order
/// statistics. `None` for an empty sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    Some(Summary {
        median: percentile_sorted(&sorted, 50.0),
        p25: percentile_sorted(&sorted, 25.0),
        p75: percentile_sorted(&sorted, 75.0),
        n: sorted.len(),
    })
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(samples), pct)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; the median when the sample supports none of them.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|pct| (n as f64) * (100.0 - pct) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(8), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(60_000), 99.9);
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.median, s.p25, s.p75, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(summarize(&[]).is_none());
    }

    /// Builds a span tree by hand so the arithmetic is exact.
    fn hand_built() -> Recorder {
        let mut r = Recorder::new(true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial: 1,
        };
        r.spans = vec![
            span("trial", 0, 1_000, None),
            span("engine.build", 0, 100, Some(0)),
            span("engine.run", 100, 900, Some(0)),
            span("verify", 900, 980, Some(0)),
            span("probe", 200, 300, Some(2)),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_parent() {
        let r = hand_built();
        let own = r.self_times_ns();
        assert_eq!(own, vec![20, 100, 700, 80, 100]);
        // Children plus the parent's own remainder give the parent back.
        let children = r.children_seconds(0);
        assert!((children - 980e-9).abs() < 1e-15);
        assert_eq!(own[0] + 980, r.spans()[0].duration_ns());
        // Self times of a whole tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 1_000);
        assert_eq!(r.last_span("engine.run"), Some(2));
    }

    #[test]
    fn live_spans_nest_and_every_end_yields_a_sample() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer");
        for _ in 0..2 {
            let inner = r.begin("inner");
            r.end(inner);
        }
        let seconds = r.end(outer);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        assert_eq!(r.samples("inner").len(), 2);
        assert!(r.children_seconds(0) <= seconds);
        let json = r.spans_json("w");
        assert_eq!(json.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn an_untraced_recorder_keeps_samples_but_no_spans() {
        let mut r = Recorder::new(false);
        let op = r.begin("op");
        r.end(op);
        r.push("count", 3.0);
        assert!(r.spans().is_empty());
        assert_eq!(r.samples("op").len(), 1);
        assert_eq!(r.samples("count"), &[3.0]);
        r.discard_samples();
        assert!(r.samples("op").is_empty());
    }
}
