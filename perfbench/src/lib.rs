//! # mdagent-perfbench — metric arithmetic of the MDAgent benchmark
//!
//! The benchmark program (`benches/perf/`) times the middleware and feeds
//! the raw samples here. This library holds the arithmetic that turns
//! samples into reported metrics, kept free of clocks so it can be unit
//! tested exactly:
//!
//! * [`tail_quantile`] picks the tail percentile under the
//!   "at least ten samples beyond it" rule, and [`chunk_stats`] reports
//!   step times as medians over chunks of the timed phase;
//! * [`SpanLog`] records benchmark spans and computes [`SpanLog::self_times`],
//!   each span's duration net of its children;
//! * [`PerOp`] is a ratio that carries its base;
//! * [`FailCount`] counts attempted and failed operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Percentiles the benchmark may report as its tail, highest first. The
/// ladder stops at p90: on a shared 2-vCPU host, higher percentiles of
/// millisecond steps measure scheduler noise rather than the program.
pub const TAIL_LADDER: [f64; 3] = [0.90, 0.75, 0.50];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Number of samples strictly beyond the `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, q)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank quantile of an ascending slice; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(nearest_rank(sorted.len(), q) - 1).copied()
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Step-time statistics of a timed phase, taken per chunk of consecutive
/// steps. The benchmark reports their mean across chunks: host noise on a
/// shared VM moves whole seconds of steps together, and averaging many
/// chunk percentiles is steadier than one percentile over all steps.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Steps in the smallest chunk.
    pub chunk_len: usize,
    /// Per chunk: completed steps per second of step time.
    pub ops_per_s: Vec<f64>,
    /// Per chunk: median step, in ms.
    pub p50_ms: Vec<f64>,
    /// Per chunk: p90 step, in ms.
    pub p90_ms: Vec<f64>,
}

/// Upper bound on the chunks a phase is cut into.
pub const MAX_CHUNKS: usize = 20;

/// Cuts `step_ns` (with each step's pass flag in `passed`) into the most
/// chunks, up to [`MAX_CHUNKS`], whose length still makes p90 the tail
/// [`tail_quantile`] picks (at least 100 steps). `None` when even one
/// chunk of all the steps is too short.
pub fn chunk_stats(step_ns: &[u64], passed: &[bool]) -> Option<ChunkStats> {
    let n = step_ns.len().min(passed.len());
    let chunks = (1..=MAX_CHUNKS)
        .rev()
        .find(|&c| tail_quantile(n / c) == Some(0.9))?;
    let mut stats = ChunkStats {
        chunk_len: n,
        ops_per_s: Vec::with_capacity(chunks),
        p50_ms: Vec::with_capacity(chunks),
        p90_ms: Vec::with_capacity(chunks),
    };
    for c in 0..chunks {
        let range = n * c / chunks..n * (c + 1) / chunks;
        stats.chunk_len = stats.chunk_len.min(range.len());
        let mut ms: Vec<f64> = step_ns[range.clone()]
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        let secs = ms.iter().sum::<f64>() / 1e3;
        let ok = passed[range].iter().filter(|&&p| p).count();
        stats.ops_per_s.push(ok as f64 / secs);
        stats.p50_ms.push(quantile(&ms, 0.5)?);
        stats.p90_ms.push(quantile(&ms, 0.9)?);
    }
    Some(stats)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// A per-operation ratio that keeps its base, so a report can say
/// "3.1 per op over 2 048 ops" instead of a bare number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOp {
    /// The accumulated quantity.
    pub total: f64,
    /// The number of operations it is divided by.
    pub base: u64,
}

impl PerOp {
    /// Pairs a total with its base.
    pub fn new(total: f64, base: u64) -> Self {
        PerOp { total, base }
    }

    /// `total / base`, or 0 when the base is 0 (nothing was attempted).
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.total / self.base as f64
        }
    }
}

/// Attempted and failed operations. An operation fails when its output
/// check fails or it hits its simulated-time cap; one that does both
/// still counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailCount {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl FailCount {
    /// Records one operation's outcome.
    pub fn record(&mut self, check_passed: bool, hit_cap: bool) {
        self.attempted += 1;
        if !check_passed || hit_cap {
            self.failed += 1;
        }
    }

    /// Fails one already-recorded operation (an end-of-run check that
    /// blames the last step). Never exceeds `attempted`.
    pub fn fail_recorded(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Operations that completed and passed their check.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// `completed / attempted`, 0 when nothing was attempted.
    pub fn success_ratio(&self) -> f64 {
        PerOp::new(self.completed() as f64, self.attempted).value()
    }
}

/// Step id of spans recorded during set-up.
pub const SETUP_STEP: u64 = u64::MAX;

/// One recorded benchmark span. Times are nanoseconds from the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<crate>.<call>`, e.g. `core.migrate_now`; `bench.*` for the
    /// benchmark's own spans.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The step the span belongs to ([`SETUP_STEP`] for set-up).
    pub step: u64,
}

impl SpanRec {
    /// `end - start`.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span is attributed to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// Spans kept in memory for the whole traced run and written out when it
/// ends. Nesting follows call order: a span opened while another is open
/// becomes its child.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span at `now` under the innermost open span; returns its
    /// index.
    pub fn open(&mut self, name: &'static str, step: u64, now: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            step,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` at `now`, along with any children left open.
    pub fn close(&mut self, idx: usize, now: u64) {
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end = now;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// covered by its direct children (overlaps counted once, children
    /// clipped to the parent).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(list) = span.parent.and_then(|p| children.get_mut(p)) {
                list.push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start;
                for (start, end) in kids {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.duration() - covered.min(span.duration())
            })
            .collect()
    }

    /// Self time of the timed phase's spans, summed per layer (see
    /// [`SpanRec::layer`]). Set-up spans are left out.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.step != SETUP_STEP {
                *out.entry(span.layer()).or_insert(0) += own;
            }
        }
        out
    }

    /// Total duration and count of the timed phase's spans named `name`.
    pub fn total_of(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.step != SETUP_STEP)
            .fold((0, 0), |(t, n), s| (t + s.duration(), n + 1))
    }

    /// Total duration of the set-up spans named `name`.
    pub fn setup_total_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.step == SETUP_STEP)
            .map(SpanRec::duration)
            .sum()
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let step = if s.step == SETUP_STEP {
                "null".to_owned()
            } else {
                s.step.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{step}}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `ops_per_s`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// A non-finite value means a measurement failed; it is an error naming the
/// metrics, never a number that could read as a good score.
pub fn result_line(correct: bool, fails: FailCount, metrics: &[Metric]) -> Result<String, String> {
    let broken: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !broken.is_empty() {
        return Err(format!("not measured: {}", broken.join(", ")));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        fails.attempted,
        fails.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert_eq!(tail_quantile(100), Some(0.90));
        // 99 samples: p90 leaves 9 beyond, p75 leaves 24.
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), Some(0.50));
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
        // Large runs still report p90: the ladder is capped.
        assert_eq!(tail_quantile(1_000_000), Some(0.90));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), Some(50.0));
        assert_eq!(quantile(&sorted, 0.9), Some(90.0));
        assert_eq!(quantile(&sorted, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn chunk_stats_take_medians_across_chunks() {
        // 300 steps in 3 chunks; the middle chunk is slowed 10x by noise.
        let mut ns: Vec<u64> = Vec::new();
        for c in 0..3u64 {
            let slow = if c == 1 { 10 } else { 1 };
            ns.extend((1..=100u64).map(|i| i * 1_000_000 * slow));
        }
        let passed = vec![true; 300];
        let s = chunk_stats(&ns, &passed).unwrap();
        assert_eq!((s.ops_per_s.len(), s.chunk_len), (3, 100));
        assert_eq!(s.p50_ms, vec![50.0, 500.0, 50.0]);
        assert_eq!(median(&s.p50_ms), Some(50.0));
        assert_eq!(mean(&s.p50_ms), Some(200.0));
        assert_eq!(median(&s.p90_ms), Some(90.0));
        // 100 steps over 5.05 s of step time.
        assert!((median(&s.ops_per_s).unwrap() - 100.0 / 5.05).abs() < 1e-9);
        // A failed step does not count as completed.
        let mut passed = passed;
        passed[0] = false;
        passed[150] = false;
        passed[250] = false;
        let s = chunk_stats(&ns, &passed).unwrap();
        assert!((median(&s.ops_per_s).unwrap() - 99.0 / 5.05).abs() < 1e-9);
    }

    #[test]
    fn chunks_keep_ten_samples_beyond_p90() {
        assert_eq!(chunk_stats(&[1; 99], &[true; 99]), None);
        let s = chunk_stats(&[1; 250], &[true; 250]).unwrap();
        assert_eq!((s.p90_ms.len(), s.chunk_len), (2, 125));
        assert_eq!(tail_quantile(s.chunk_len), Some(0.9));
        let s = chunk_stats(&vec![1; 24_000], &vec![true; 24_000]).unwrap();
        assert_eq!((s.p90_ms.len(), s.chunk_len), (MAX_CHUNKS, 1_200));
    }

    #[test]
    fn self_time_is_net_of_children() {
        let mut log = SpanLog::new();
        let root = log.open("bench.step", 0, 0);
        let a = log.open("core.migrate_now", 0, 10);
        log.close(a, 30);
        let b = log.open("simnet.run", 0, 40);
        let inner = log.open("wire.encode", 0, 45);
        log.close(inner, 50);
        log.close(b, 90);
        log.close(root, 100);
        // root: 100 - (20 + 50); a: 20; b: 50 - 5; inner: 5.
        assert_eq!(log.self_times(), vec![30, 20, 45, 5]);
        let by_layer = log.self_time_by_layer();
        assert_eq!(by_layer.get("bench"), Some(&30));
        assert_eq!(by_layer.get("simnet"), Some(&45));
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert_eq!(log.total_of("core.migrate_now"), (20, 1));
    }

    #[test]
    fn setup_spans_stay_out_of_timed_totals() {
        let mut log = SpanLog::new();
        let build = log.open("core.build", SETUP_STEP, 0);
        log.close(build, 50);
        let step = log.open("bench.step", 0, 60);
        let run = log.open("core.build", 0, 60);
        log.close(run, 70);
        log.close(step, 80);
        assert_eq!(log.setup_total_of("core.build"), 50);
        assert_eq!(log.total_of("core.build"), (10, 1));
        assert_eq!(log.self_time_by_layer().values().sum::<u64>(), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            SpanRec {
                name: "bench.step",
                start: 0,
                end: 100,
                parent: None,
                step: 0,
            },
            SpanRec {
                name: "a.x",
                start: 10,
                end: 40,
                parent: Some(0),
                step: 0,
            },
            SpanRec {
                name: "a.y",
                start: 30,
                end: 60,
                parent: Some(0),
                step: 0,
            },
            SpanRec {
                name: "a.z",
                start: 90,
                end: 130,
                parent: Some(0),
                step: 0,
            },
        ];
        let log = SpanLog {
            spans,
            open: Vec::new(),
        };
        // Covered: [10, 60) and [90, 100) = 60.
        assert_eq!(log.self_times()[0], 40);
    }

    #[test]
    fn closing_a_parent_closes_open_children() {
        let mut log = SpanLog::new();
        let root = log.open("bench.step", 3, 0);
        log.open("simnet.run", 3, 5);
        log.close(root, 9);
        assert_eq!(log.spans()[1].end, 9);
        assert_eq!(log.spans()[1].parent, Some(0));
        let next = log.open("bench.step", 4, 10);
        assert_eq!(log.spans()[next].parent, None);
    }

    #[test]
    fn per_op_ratio_keeps_its_base() {
        let r = PerOp::new(330.0 * 64.0, 64);
        assert_eq!(r.value(), 330.0);
        assert_eq!(r.base, 64);
        assert_eq!(PerOp::new(5.0, 0).value(), 0.0);
    }

    #[test]
    fn failures_count_checks_and_caps() {
        let mut f = FailCount::default();
        f.record(true, false);
        f.record(false, false); // missed its output check
        f.record(true, true); // hit the sim-time cap
        f.record(false, true); // both: still one failure
        assert_eq!((f.attempted, f.failed, f.completed()), (4, 3, 1));
        assert_eq!(f.success_ratio(), 0.25);
        f.fail_recorded();
        f.fail_recorded();
        assert_eq!(f.failed, 4, "never more failures than attempts");
        assert_eq!(FailCount::default().success_ratio(), 0.0);
    }

    fn metric(name: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: "ms",
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut f = FailCount::default();
        f.record(true, false);
        let line = result_line(true, f, &[metric("ops_per_s", 1200.5), metric("p", 2.0)]);
        assert_eq!(
            line.as_deref(),
            Ok(
                "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                {\"ops_per_s\": {\"value\": 1200.5, \"unit\": \"ms\"}, \
                \"p\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
            )
        );
    }

    #[test]
    fn unmeasured_metrics_refuse_a_result() {
        let metrics = [
            metric("setup_s", f64::NAN),
            metric("ops_per_s", 1.0),
            metric("peak_rss_mb", f64::INFINITY),
        ];
        assert_eq!(
            result_line(true, FailCount::default(), &metrics),
            Err("not measured: setup_s, peak_rss_mb".to_owned())
        );
    }
}
