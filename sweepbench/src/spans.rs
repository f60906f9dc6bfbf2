//! Spans recorded around the benchmark's calls into the simulator, and the
//! small statistics the report needs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: its name (`layer.call`), interval in nanoseconds since
/// the recorder started, the span that was open around it, and the cell it
/// belongs to.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u32,
}

impl Span {
    /// The layer a span reports under: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Cell id of spans that belong to no cell (set-up, microbenchmarks).
pub const NO_CELL: u32 = u32::MAX;

/// An in-memory span recorder. A disabled recorder runs each closure
/// without reading the clock, so the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through
    /// the recorder it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.replace(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Total seconds of every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_owned()
            } else {
                s.cell.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{cell}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover. Spans on one thread nest, so children never overlap and
/// the covered part is the sum of their durations.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Nearest-rank percentile `pct` of `sorted`, or `None` when fewer than
/// ten samples lie beyond it.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    (idx < n && n - 1 - idx >= 10).then(|| sorted[idx])
}

/// The highest of the 99th, 90th, 75th and 50th percentiles that has at
/// least ten samples beyond it, as `(pct, value)`.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(sorted, p).map(|v| (p, v)))
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_layer() {
        // bench.cell [0, 100) holds sim.new [10, 30) and sim.run [30, 90);
        // sim.run holds experiments.x [40, 50).
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("sim.new", 10, 30, Some(0)),
            span("sim.run", 30, 90, Some(0)),
            span("experiments.x", 40, 50, Some(2)),
            span("bench.cell", 200, 210, None),
        ];
        let by = self_secs_by_layer(&spans);
        let ns = |l: &str| (by[l] * 1e9).round() as u64;
        assert_eq!(ns("bench"), 20 + 10);
        assert_eq!(ns("sim"), 20 + 50);
        assert_eq!(ns("experiments"), 10);
        // Self times add up to the root spans' total.
        assert_eq!(
            by.values().map(|s| (s * 1e9).round() as u64).sum::<u64>(),
            110
        );
    }

    #[test]
    fn recorder_nests_and_tags_cells() {
        let mut s = Spans::new(true);
        s.span("bench.cell", 3, |s| {
            s.span("sim.new", 3, |_| ());
            s.span("sim.run", 3, |_| ());
        });
        s.span("trace.validate", NO_CELL, |_| ());
        let parents: Vec<Option<usize>> = s.spans().iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(s.spans()[..3].iter().all(|x| x.cell == 3));
        assert!(s.spans().iter().all(|x| x.start_ns <= x.end_ns));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("sim.run", 0, |s| s.span("sim.new", 0, |_| 7)), 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=105).map(f64::from).collect();
        // 105 samples: the 90th percentile is the 95th value, 10 beyond.
        assert_eq!(percentile(&sorted, 90.0), Some(95.0));
        assert_eq!(percentile(&sorted, 99.0), None);
        assert_eq!(tail_percentile(&sorted), Some((90.0, 95.0)));
        // 32 samples: only the median has ten beyond it.
        let sorted: Vec<f64> = (1..=32).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 75.0), None);
        assert_eq!(tail_percentile(&sorted), Some((50.0, 16.0)));
        // 40 samples: the 75th percentile is the 30th value, 10 beyond.
        let sorted: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted), Some((75.0, 30.0)));
        // Fewer than 11 samples: no percentile at all.
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
