//! Latency summaries under one percentile rule, and the metric record every
//! printed number travels in.

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile before the benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples. The
/// epsilon keeps products like `0.999 * 10_000` from rounding up a rank.
fn rank(n: usize, pct: f64) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = rank(sorted.len(), pct);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `pct` percentile's position.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = rank(n, pct);
    n.saturating_sub(rank.max(1))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// A timing distribution reduced to what the benchmark prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (the fixed tail the gated metrics name).
    pub p99: f64,
    /// The tail the percentile rule supports: `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Sorts `samples` in place and summarizes them.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Summary {
            n,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail: tail_percentile(n).map(|p| (p, percentile(samples, p))),
            max: samples.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `p50 …, p99 …, tail p… …` with the sample count, for the report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.1} {unit}"),
            None => format!("no tail percentile (<{MIN_BEYOND} samples beyond p90)"),
        };
        format!(
            "p50 {:.1} {unit}, p99 {:.1} {unit}, {tail}, max {:.1} {unit} (n={})",
            self.p50, self.p99, self.max, self.n
        )
    }
}

/// A fixed-size uniform sample of a stream of values (Vitter's algorithm
/// R), so a client's memory does not grow with its throughput. Streams
/// shorter than the capacity are kept whole.
#[derive(Debug, Clone, Default)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    items: Vec<f64>,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir of `cap` values drawing from a `seed`ed stream.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            rng: seed,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(value);
        } else {
            let slot = podium_core::engine::splitmix64(&mut self.rng) % self.seen;
            if let Some(item) = self.items.get_mut(slot as usize) {
                *item = value;
            }
        }
    }

    /// The sample.
    pub fn values(&self) -> &[f64] {
        &self.items
    }

    /// Adds another reservoir's sample to this one's (each stays uniform
    /// over its own stream).
    pub fn absorb(&mut self, other: Reservoir) {
        self.seen += other.seen;
        self.cap += other.cap;
        self.items.extend(other.items);
    }
}

/// One printed number: its name, unit, value, the samples behind it, and
/// for a ratio the base it was taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the benchmark's doc.
    pub name: String,
    /// Unit (`s`, `us`, `1/s`, `MB`, `ratio`, `count`, …).
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples or operations the value was computed from.
    pub n: u64,
    /// For a ratio or a per-unit figure: `(base count, what was counted)`.
    pub base: Option<(u64, &'static str)>,
}

impl Metric {
    /// A metric over `n` samples with no base.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            base: None,
        }
    }

    /// `numerator / base`, printed with its base; `0` over an empty base.
    pub fn ratio(
        name: impl Into<String>,
        unit: &'static str,
        numerator: f64,
        base: u64,
        base_what: &'static str,
    ) -> Metric {
        let value = if base == 0 {
            0.0
        } else {
            numerator / base as f64
        };
        Metric {
            name: name.into(),
            unit,
            value,
            n: base,
            base: Some((base, base_what)),
        }
    }

    /// The report line: name, value, unit, sample count and base.
    pub fn line(&self) -> String {
        let base = match self.base {
            Some((n, what)) => format!(" (base: {n} {what})"),
            None => format!(" (n={})", self.n),
        };
        format!("{:<40} {:>16.4} {}{base}", self.name, self.value, self.unit)
    }
}
