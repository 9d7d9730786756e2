//! Measurement primitives: the nearest-rank percentile helper, the
//! fastest cycle of a timed phase's requests, a fixed log-linear latency
//! histogram (no allocation when recording), and the span log the traced
//! run writes out at the end.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub pct: f64,
    /// Samples available.
    pub samples: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs at least {MIN_BEYOND} samples beyond it; only {} samples",
            self.pct, self.samples
        )
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Checks that percentile `pct` of `n` samples leaves at least
/// [`MIN_BEYOND`] samples beyond it; returns its nearest rank.
fn checked_rank(pct: f64, n: usize) -> Result<usize, TooFewSamples> {
    let rank = nearest_rank(pct, n);
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(TooFewSamples { pct, samples: n });
    }
    Ok(rank)
}

/// Nearest-rank percentile of `samples` (sorted here).
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(samples: &mut [f64], pct: f64) -> Result<f64, TooFewSamples> {
    let rank = checked_rank(pct, samples.len())?;
    samples.sort_by(f64::total_cmp);
    Ok(samples[rank - 1])
}

/// Median of a small sample set (set-up repetitions). Empty input is 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Requests in one cycle of the fleet and training workloads: enough for a
/// p90 with [`MIN_BEYOND`] samples beyond it, and a multiple of the
/// fleet's 5-tick ring-push period, so the same position of every cycle
/// does the same work.
pub const CYCLE: usize = 100;

/// A finished request: `(latency_ms, work)`, where `work` is what the
/// workload's rate counts (trained windows, session ticks).
pub type Request = (f64, f64);

/// The end-to-end timings of one pass over a workload's unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Repetition {
    /// Work per second of the repetition's requests.
    pub rate: f64,
    /// Nearest-rank median request latency (ms).
    pub p50_ms: f64,
    /// Nearest-rank 90th-percentile request latency (ms).
    pub p90_ms: f64,
}

impl Repetition {
    /// Rate and percentiles of `requests`, run back to back on one thread:
    /// the rate is their work over the sum of their latencies.
    ///
    /// # Errors
    ///
    /// Refuses a p90 with fewer than [`MIN_BEYOND`] requests beyond it.
    pub fn of(requests: &[Request]) -> Result<Self, TooFewSamples> {
        let mut latencies: Vec<f64> = requests.iter().map(|r| r.0).collect();
        let work: f64 = requests.iter().map(|r| r.1).sum();
        let busy_s = latencies.iter().sum::<f64>() * 1e-3;
        Ok(Repetition {
            rate: if busy_s > 0.0 { work / busy_s } else { 0.0 },
            p50_ms: percentile(&mut latencies, 50.0)?,
            p90_ms: percentile(&mut latencies, 90.0)?,
        })
    }
}

/// The cycle composed of the fastest instance of each of its [`CYCLE`]
/// positions: position `j` holds requests `j`, `j + CYCLE`, `j + 2 CYCLE`,
/// … of `requests`, in completion order. Outside load on a shared host
/// only ever slows a request down, so each position's fastest instance is
/// the steadiest estimate of what it costs; a request lasts far less than
/// the stretches of outside load, so nearly every position has an instance
/// they spared. `None` without one whole cycle.
pub fn fastest_cycle(requests: &[Request]) -> Option<Repetition> {
    if requests.len() < CYCLE {
        return None;
    }
    let fastest: Vec<Request> = (0..CYCLE)
        .filter_map(|j| {
            requests[j..]
                .iter()
                .step_by(CYCLE)
                .copied()
                .min_by(|a, b| a.0.total_cmp(&b.0))
        })
        .collect();
    Repetition::of(&fastest).ok()
}

/// Sub-buckets per power of two: 32 gives a bucket width of at most
/// 1/32 (3 %) of its lower bound.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A fixed log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
    sum: u64,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram {{ n: {}, sum: {} }}", self.n, self.sum)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// `[lo, lo + width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let lo = ((SUB + i % SUB) as f64) * 2f64.powi(shift);
    (lo, 2f64.powi(shift))
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean sample (ns); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Nearest-rank percentile, placed inside its bucket by linear
    /// interpolation over the bucket's samples.
    ///
    /// # Errors
    ///
    /// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it.
    pub fn percentile(&self, pct: f64) -> Result<f64, TooFewSamples> {
        let n = usize::try_from(self.n).unwrap_or(usize::MAX);
        let rank = checked_rank(pct, n)? as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, width) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return Ok(lo + width * within / c as f64);
            }
            seen += c;
        }
        Err(TooFewSamples { pct, samples: n })
    }
}

/// A coarse span: one mission, batch, request, stage or tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within one run (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 for a root span.
    pub parent: u64,
    /// What the span covers.
    pub name: &'static str,
    /// Start, from the ledger clock (ns).
    pub start_ns: u64,
    /// End, from the ledger clock (ns).
    pub end_ns: u64,
}

/// The traced run's span log, kept in memory and written out at the end.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its id.
    pub fn push(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet; finish it
    /// with [`SpanLog::close`].
    pub fn open(&mut self, parent: u64, name: &'static str, start_ns: u64) -> u64 {
        self.push(parent, name, start_ns, start_ns)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: u64, end_ns: u64) {
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = end_ns;
        }
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 50.0), Ok(50.0));
        assert_eq!(percentile(&mut v, 90.0), Ok(90.0));
        assert_eq!(percentile(&mut v, 89.5), Ok(90.0));
        let mut w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&mut w, 50.0), Ok(11.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p91 leaves 9 samples beyond rank 91.
        assert_eq!(
            percentile(&mut v, 91.0),
            Err(TooFewSamples {
                pct: 91.0,
                samples: 100
            })
        );
        let mut w: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&mut w, 99.0).is_err());
        let mut x: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut x, 99.0), Ok(990.0));
        assert!(percentile(&mut [], 50.0).is_err());
        assert!(percentile(&mut [1.0; 19], 50.0).is_err());
    }

    #[test]
    fn histogram_percentile_stays_inside_the_bucket_of_the_rank() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for pct in [50.0, 90.0, 99.0] {
            let exact = (pct / 100.0 * 10_000.0) * 37.0;
            let got = h.percentile(pct).expect("enough samples");
            assert!(
                (got - exact).abs() / exact < 0.04,
                "p{pct}: {got} vs {exact}"
            );
        }
        assert!(h.percentile(99.95).is_err());
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_buckets_cover_every_value() {
        for v in [0u64, 1, 31, 32, 33, 1000, 1 << 40, u64::MAX] {
            let (lo, width) = bucket_range(bucket_of(v));
            // `<=`: near 2^64 the bucket's end rounds onto `v as f64`.
            let x = v as f64;
            assert!(
                lo <= x && x <= lo + width,
                "{v} not in [{lo}, {}]",
                lo + width
            );
        }
    }

    #[test]
    fn spans_nest_by_parent_id() {
        let mut log = SpanLog::default();
        let root = log.open(0, "batch", 10);
        let m = log.push(root, "mission", 11, 12);
        log.push(m, "stage", 11, 12);
        log.close(root, 20);
        let s = log.spans();
        assert_eq!(s[0].end_ns, 20);
        assert_eq!((s[1].id, s[1].parent), (2, root));
        assert_eq!((s[2].id, s[2].parent), (3, 2));
    }

    #[test]
    fn the_fastest_cycle_takes_every_position_at_its_fastest() {
        // 350 back-to-back requests of 1..=10 ms, one work unit each, so
        // every cycle of 100 holds each latency ten times. Outside load
        // doubles requests 100..200 and triples requests 7 and 207, so
        // position 7 is calm only in its last instance, 307.
        let requests: Vec<Request> = (0..350)
            .map(|i| {
                let slow = match i {
                    100..=199 => 2.0,
                    7 | 207 => 3.0,
                    _ => 1.0,
                };
                (f64::from(i % 10 + 1) * slow, 1.0)
            })
            .collect();
        // Every position at its calm latency: 100 requests in 550 ms.
        let calm: Vec<Request> = (0..100).map(|i| (f64::from(i % 10 + 1), 1.0)).collect();
        let calm = Repetition::of(&calm).expect("a whole cycle");
        assert!((calm.rate - 100.0 / 0.55).abs() < 1e-6);
        assert_eq!((calm.p50_ms, calm.p90_ms), (5.0, 9.0));
        assert_eq!(fastest_cycle(&requests), Some(calm));
        // In the first two cycles position 7 is never calm: at best 16 ms
        // (doubled) instead of 8, which moves the p90 and the rate.
        let slowed = fastest_cycle(&requests[..200]).expect("two whole cycles");
        assert!((slowed.rate - 100.0 / 0.558).abs() < 1e-6);
        assert_eq!((slowed.p50_ms, slowed.p90_ms), (5.0, 10.0));
        assert_eq!(fastest_cycle(&requests[..99]), None);
    }

    #[test]
    fn a_repetition_refuses_a_p90_with_too_few_requests() {
        let requests: Vec<Request> = (1..=99).map(|i| (f64::from(i), 1.0)).collect();
        assert!(Repetition::of(&requests).is_err());
        assert!(Repetition::of(&requests[..20]).is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
