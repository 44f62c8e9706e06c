//! The `dbgp-metrics/v1` document: a host's counters, gauges and
//! log2-bucketed histograms, rendered from values the host already
//! holds at the moment it is asked.
//!
//! Every counter and histogram in the workspace accumulates across node
//! restarts, and the document labels them `accumulate`. What a restart
//! resets is the simulator's per-node rows, which it renders itself.

use serde_json::Value;

/// Schema identifier written into metric snapshots.
pub const METRICS_SCHEMA: &str = "dbgp-metrics/v1";

/// Index of the log2 bucket a value falls into.
fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Power-of-two bucketed histogram: bucket 0 holds zeros, bucket `k`
/// (k >= 1) holds values in `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Log2Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[log2_bucket(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn to_json(&self, name: &str) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                Value::Object(vec![
                    ("bucket".into(), Value::UInt(i as u64)),
                    ("lo".into(), Value::UInt(lo)),
                    ("count".into(), Value::UInt(*n)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("semantics".into(), Value::String("accumulate".into())),
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("min".into(), Value::UInt(if self.count == 0 { 0 } else { self.min })),
            ("max".into(), Value::UInt(self.max)),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// A `dbgp-metrics/v1` document at time `at` for restart `generation`.
/// Each list renders in the order given, so a host that passes the same
/// values gets the same bytes.
pub fn render(
    at: u64,
    generation: u64,
    counters: &[(&str, u64)],
    gauges: &[(&str, i64)],
    histograms: &[(&str, &Log2Histogram)],
) -> Value {
    let counters = counters.iter().map(|&(name, value)| {
        Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("semantics".into(), Value::String("accumulate".into())),
            ("value".into(), Value::UInt(value)),
        ])
    });
    let gauges = gauges.iter().map(|&(name, value)| {
        Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("value".into(), Value::Int(value)),
        ])
    });
    let histograms = histograms.iter().map(|(name, h)| h.to_json(name));
    Value::Object(vec![
        ("schema".into(), Value::String(METRICS_SCHEMA.into())),
        ("at".into(), Value::UInt(at)),
        ("generation".into(), Value::UInt(generation)),
        ("counters".into(), Value::Array(counters.collect())),
        ("gauges".into(), Value::Array(gauges.collect())),
        ("histograms".into(), Value::Array(histograms.collect())),
    ])
}

/// [`render`] as one line of JSON text, for hosts that print their
/// metrics and do not otherwise handle JSON.
pub fn render_text(
    at: u64,
    generation: u64,
    counters: &[(&str, u64)],
    gauges: &[(&str, i64)],
    histograms: &[(&str, &Log2Histogram)],
) -> String {
    serde_json::to_string(&render(at, generation, counters, gauges, histograms))
        .expect("a JSON value always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn snapshot_is_deterministic_and_skips_empty_buckets() {
        let mut h = Log2Histogram::default();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        let snap = render(7, 0, &[], &[], &[("bytes", &h)]);
        assert_eq!(
            render_text(7, 0, &[], &[], &[("bytes", &h)]),
            serde_json::to_string(&snap).unwrap()
        );
        let hist = &snap.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(10));
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(0));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(5));
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2); // bucket 0 (zeros) and bucket 3 ([4,8))
    }

    #[test]
    fn an_empty_histogram_renders_a_zero_min() {
        let snap = render(0, 0, &[], &[], &[("empty", &Log2Histogram::default())]);
        let hist = &snap.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(0));
        assert!(hist.get("buckets").unwrap().as_array().unwrap().is_empty());
    }
}
