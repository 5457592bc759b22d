//! Fixed-bucket log2 histograms: plain counter arrays, mergeable
//! counter-for-counter (add-and-zero folds) exactly like the energy
//! crate's `LinkLedger`.
//!
//! Bucket 0 holds the value `0`; bucket `i` (for `i >= 1`) holds the
//! half-open power-of-two range `[2^(i-1), 2^i - 1]`. With 65 buckets the
//! whole `u64` domain is covered, so recording never saturates or drops.
//! Everything is integer arithmetic — recording, merging and percentile
//! extraction are bit-identical at any worker count, which is
//! what lets `RunSummary` report p50/p90/p99 that never depend on the
//! parallelism knobs.

use serde::{DeError, Deserialize, Serialize, Value};

/// Number of log2 buckets: the zero bucket plus one per `u64` bit.
pub const HIST_BUCKETS: usize = 65;

/// A mergeable fixed-bucket log2 histogram over `u64` samples.
///
/// Plain counters only: merging two partitions is element-wise addition
/// (plus a max of the exact maxima), so a histogram assembled from
/// partitions equals the one recorded in one piece, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index of `value`: 0 for 0, `floor(log2 v) + 1` otherwise.
    #[must_use]
    pub const fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`2^index - 1`, saturating
    /// at `u64::MAX` for the top bucket).
    #[must_use]
    pub const fn bucket_upper(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Inclusive lower bound of bucket `index` (0, then `2^(index-1)`).
    #[must_use]
    pub const fn bucket_lower(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.wrapping_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Adds `other` into `self` (element-wise counter addition).
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Adds `other` into `self` and zeroes `other` — an add-and-zero
    /// fold, so folding the same partition twice counts it once.
    pub fn merge_from(&mut self, other: &mut Hist) {
        self.merge(other);
        *other = Hist::new();
    }

    /// `true` when no sample has been recorded.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.total == 0
    }

    /// Samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (wrapping).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// The `p`-th percentile (1..=100) by ceiling rank, resolved to the
    /// containing bucket's inclusive upper bound and clamped to the exact
    /// maximum — all-integer, so bit-identical everywhere. Returns 0 for
    /// an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `1..=100`.
    #[must_use]
    pub fn percentile(&self, p: u64) -> u64 {
        assert!((1..=100).contains(&p), "percentile must be in 1..=100");
        if self.total == 0 {
            return 0;
        }
        // Ceiling rank: the rank-th smallest sample (1-based).
        let rank = ((u128::from(self.total) * u128::from(p)).div_ceil(100)).max(1);
        let mut cumulative: u128 = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += u128::from(count);
            if cumulative >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }
}

impl Serialize for Hist {
    fn to_value(&self) -> Value {
        // Sparse encoding: only non-empty buckets, as [index, count] pairs
        // in ascending index order.
        let buckets: Vec<Value> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(c)]))
            .collect();
        Value::Object(vec![
            ("buckets".to_string(), Value::Array(buckets)),
            ("total".to_string(), Value::UInt(self.total)),
            ("sum".to_string(), Value::UInt(self.sum)),
            ("max".to_string(), Value::UInt(self.max)),
        ])
    }
}

impl Deserialize for Hist {
    /// Validating decode: bucket indices must be in range, strictly
    /// ascending and non-empty; the counts must sum to `total`; `max`
    /// must lie inside the highest non-empty bucket (and be 0 for an
    /// empty histogram). A corrupted histogram payload therefore fails
    /// the parse — and, through `parse_journal`, names its record index.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let pairs: Vec<Value> = serde::field(value, "buckets")?;
        let total: u64 = serde::field(value, "total")?;
        let sum: u64 = serde::field(value, "sum")?;
        let max: u64 = serde::field(value, "max")?;
        let mut hist = Hist::new();
        let mut last: Option<usize> = None;
        let mut counted: u128 = 0;
        for pair in &pairs {
            let Value::Array(entry) = pair else {
                return Err(DeError("histogram bucket entry must be a pair".into()));
            };
            if entry.len() != 2 {
                return Err(DeError("histogram bucket entry must be a pair".into()));
            }
            let index = usize::from_value(&entry[0])?;
            let count = u64::from_value(&entry[1])?;
            if index >= HIST_BUCKETS {
                return Err(DeError(format!(
                    "histogram bucket index {index} out of range"
                )));
            }
            if last.is_some_and(|prev| index <= prev) {
                return Err(DeError("histogram bucket indices must ascend".into()));
            }
            if count == 0 {
                return Err(DeError("histogram bucket with zero count".into()));
            }
            hist.counts[index] = count;
            counted += u128::from(count);
            last = Some(index);
        }
        if counted != u128::from(total) {
            return Err(DeError(format!(
                "histogram bucket counts sum to {counted}, total says {total}"
            )));
        }
        match last {
            None => {
                if max != 0 || sum != 0 {
                    return Err(DeError("empty histogram with non-zero max or sum".into()));
                }
            }
            Some(top) => {
                if Hist::bucket_of(max) != top {
                    return Err(DeError(format!(
                        "histogram max {max} outside its top bucket {top}"
                    )));
                }
            }
        }
        hist.total = total;
        hist.sum = sum;
        hist.max = max;
        Ok(hist)
    }
}

/// The per-packet delivery histograms, recorded once per measured packet
/// as its delivery is booked; triples merge counter for counter like the
/// link ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketHists {
    /// End-to-end latency (creation → tail ejection), cycles.
    pub latency: Hist,
    /// Network latency (head leaves source router → tail ejection).
    pub network_latency: Hist,
    /// Hops of the deterministic route (XY → elevator → XY).
    pub hops: Hist,
}

impl PacketHists {
    /// An empty triple.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` and zeroes `other`.
    pub fn merge_from(&mut self, other: &mut PacketHists) {
        self.latency.merge_from(&mut other.latency);
        self.network_latency.merge_from(&mut other.network_latency);
        self.hops.merge_from(&mut other.hops);
    }

    /// `true` when every histogram is empty.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.latency.is_zero() && self.network_latency.is_zero() && self.hops.is_zero()
    }
}

/// The fabric-occupancy histograms sampled serially at window boundaries
/// by a traced simulator: per-router queue depth, per-lane VC occupancy
/// and the injection calendar's depth. All pure functions of committed
/// cycle state, so deterministic across worker counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricHists {
    /// Buffered flits per router, one sample per router per window.
    pub queue_depth: Hist,
    /// Flits per (port, VC) input lane, one sample per lane per window.
    pub vc_occupancy: Hist,
    /// Injection-calendar depth, one sample per window.
    pub calendar_depth: Hist,
}

impl FabricHists {
    /// An empty triple.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The fixed name/histogram pairing of a `hist` trace record: the three
/// delivery histograms followed by the three fabric histograms, in schema
/// order.
#[must_use]
pub fn hist_record_entries(packets: &PacketHists, fabric: &FabricHists) -> Vec<(String, Hist)> {
    vec![
        ("latency".to_string(), packets.latency.clone()),
        (
            "network_latency".to_string(),
            packets.network_latency.clone(),
        ),
        ("hops".to_string(), packets.hops.clone()),
        ("queue_depth".to_string(), fabric.queue_depth.clone()),
        ("vc_occupancy".to_string(), fabric.vc_occupancy.clone()),
        ("calendar_depth".to_string(), fabric.calendar_depth.clone()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_domain() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(Hist::bucket_of(Hist::bucket_lower(i)), i);
            assert_eq!(Hist::bucket_of(Hist::bucket_upper(i)), i);
        }
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let values = [0u64, 1, 1, 5, 9, 100, 100, 7, 65_000, 3];
        let mut sequential = Hist::new();
        for &v in &values {
            sequential.record(v);
        }
        for k in [1usize, 2, 3, 7] {
            let mut parts = vec![Hist::new(); k];
            for (i, &v) in values.iter().enumerate() {
                parts[i % k].record(v);
            }
            let mut merged = Hist::new();
            for part in &mut parts {
                merged.merge_from(part);
                assert!(part.is_zero());
            }
            assert_eq!(merged, sequential, "k={k}");
        }
    }

    #[test]
    fn percentiles_walk_ceiling_ranks() {
        let mut h = Hist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 → rank 50 → value 50 lives in bucket 6 ([32, 63]).
        assert_eq!(h.percentile(50), 63);
        // p100 is the exact max, not a bucket bound.
        assert_eq!(h.percentile(100), 100);
        // A single sample answers every percentile.
        let mut one = Hist::new();
        one.record(42);
        for p in [1, 50, 90, 99, 100] {
            assert_eq!(one.percentile(p), 42);
        }
        assert_eq!(Hist::new().percentile(99), 0);
    }

    #[test]
    fn serde_round_trips_and_rejects_corruption() {
        let mut h = Hist::new();
        for v in [0u64, 3, 3, 900, 17] {
            h.record(v);
        }
        let value = h.to_value();
        assert_eq!(Hist::from_value(&value).unwrap(), h);

        let text = serde_json::to_string(&value).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(Hist::from_value(&reparsed).unwrap(), h);

        // Tamper with the total: the decode must fail.
        let Value::Object(mut entries) = value.clone() else {
            panic!("hist encodes as an object")
        };
        for (k, v) in &mut entries {
            if k == "total" {
                *v = Value::UInt(99);
            }
        }
        assert!(Hist::from_value(&Value::Object(entries)).is_err());

        // Tamper with the max: must fail too.
        let Value::Object(mut entries) = value else {
            panic!("hist encodes as an object")
        };
        for (k, v) in &mut entries {
            if k == "max" {
                *v = Value::UInt(1);
            }
        }
        assert!(Hist::from_value(&Value::Object(entries)).is_err());
    }

    #[test]
    fn packet_hists_fold_add_and_zero() {
        let mut aggregate = PacketHists::new();
        let mut partition = PacketHists::new();
        partition.latency.record(10);
        partition.network_latency.record(8);
        partition.hops.record(3);
        aggregate.merge_from(&mut partition);
        assert!(partition.is_zero());
        assert_eq!(aggregate.latency.total(), 1);
        assert_eq!(aggregate.hops.max(), 3);
        // Folding the now-empty partition again changes nothing.
        let before = aggregate.clone();
        aggregate.merge_from(&mut partition);
        assert_eq!(aggregate, before);
    }
}
