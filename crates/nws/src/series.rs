//! Measurement time series: what memory servers store on disk in real NWS.
//!
//! A bounded ring of `(timestamp, value)` points, newest last. The bound
//! mirrors NWS's fixed-size circular files.

use std::collections::VecDeque;

/// One measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    pub t: f64,
    pub value: f64,
}

/// A bounded measurement history.
#[derive(Debug, Clone)]
pub struct Series {
    points: VecDeque<SeriesPoint>,
    capacity: usize,
}

impl Series {
    /// NWS's default circular-file size is a few hundred entries.
    pub(crate) const DEFAULT_CAPACITY: usize = 512;

    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be positive");
        // The ring grows on demand: most series of a large deployment hold
        // a point or two, far under the bound they evict at.
        Series { points: VecDeque::new(), capacity }
    }

    /// Store one measurement. Two classes of point are **rejected**
    /// (returns `false`) in every build profile:
    ///
    /// * non-finite `t`/`value` — a sensor dividing by a zero elapsed time
    ///   produces a NaN/∞ that would otherwise sit in the ring until a
    ///   forecaster consumed it (the old `debug_assert!` let exactly that
    ///   happen in release builds — the same bug class `refine::median`
    ///   fixed for probe samples);
    /// * `t` not strictly newer than the last stored point — the
    ///   delta-fetch suffix walk ([`Series::pairs_since`]) and the
    ///   forecaster's timestamp watermark both rely on strictly increasing
    ///   times, so a stale or duplicate-time point would be silently and
    ///   permanently invisible to forecasts while still sitting in the
    ///   ring, breaking the replay-oracle bit-identity.
    pub fn push(&mut self, t: f64, value: f64) -> bool {
        if !t.is_finite() || !value.is_finite() {
            return false;
        }
        if self.points.back().is_some_and(|p| t <= p.t) {
            return false;
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(SeriesPoint { t, value });
        true
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The ring bound this series was created with (persisted by the
    /// durability plane so a recovered ring evicts identically).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn last(&self) -> Option<SeriesPoint> {
        self.points.back().copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = SeriesPoint> + '_ {
        self.points.iter().copied()
    }

    /// Append every point, oldest first, as `t, value` little-endian IEEE-754
    /// bit patterns (the snapshot form): the ring's two contiguous halves
    /// are copied out in bulk rather than pushed a field at a time.
    pub(crate) fn encode_points(&self, b: &mut Vec<u8>) {
        let (head, tail) = self.points.as_slices();
        let start = b.len();
        b.resize(start + 16 * self.points.len(), 0);
        let (dst_head, dst_tail) = b[start..].split_at_mut(16 * head.len());
        for (half, dst) in [(head, dst_head), (tail, dst_tail)] {
            for (p, d) in half.iter().zip(dst.chunks_exact_mut(16)) {
                d[..8].copy_from_slice(&p.t.to_bits().to_le_bytes());
                d[8..].copy_from_slice(&p.value.to_bits().to_le_bytes());
            }
        }
    }

    /// Points as `(t, value)` pairs (the FetchReply payload).
    pub(crate) fn to_pairs(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.t, p.value)).collect()
    }

    /// Points strictly newer than `after`, oldest first — the delta-fetch
    /// payload. Timestamps within a series are strictly increasing
    /// (enforced by [`Series::push`]), so this walks back over the
    /// suffix: O(Δ) for the steady-state query path, not O(ring).
    pub fn pairs_since(&self, after: f64) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> =
            self.points.iter().rev().take_while(|p| p.t > after).map(|p| (p.t, p.value)).collect();
        out.reverse();
        out
    }

    /// Mean measurement interval, if at least two points exist — the
    /// observable behind the clique-frequency experiment (E2).
    pub(crate) fn mean_interval(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let first = self.points.front().expect("non-empty").t;
        let last = self.points.back().expect("non-empty").t;
        Some((last - first) / (self.points.len() - 1) as f64)
    }
}

impl Default for Series {
    fn default() -> Self {
        Series::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Series {
        /// Mean of the values.
        fn mean(&self) -> Option<f64> {
            if self.points.is_empty() {
                return None;
            }
            Some(self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64)
        }
    }

    #[test]
    fn push_and_read_back() {
        let mut s = Series::new(8);
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last().unwrap().value, 20.0);
        assert_eq!(s.to_pairs(), vec![(1.0, 10.0), (2.0, 20.0)]);
        assert!(!s.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut s = Series::new(3);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 10.0);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_pairs(), vec![(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]);
    }

    #[test]
    fn mean_interval() {
        let mut s = Series::new(16);
        assert_eq!(s.mean_interval(), None);
        for i in 0..5 {
            s.push(i as f64 * 2.0, 1.0);
        }
        assert!((s.mean_interval().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_value() {
        let mut s = Series::new(16);
        assert_eq!(s.mean(), None);
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert!((s.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Series::new(0);
    }

    #[test]
    fn non_finite_points_rejected() {
        let mut s = Series::new(8);
        assert!(!s.push(f64::NAN, 1.0));
        assert!(!s.push(1.0, f64::NAN));
        assert!(!s.push(1.0, f64::INFINITY));
        assert!(!s.push(f64::NEG_INFINITY, 1.0));
        assert!(s.is_empty());
        assert!(s.push(1.0, 2.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn out_of_order_timestamps_rejected() {
        let mut s = Series::new(8);
        assert!(s.push(1.0, 10.0));
        assert!(!s.push(1.0, 11.0), "duplicate timestamp");
        assert!(!s.push(0.5, 12.0), "stale timestamp");
        assert!(s.push(2.0, 13.0));
        assert_eq!(s.to_pairs(), vec![(1.0, 10.0), (2.0, 13.0)]);
    }

    #[test]
    fn pairs_since_returns_strict_suffix() {
        let mut s = Series::new(8);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 10.0);
        }
        assert_eq!(s.pairs_since(f64::NEG_INFINITY), s.to_pairs());
        assert_eq!(s.pairs_since(2.0), vec![(3.0, 30.0), (4.0, 40.0)]);
        assert_eq!(s.pairs_since(4.0), vec![]);
        assert_eq!(s.pairs_since(100.0), vec![]);
    }
}
