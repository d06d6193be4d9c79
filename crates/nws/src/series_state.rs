//! The one per-series forecasting state machine (paper §2.1): the battery
//! that has observed every point seen so far, and the newest observed
//! timestamp — the delta-fetch watermark.
//!
//! Every plane that forecasts keeps exactly this and nothing else per
//! series: the in-sim [`crate::forecaster::ForecasterServer`] (which adds
//! only where the series is stored and who is waiting on it), its durable
//! log's recovery and replay ([`crate::persist::ForecastLog`]) and the
//! out-of-sim [`crate::serve::ServingPlane`] shards. They all mutate it
//! through `SeriesState::observe` and `SeriesState::rewind` only, so
//! "replay ≡ live" and "plane ≡ sim" hold by construction rather than by
//! three hand-copied loops agreeing.

use crate::forecast::{Forecast, ForecasterBattery};
use crate::wal::{put_f64, put_u32, put_u64, ByteReader};

/// Battery + watermark for one series. Fields are private: the watermark
/// is only ever the timestamp of the last point the battery was fed.
pub struct SeriesState {
    battery: ForecasterBattery,
    last_t: f64,
}

impl SeriesState {
    /// Nothing observed yet: a fresh battery whose watermark admits any
    /// finite timestamp.
    pub(crate) fn fresh() -> Self {
        SeriesState { battery: ForecasterBattery::classic(), last_t: f64::NEG_INFINITY }
    }

    /// Feed one point. Only a point newer than the watermark is observed
    /// (and advances it); duplicates and reordered points are dropped, so
    /// each point counts exactly once however often it is delivered.
    /// Returns whether the point was taken — the durable forecaster logs
    /// exactly those.
    pub(crate) fn observe(&mut self, t: f64, v: f64) -> bool {
        if t > self.last_t {
            self.last_t = t;
            self.battery.observe(v);
            true
        } else {
            false
        }
    }

    /// Forget everything: the series restarts from [`SeriesState::fresh`].
    pub(crate) fn rewind(&mut self) {
        *self = SeriesState::fresh();
    }

    /// True when a store whose newest point is `latest` holds *less* than
    /// this state has already observed — it was restored to an older
    /// state, and the watermark no longer describes it.
    pub(crate) fn restored_older_than(&self, latest: f64) -> bool {
        self.last_t > latest
    }

    pub(crate) fn forecast(&self) -> Option<Forecast> {
        self.battery.forecast()
    }

    pub fn last_t(&self) -> f64 {
        self.last_t
    }

    pub fn battery(&self) -> &ForecasterBattery {
        &self.battery
    }

    /// Snapshot form: `last_t, samples, n, (sq, ab, ns, len, state…)×n`,
    /// every f64 as its bit pattern. Takes the parts rather than `&self`
    /// so [`crate::persist::ForecastLog::compact`] can be handed a state
    /// built independently of this type (the recovery property test's
    /// shadow battery).
    pub(crate) fn encode(b: &mut Vec<u8>, battery: &ForecasterBattery, last_t: f64) {
        put_f64(b, last_t);
        let (sq, ab, ns, samples) = battery.scores();
        let states = battery.save_states();
        put_u64(b, samples);
        put_u32(b, states.len() as u32);
        for (i, state) in states.iter().enumerate() {
            put_f64(b, sq[i]);
            put_f64(b, ab[i]);
            put_u64(b, ns[i]);
            put_u32(b, state.len() as u32);
            for &v in state {
                put_f64(b, v);
            }
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let last_t = r.f64()?;
        let samples = r.u64()?;
        let n = r.u32()? as usize;
        // A count the bytes left cannot back must not size a reservation;
        // a predictor's entry is at least `sq, ab, ns, len` = 28 bytes.
        let cap = n.min(r.remaining() / 28);
        let mut sq = Vec::with_capacity(cap);
        let mut ab = Vec::with_capacity(cap);
        let mut ns = Vec::with_capacity(cap);
        let mut states = Vec::with_capacity(cap);
        for _ in 0..n {
            sq.push(r.f64()?);
            ab.push(r.f64()?);
            ns.push(r.u64()?);
            let len = r.u32()? as usize;
            let mut state = Vec::with_capacity(len.min(r.remaining() / 8));
            for _ in 0..len {
                state.push(r.f64()?);
            }
            states.push(state);
        }
        let mut battery = ForecasterBattery::classic();
        battery.restore_states(&states);
        battery.restore_scores(&sq, &ab, &ns, samples);
        Some(SeriesState { battery, last_t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(s: &SeriesState) -> Vec<u8> {
        let mut b = Vec::new();
        SeriesState::encode(&mut b, s.battery(), s.last_t());
        b
    }

    fn points() -> Vec<(f64, f64)> {
        (1..=40).map(|i| (f64::from(i), 40.0 + f64::from(i % 7) * 1.5)).collect()
    }

    #[test]
    fn duplicate_and_out_of_order_points_are_dropped() {
        let mut s = SeriesState::fresh();
        assert!(s.observe(1.0, 10.0));
        assert!(s.observe(3.0, 11.0));
        assert!(!s.observe(3.0, 99.0), "duplicate timestamp");
        assert!(!s.observe(2.0, 99.0), "older than the watermark");
        assert_eq!(s.last_t(), 3.0);
        assert_eq!(s.battery().samples(), 2);
        assert!(s.restored_older_than(2.0));
        assert!(!s.restored_older_than(3.0));

        let mut oracle = ForecasterBattery::classic();
        oracle.observe_all([10.0, 11.0]);
        assert_eq!(s.forecast(), oracle.forecast());
    }

    #[test]
    fn rewind_then_reobserve_equals_a_fresh_core() {
        let mut rewound = SeriesState::fresh();
        for (t, v) in points() {
            rewound.observe(t + 100.0, v * 2.0);
        }
        rewound.rewind();
        assert_eq!(rewound.last_t(), f64::NEG_INFINITY);
        let mut fresh = SeriesState::fresh();
        for (t, v) in points() {
            assert!(rewound.observe(t, v), "a rewound core takes older points again");
            fresh.observe(t, v);
        }
        assert_eq!(bits(&rewound), bits(&fresh));
    }

    #[test]
    fn codec_round_trip_reencodes_to_identical_bytes() {
        let mut s = SeriesState::fresh();
        for (t, v) in points() {
            s.observe(t, v);
        }
        let image = bits(&s);
        let mut r = ByteReader::new(&image);
        let decoded = SeriesState::decode(&mut r).expect("decodes");
        assert!(r.done());
        assert_eq!(bits(&decoded), image);
        assert_eq!(decoded.forecast(), s.forecast());
        // A truncated image is rejected, never half-applied.
        assert!(SeriesState::decode(&mut ByteReader::new(&image[..image.len() - 1])).is_none());
        // The empty state round-trips too (−∞ rides as its bit pattern).
        let empty = bits(&SeriesState::fresh());
        let back = SeriesState::decode(&mut ByteReader::new(&empty)).expect("decodes");
        assert_eq!(bits(&back), empty);
    }

    #[test]
    fn a_hostile_predictor_count_is_refused_without_reserving_for_it() {
        // `last_t`, `samples`, then u32::MAX predictors (4 × 32 GiB to
        // reserve) with twelve bytes behind them.
        let mut image = Vec::new();
        put_f64(&mut image, 1.0);
        put_u64(&mut image, 3);
        put_u32(&mut image, u32::MAX);
        image.extend_from_slice(&[0; 12]);
        assert!(SeriesState::decode(&mut ByteReader::new(&image)).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary and corrupted bytes decode to a state or `None`, never
        /// a panic or an abort; a valid image re-encodes to itself, and
        /// every strict prefix of it is refused.
        #[test]
        fn decode_never_panics_and_round_trips(
            noise in collection::vec(0u8..=255, 0..64),
            points in collection::vec((0.0f64..1e3, -1e3f64..1e3), 0..48),
            at in 0usize..1 << 16,
        ) {
            let _ = SeriesState::decode(&mut ByteReader::new(&noise));
            let mut s = SeriesState::fresh();
            for (t, v) in points {
                s.observe(t, v);
            }
            let image = bits(&s);
            let back = SeriesState::decode(&mut ByteReader::new(&image)).map(|b| bits(&b));
            prop_assert_eq!(back.as_ref(), Some(&image));
            for cut in 0..image.len() {
                prop_assert!(SeriesState::decode(&mut ByteReader::new(&image[..cut])).is_none());
            }
            let mut spliced = image;
            let at = at % spliced.len();
            let end = (at + noise.len()).min(spliced.len());
            spliced[at..end].copy_from_slice(&noise[..end - at]);
            let _ = SeriesState::decode(&mut ByteReader::new(&spliced));
        }
    }
}
