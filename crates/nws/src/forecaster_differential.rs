//! Differential property suite: the incremental predictor battery against
//! the naive replay oracle (`ForecasterBattery::classic_naive`), over
//! random series with shuffled window sizes — the forecasting analogue of
//! the fairness engine's `max_min_allocate` differential tests.
//!
//! Equality contracts (see `nws::forecast` module docs):
//!
//! * sorted-window predictors (`MEDIAN`, `TRIM_MEAN`) — **bit-identical**;
//! * mean accumulators (`RUN_AVG` Welford, `ADAPT_AVG` running sum) —
//!   within 1e-9 relative;
//! * battery forecasts — same winner names, values/errors within 1e-9
//!   relative, same sample count, including streams with injected
//!   non-finite values (both batteries sanitize identically).

use crate::forecast::naive::{
    NaiveAdaptiveMean, NaiveRunningMean, NaiveSlidingMedian, NaiveTrimmedMean,
};
use crate::forecast::{AdaptiveMean, Predictor, RunningMean, SlidingMedian, TrimmedMean};
use crate::ForecasterBattery;
use proptest::prelude::*;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

// A measurement-flavoured random series: mixes magnitudes and duplicates
// (quantized values force equal-key handling in the sorted windows).
prop_compose! {
    fn arb_series(min_len: usize, max_len: usize)(
        len in min_len..max_len,
        scale in prop_oneof![Just(1.0f64), Just(1e3), Just(1e-3)],
        quantize in proptest::bool::ANY,
        raw in proptest::collection::vec(0.0f64..100.0, max_len),
    ) -> Vec<f64> {
        raw[..len]
            .iter()
            .map(|v| {
                let v = if quantize { (v * 4.0).floor() / 4.0 } else { *v };
                v * scale
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sliding_median_is_bit_identical_to_naive(
        k in 1usize..40,
        series in arb_series(1, 300),
    ) {
        let mut inc = SlidingMedian::new(k);
        let mut naive = NaiveSlidingMedian::new(k);
        for (i, v) in series.iter().enumerate() {
            inc.observe(*v);
            naive.observe(*v);
            prop_assert_eq!(inc.predict(), naive.predict(), "k={} step={}", k, i);
        }
    }

    #[test]
    fn trimmed_mean_is_bit_identical_to_naive(
        k in 1usize..40,
        trim in 0.0f64..0.5,
        series in arb_series(1, 300),
    ) {
        let mut inc = TrimmedMean::new(k, trim);
        let mut naive = NaiveTrimmedMean::new(k, trim);
        for (i, v) in series.iter().enumerate() {
            inc.observe(*v);
            naive.observe(*v);
            prop_assert_eq!(inc.predict(), naive.predict(), "k={} trim={} step={}", k, trim, i);
        }
    }

    #[test]
    fn running_and_adaptive_means_agree_with_naive(
        jump in 0.1f64..2.0,
        series in arb_series(1, 400),
    ) {
        let mut run = RunningMean::default();
        let mut run_naive = NaiveRunningMean::default();
        let mut ad = AdaptiveMean::new(jump);
        let mut ad_naive = NaiveAdaptiveMean::new(jump);
        for (i, v) in series.iter().enumerate() {
            run.observe(*v);
            run_naive.observe(*v);
            ad.observe(*v);
            ad_naive.observe(*v);
            let (a, b) = (run.predict().unwrap(), run_naive.predict().unwrap());
            prop_assert!(close(a, b, 1e-9), "RUN_AVG step {}: {} vs {}", i, a, b);
            let (a, b) = (ad.predict().unwrap(), ad_naive.predict().unwrap());
            prop_assert!(close(a, b, 1e-9), "ADAPT_AVG step {}: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn battery_matches_naive_replay(
        series in arb_series(64, 600),
        nan_every in proptest::option::of(7usize..40),
    ) {
        // Optionally pepper the stream with non-finite values: both
        // batteries must sanitize them identically, so the forecast over
        // the polluted stream equals the forecast over the clean one.
        let polluted: Vec<f64> = series
            .iter()
            .enumerate()
            .flat_map(|(i, v)| {
                let junk = match nan_every {
                    Some(n) if i % n == n - 1 => {
                        Some(if i % 2 == 0 { f64::NAN } else { f64::INFINITY })
                    }
                    _ => None,
                };
                junk.into_iter().chain(std::iter::once(*v))
            })
            .collect();

        let mut inc = ForecasterBattery::classic();
        inc.observe_all(polluted.iter().copied());
        let mut naive = ForecasterBattery::classic_naive();
        naive.observe_all(series.iter().copied());

        let fi = inc.forecast().expect("incremental forecast");
        let fr = naive.forecast().expect("naive replay forecast");
        prop_assert_eq!(&fi.method, &fr.method, "mse winner");
        prop_assert_eq!(&fi.mae_method, &fr.mae_method, "mae winner");
        prop_assert_eq!(fi.samples, fr.samples, "sanitized sample count");
        prop_assert!(close(fi.value, fr.value, 1e-9), "value {} vs {}", fi.value, fr.value);
        prop_assert!(
            close(fi.mae_value, fr.mae_value, 1e-9),
            "mae value {} vs {}",
            fi.mae_value,
            fr.mae_value
        );
        prop_assert!(close(fi.rmse, fr.rmse, 1e-9), "rmse {} vs {}", fi.rmse, fr.rmse);
        prop_assert!(close(fi.mae, fr.mae, 1e-9), "mae {} vs {}", fi.mae, fr.mae);
    }
}

#[test]
fn battery_error_tables_match_naive() {
    // Deterministic spot check over every predictor's accumulated errors:
    // the differential contract extends beyond the winner to the whole
    // error table (the data behind dynamic predictor selection).
    let mut inc = ForecasterBattery::classic();
    let mut naive = ForecasterBattery::classic_naive();
    let mut x = 50.0f64;
    let mut s = 0x2a2au64;
    let series: Vec<f64> = (0..700)
        .map(|i| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
            x += u;
            if i % 97 == 96 {
                x * 10.0
            } else {
                x
            }
        })
        .collect();
    inc.observe_all(series.iter().copied());
    naive.observe_all(series.iter().copied());

    let (ti, tn) = (inc.error_table(), naive.error_table());
    assert_eq!(ti.len(), tn.len());
    for ((ni, mi, ai), (nn, mn, an)) in ti.iter().zip(&tn) {
        assert_eq!(ni, nn);
        assert!((mi - mn).abs() <= 1e-9 * mi.abs().max(1.0), "{ni}: mse {mi} vs {mn}");
        assert!((ai - an).abs() <= 1e-9 * ai.abs().max(1.0), "{ni}: mae {ai} vs {an}");
    }

    let (fi, fn2) = (inc.forecast().unwrap(), naive.forecast().unwrap());
    assert_eq!(fi.method, fn2.method);
    assert_eq!(fi.mae_method, fn2.mae_method);
    assert!((fi.value - fn2.value).abs() <= 1e-9 * fi.value.abs().max(1.0));
    assert!((fi.rmse - fn2.rmse).abs() <= 1e-9 * fi.rmse.abs().max(1.0));
    assert!((fi.mae - fn2.mae).abs() <= 1e-9 * fi.mae.abs().max(1.0));
}
