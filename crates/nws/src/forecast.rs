//! The NWS forecaster battery: "statistical forecasters allowing to ...
//! predict the future evolutions" (paper §2).
//!
//! The real NWS runs a family of cheap predictors side by side on every
//! series; at each step every predictor guesses the next value, its error
//! is accumulated, and the *battery* reports the prediction of whichever
//! predictor currently has the lowest cumulative error (dynamic predictor
//! selection, Wolski et al., the paper's reference 22). We implement the
//! classic family:
//!
//! * `LAST` — last value;
//! * `RUN_AVG` — running mean of everything seen;
//! * `SW_AVG(k)` — sliding-window mean, several window sizes;
//! * `MEDIAN(k)` — sliding-window median;
//! * `TRIM_MEAN(k, α)` — sliding trimmed mean;
//! * `EXP_SMOOTH(g)` — exponential smoothing, several gains;
//! * `ADAPT_AVG` — mean over an adaptive window that resets on jumps;
//! * `HOLT(α,β)` — Holt's linear level+trend method (extrapolates ramps).
//!
//! Selection can minimise MSE or MAE; both winners are reported.
//!
//! ## Incremental predictors and the replay oracle
//!
//! Every predictor here is **incremental**: `observe` is O(log k) in the
//! window size (the order statistics live in a [`SortedWindow`] maintained
//! under `f64::total_cmp`) and `predict` never replays or re-sorts history.
//! The pre-incremental implementations survive in `naive`, compiled for
//! tests only — they are the differential-test oracle (the same role
//! `max_min_allocate` plays for the fairness engine), not production code.
//! The sorted-window predictors are *bit-identical* to their naive
//! counterparts: total-order-equal `f64`s are bit-equal, so the maintained
//! sorted sequence is exactly the sequence the oracle's per-predict sort
//! produces, and every downstream arithmetic consumes it in the same
//! order. `RUN_AVG` (Welford) and `ADAPT_AVG` (running sum) trade
//! bit-identity for numerical stability and O(1) predicts; they agree
//! with their oracles to ~1e-9 relative.
//!
//! The battery rejects non-finite observations outright, so a NaN that
//! escapes a sensor can never reach a predictor (the panic chain this
//! guards against: `Series::push` used to `debug_assert!` finiteness while
//! the median sort `expect`ed it — one bad stored sample panicked the
//! forecaster in release builds).

use std::collections::VecDeque;

/// An order-maintained sliding window: the arrival ring pairs with a
/// mirror sorted under `f64::total_cmp`. Insert/evict cost O(log k)
/// comparisons plus a word-level `memmove` within the window — for NWS
/// window sizes (k ≤ 31) this beats a two-heap/skip-list structure by a
/// wide margin while giving O(1) order statistics at predict time.
#[derive(Debug, Clone, Default)]
pub struct SortedWindow {
    arrivals: VecDeque<f64>,
    sorted: Vec<f64>,
    k: usize,
}

impl SortedWindow {
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0);
        SortedWindow { arrivals: VecDeque::with_capacity(k), sorted: Vec::with_capacity(k), k }
    }

    /// Insert `value`, evicting the oldest entry once the window is full.
    /// Total-order-equal values are bit-equal, so the eviction removes
    /// exactly the bits the arrival ring drops and the sorted mirror stays
    /// a faithful permutation of the window.
    pub(crate) fn push(&mut self, value: f64) {
        if self.arrivals.len() == self.k {
            let old = self.arrivals.pop_front().expect("non-empty");
            let i = self.sorted.partition_point(|x| x.total_cmp(&old).is_lt());
            debug_assert!(self.sorted[i].total_cmp(&old).is_eq());
            self.sorted.remove(i);
        }
        self.arrivals.push_back(value);
        let i = self.sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        self.sorted.insert(i, value);
    }

    /// The window in ascending `total_cmp` order.
    pub(crate) fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// The window in arrival order — the persisted form. A restore
    /// re-pushes the arrivals into a fresh window: the sorted mirror is a
    /// deterministic function of the arrival sequence (bit-equal values
    /// insert at bit-equal positions under `total_cmp`), so the rebuilt
    /// window is bit-identical to the saved one.
    pub(crate) fn arrivals(&self) -> impl Iterator<Item = f64> + '_ {
        self.arrivals.iter().copied()
    }
}

/// A single prediction method.
pub trait Predictor {
    /// Feed the next observed value.
    fn observe(&mut self, value: f64);
    /// Predict the next value, if enough data has been seen.
    fn predict(&self) -> Option<f64>;
    fn name(&self) -> &str;

    /// Serialize the internal state into a flat `f64` vector, the inverse
    /// of [`Predictor::restore`]. Counters ride along as raw bit patterns
    /// (`f64::from_bits`) so the round trip is exact for any value; the
    /// persistence layer ships the vector through `to_bits`, so every
    /// word survives bit-for-bit. The default saves nothing — fine for
    /// the naive oracle family, which is never persisted; every deployed
    /// predictor overrides both methods.
    fn save(&self, _out: &mut Vec<f64>) {}

    /// Rebuild internal state from a [`Predictor::save`] vector. Must be
    /// exact: a restored predictor continues the stream bit-identically
    /// to one that never stopped. A short/garbled vector (impossible
    /// after checksum verification, but decoders stay total) leaves the
    /// predictor empty rather than panicking.
    fn restore(&mut self, _state: &[f64]) {}
}

/// `u64` ↔ `f64` bit-pattern bridge for counters inside saved state.
fn bits(v: u64) -> f64 {
    f64::from_bits(v)
}

fn unbits(v: f64) -> u64 {
    v.to_bits()
}

/// Last observed value.
#[derive(Debug, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl Predictor for LastValue {
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
    fn name(&self) -> &str {
        "LAST"
    }
    fn save(&self, out: &mut Vec<f64>) {
        match self.last {
            Some(v) => out.extend_from_slice(&[1.0, v]),
            None => out.push(0.0),
        }
    }
    fn restore(&mut self, state: &[f64]) {
        self.last = if state.first() == Some(&1.0) { state.get(1).copied() } else { None };
    }
}

/// Running mean of all observations, maintained Welford-style: the mean is
/// updated in place instead of accumulating an unbounded `sum`, so a
/// months-long measurement stream cannot lose precision to a sum that has
/// grown many orders of magnitude past the individual samples.
#[derive(Debug, Default)]
pub struct RunningMean {
    mean: f64,
    n: u64,
}

impl Predictor for RunningMean {
    fn observe(&mut self, value: f64) {
        self.n += 1;
        self.mean += (value - self.mean) / self.n as f64;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }
    fn name(&self) -> &str {
        "RUN_AVG"
    }
    fn save(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&[self.mean, bits(self.n)]);
    }
    fn restore(&mut self, state: &[f64]) {
        self.mean = state.first().copied().unwrap_or(0.0);
        self.n = state.get(1).copied().map_or(0, unbits);
    }
}

/// Sliding-window mean.
#[derive(Debug)]
pub struct SlidingMean {
    window: VecDeque<f64>,
    k: usize,
    sum: f64,
    name: String,
}

impl SlidingMean {
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0);
        SlidingMean {
            window: VecDeque::with_capacity(k),
            k,
            sum: 0.0,
            name: format!("SW_AVG({k})"),
        }
    }
}

impl Predictor for SlidingMean {
    fn observe(&mut self, value: f64) {
        if self.window.len() == self.k {
            self.sum -= self.window.pop_front().expect("non-empty");
        }
        self.window.push_back(value);
        self.sum += value;
    }
    fn predict(&self) -> Option<f64> {
        (!self.window.is_empty()).then(|| self.sum / self.window.len() as f64)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn save(&self, out: &mut Vec<f64>) {
        // The incrementally maintained `sum` is saved verbatim (not
        // recomputed) so the restored accumulator carries the exact same
        // add/subtract rounding history as the live one.
        out.push(self.sum);
        out.extend(self.window.iter());
    }
    fn restore(&mut self, state: &[f64]) {
        self.sum = state.first().copied().unwrap_or(0.0);
        self.window = state.get(1..).unwrap_or_default().iter().copied().collect();
    }
}

/// Sliding-window median over a [`SortedWindow`]: O(log k) observe, O(1)
/// predict — the pre-incremental version re-sorted the window on every
/// prediction, i.e. on every battery observation.
#[derive(Debug)]
pub struct SlidingMedian {
    window: SortedWindow,
    name: String,
}

impl SlidingMedian {
    pub(crate) fn new(k: usize) -> Self {
        SlidingMedian { window: SortedWindow::new(k), name: format!("MEDIAN({k})") }
    }
}

impl Predictor for SlidingMedian {
    fn observe(&mut self, value: f64) {
        self.window.push(value);
    }
    fn predict(&self) -> Option<f64> {
        let v = self.window.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn save(&self, out: &mut Vec<f64>) {
        out.extend(self.window.arrivals());
    }
    fn restore(&mut self, state: &[f64]) {
        let mut w = SortedWindow::new(self.window.k);
        for &v in state {
            w.push(v);
        }
        self.window = w;
    }
}

/// Sliding trimmed mean: drop the `trim` smallest and largest fractions.
/// Observation maintains the [`SortedWindow`]; predict sums the kept slice
/// left-to-right (at most k ≤ 31 adds), in the exact order the naive
/// oracle's post-sort sum uses, so the result is bit-identical.
#[derive(Debug)]
pub struct TrimmedMean {
    window: SortedWindow,
    trim: f64,
    name: String,
}

impl TrimmedMean {
    pub(crate) fn new(k: usize, trim: f64) -> Self {
        assert!((0.0..0.5).contains(&trim));
        TrimmedMean { window: SortedWindow::new(k), trim, name: format!("TRIM_MEAN({k},{trim})") }
    }
}

impl Predictor for TrimmedMean {
    fn observe(&mut self, value: f64) {
        self.window.push(value);
    }
    fn predict(&self) -> Option<f64> {
        let v = self.window.sorted();
        if v.is_empty() {
            return None;
        }
        let cut = ((v.len() as f64) * self.trim).floor() as usize;
        let kept = &v[cut..v.len() - cut];
        if kept.is_empty() {
            return Some(v[v.len() / 2]);
        }
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn save(&self, out: &mut Vec<f64>) {
        out.extend(self.window.arrivals());
    }
    fn restore(&mut self, state: &[f64]) {
        let mut w = SortedWindow::new(self.window.k);
        for &v in state {
            w.push(v);
        }
        self.window = w;
    }
}

/// Exponential smoothing with gain `g`.
#[derive(Debug)]
pub struct ExpSmooth {
    state: Option<f64>,
    gain: f64,
    name: String,
}

impl ExpSmooth {
    pub(crate) fn new(gain: f64) -> Self {
        assert!((0.0..=1.0).contains(&gain));
        ExpSmooth { state: None, gain, name: format!("EXP_SMOOTH({gain})") }
    }
}

impl Predictor for ExpSmooth {
    fn observe(&mut self, value: f64) {
        self.state = Some(match self.state {
            Some(s) => s + self.gain * (value - s),
            None => value,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn save(&self, out: &mut Vec<f64>) {
        match self.state {
            Some(s) => out.extend_from_slice(&[1.0, s]),
            None => out.push(0.0),
        }
    }
    fn restore(&mut self, state: &[f64]) {
        self.state = if state.first() == Some(&1.0) { state.get(1).copied() } else { None };
    }
}

/// Holt's linear method: exponentially smoothed level plus trend — the
/// only battery member that extrapolates a slope, so it wins on steadily
/// ramping series (e.g. a link saturating as a long transfer grows).
#[derive(Debug)]
pub struct HoltLinear {
    level: Option<f64>,
    trend: f64,
    alpha: f64,
    beta: f64,
    name: String,
}

impl HoltLinear {
    pub(crate) fn new(alpha: f64, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
        HoltLinear { level: None, trend: 0.0, alpha, beta, name: format!("HOLT({alpha},{beta})") }
    }
}

impl Predictor for HoltLinear {
    fn observe(&mut self, value: f64) {
        match self.level {
            None => self.level = Some(value),
            Some(prev_level) => {
                let level = self.alpha * value + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }
    fn predict(&self) -> Option<f64> {
        self.level.map(|l| l + self.trend)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn save(&self, out: &mut Vec<f64>) {
        match self.level {
            Some(l) => out.extend_from_slice(&[1.0, l, self.trend]),
            None => out.push(0.0),
        }
    }
    fn restore(&mut self, state: &[f64]) {
        if state.first() == Some(&1.0) {
            self.level = state.get(1).copied();
            self.trend = state.get(2).copied().unwrap_or(0.0);
        } else {
            self.level = None;
            self.trend = 0.0;
        }
    }
}

/// Mean over an adaptive window that resets when a value jumps by more
/// than `jump` relative to the current mean — tracks regime changes faster
/// than a fixed window. The window is a `VecDeque` with a running sum
/// (O(1) observe/predict); the pre-incremental version `Vec::remove(0)`d
/// the front — an O(n) shift on every warm observation — and re-summed all
/// 256 points per predict. A regime reset re-zeroes the accumulator, and
/// because a jump-free stream would otherwise accumulate add/subtract
/// rounding forever, the sum is also recomputed exactly from the window
/// every `AdaptiveMean::RESUM_INTERVAL` observations (amortised O(1)),
/// bounding drift on arbitrarily long steady streams.
#[derive(Debug)]
pub struct AdaptiveMean {
    window: VecDeque<f64>,
    sum: f64,
    jump: f64,
    since_resum: u32,
}

impl AdaptiveMean {
    /// Window bound: an adaptive window longer than this behaves like the
    /// running mean anyway.
    pub(crate) const MAX_WINDOW: usize = 256;

    /// Observations between exact re-sums of the window.
    pub(crate) const RESUM_INTERVAL: u32 = 4096;

    pub(crate) fn new(jump: f64) -> Self {
        assert!(jump > 0.0);
        AdaptiveMean { window: VecDeque::new(), sum: 0.0, jump, since_resum: 0 }
    }
}

impl Predictor for AdaptiveMean {
    fn observe(&mut self, value: f64) {
        if let Some(mean) = self.predict() {
            let denom = mean.abs().max(1e-12);
            if ((value - mean).abs() / denom) > self.jump {
                self.window.clear();
                self.sum = 0.0;
                self.since_resum = 0;
            }
        }
        self.window.push_back(value);
        self.sum += value;
        if self.window.len() > Self::MAX_WINDOW {
            self.sum -= self.window.pop_front().expect("non-empty");
        }
        self.since_resum += 1;
        if self.since_resum >= Self::RESUM_INTERVAL {
            // Same left-to-right order as the naive oracle's per-predict
            // sum, so a re-sum pulls the accumulator back onto its value.
            self.sum = self.window.iter().sum();
            self.since_resum = 0;
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.sum / self.window.len() as f64)
    }
    fn name(&self) -> &str {
        "ADAPT_AVG"
    }
    fn save(&self, out: &mut Vec<f64>) {
        // `sum` verbatim (accumulator rounding history) and the re-sum
        // countdown, so the periodic exact re-sum fires at the same
        // observation index it would have without the restart.
        out.extend_from_slice(&[self.sum, bits(self.since_resum as u64)]);
        out.extend(self.window.iter());
    }
    fn restore(&mut self, state: &[f64]) {
        self.sum = state.first().copied().unwrap_or(0.0);
        self.since_resum = state.get(1).copied().map_or(0, |v| unbits(v) as u32);
        self.window = state.get(2..).unwrap_or_default().iter().copied().collect();
    }
}

/// The pre-incremental predictor implementations, kept verbatim as the
/// differential-test oracle (mirroring `max_min_allocate` in the fairness
/// engine): replaying a series through these must match the incremental
/// predictors — bit-identically for the sorted-window pair, to ~1e-9 for
/// the two mean accumulators. Their window sorts use `total_cmp` (never
/// the old `partial_cmp().expect("finite")`), so even a hostile NaN fed
/// directly to a naive predictor ranks instead of panicking.
#[cfg(test)]
pub(crate) mod naive {
    use super::Predictor;
    use std::collections::VecDeque;

    /// `RUN_AVG` as an unbounded sum — the accumulator whose precision
    /// loss on long streams motivated the Welford rewrite.
    #[derive(Debug, Default)]
    pub struct NaiveRunningMean {
        sum: f64,
        n: u64,
    }

    impl Predictor for NaiveRunningMean {
        fn observe(&mut self, value: f64) {
            self.sum += value;
            self.n += 1;
        }
        fn predict(&self) -> Option<f64> {
            (self.n > 0).then(|| self.sum / self.n as f64)
        }
        fn name(&self) -> &str {
            "RUN_AVG"
        }
    }

    /// `MEDIAN(k)` re-sorting its window on every predict.
    #[derive(Debug)]
    pub struct NaiveSlidingMedian {
        window: VecDeque<f64>,
        k: usize,
        name: String,
    }

    impl NaiveSlidingMedian {
        pub(crate) fn new(k: usize) -> Self {
            assert!(k > 0);
            NaiveSlidingMedian {
                window: VecDeque::with_capacity(k),
                k,
                name: format!("MEDIAN({k})"),
            }
        }
    }

    impl Predictor for NaiveSlidingMedian {
        fn observe(&mut self, value: f64) {
            if self.window.len() == self.k {
                self.window.pop_front();
            }
            self.window.push_back(value);
        }
        fn predict(&self) -> Option<f64> {
            if self.window.is_empty() {
                return None;
            }
            let mut v: Vec<f64> = self.window.iter().copied().collect();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
        }
        fn name(&self) -> &str {
            &self.name
        }
    }

    /// `TRIM_MEAN(k,α)` re-sorting its window on every predict.
    #[derive(Debug)]
    pub struct NaiveTrimmedMean {
        window: VecDeque<f64>,
        k: usize,
        trim: f64,
        name: String,
    }

    impl NaiveTrimmedMean {
        pub(crate) fn new(k: usize, trim: f64) -> Self {
            assert!(k > 0 && (0.0..0.5).contains(&trim));
            NaiveTrimmedMean {
                window: VecDeque::with_capacity(k),
                k,
                trim,
                name: format!("TRIM_MEAN({k},{trim})"),
            }
        }
    }

    impl Predictor for NaiveTrimmedMean {
        fn observe(&mut self, value: f64) {
            if self.window.len() == self.k {
                self.window.pop_front();
            }
            self.window.push_back(value);
        }
        fn predict(&self) -> Option<f64> {
            if self.window.is_empty() {
                return None;
            }
            let mut v: Vec<f64> = self.window.iter().copied().collect();
            v.sort_by(f64::total_cmp);
            let cut = ((v.len() as f64) * self.trim).floor() as usize;
            let kept = &v[cut..v.len() - cut];
            if kept.is_empty() {
                return Some(v[v.len() / 2]);
            }
            Some(kept.iter().sum::<f64>() / kept.len() as f64)
        }
        fn name(&self) -> &str {
            &self.name
        }
    }

    /// `ADAPT_AVG` with the O(n) `Vec::remove(0)` front-shift and a full
    /// re-sum per predict.
    #[derive(Debug)]
    pub struct NaiveAdaptiveMean {
        window: Vec<f64>,
        jump: f64,
    }

    impl NaiveAdaptiveMean {
        pub(crate) fn new(jump: f64) -> Self {
            assert!(jump > 0.0);
            NaiveAdaptiveMean { window: Vec::new(), jump }
        }
    }

    impl Predictor for NaiveAdaptiveMean {
        fn observe(&mut self, value: f64) {
            if let Some(mean) = self.predict() {
                let denom = mean.abs().max(1e-12);
                if ((value - mean).abs() / denom) > self.jump {
                    self.window.clear();
                }
            }
            self.window.push(value);
            if self.window.len() > super::AdaptiveMean::MAX_WINDOW {
                self.window.remove(0);
            }
        }
        fn predict(&self) -> Option<f64> {
            if self.window.is_empty() {
                return None;
            }
            Some(self.window.iter().sum::<f64>() / self.window.len() as f64)
        }
        fn name(&self) -> &str {
            "ADAPT_AVG"
        }
    }
}

/// A produced forecast with its provenance and error estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// The reported prediction (from the MSE winner).
    pub value: f64,
    /// Name of the predictor that produced it.
    pub method: String,
    /// Root of the winner's cumulative mean squared error.
    pub rmse: f64,
    /// The MAE winner's prediction (NWS reports both).
    pub mae_value: f64,
    pub mae_method: String,
    pub mae: f64,
    /// Number of observations behind this forecast.
    pub samples: u64,
    /// True when the forecaster could not reach the series' memory and
    /// served its last-known battery state instead of a fresh delta — the
    /// caller gets a prediction (better than an error during an outage)
    /// but is told its provenance.
    pub stale: bool,
}

/// The racing battery: every predictor forecasts each next value, errors
/// accumulate, the current winner answers queries.
pub struct ForecasterBattery {
    predictors: Vec<Box<dyn Predictor + Send>>,
    sq_err: Vec<f64>,
    abs_err: Vec<f64>,
    n_scored: Vec<u64>,
    samples: u64,
}

impl Default for ForecasterBattery {
    fn default() -> Self {
        Self::classic()
    }
}

impl ForecasterBattery {
    /// The classic NWS family.
    pub fn classic() -> Self {
        let predictors: Vec<Box<dyn Predictor + Send>> = vec![
            Box::new(LastValue::default()),
            Box::new(RunningMean::default()),
            Box::new(SlidingMean::new(5)),
            Box::new(SlidingMean::new(11)),
            Box::new(SlidingMean::new(21)),
            Box::new(SlidingMean::new(31)),
            Box::new(SlidingMedian::new(5)),
            Box::new(SlidingMedian::new(11)),
            Box::new(SlidingMedian::new(21)),
            Box::new(SlidingMedian::new(31)),
            Box::new(TrimmedMean::new(31, 0.3)),
            Box::new(ExpSmooth::new(0.05)),
            Box::new(ExpSmooth::new(0.1)),
            Box::new(ExpSmooth::new(0.25)),
            Box::new(ExpSmooth::new(0.5)),
            Box::new(ExpSmooth::new(0.75)),
            Box::new(ExpSmooth::new(0.9)),
            Box::new(AdaptiveMean::new(0.5)),
            Box::new(HoltLinear::new(0.5, 0.3)),
            Box::new(HoltLinear::new(0.8, 0.5)),
        ];
        Self::with_predictors(predictors)
    }

    /// The classic family built from the pre-incremental `naive`
    /// predictors, predictor-for-predictor in the same order and with the
    /// same names — the replay oracle for the differential suite. Never
    /// deployed: every query through `ForecasterServer` uses `classic`.
    #[cfg(test)]
    pub(crate) fn classic_naive() -> Self {
        use naive::*;
        let predictors: Vec<Box<dyn Predictor + Send>> = vec![
            Box::new(LastValue::default()),
            Box::new(NaiveRunningMean::default()),
            Box::new(SlidingMean::new(5)),
            Box::new(SlidingMean::new(11)),
            Box::new(SlidingMean::new(21)),
            Box::new(SlidingMean::new(31)),
            Box::new(NaiveSlidingMedian::new(5)),
            Box::new(NaiveSlidingMedian::new(11)),
            Box::new(NaiveSlidingMedian::new(21)),
            Box::new(NaiveSlidingMedian::new(31)),
            Box::new(NaiveTrimmedMean::new(31, 0.3)),
            Box::new(ExpSmooth::new(0.05)),
            Box::new(ExpSmooth::new(0.1)),
            Box::new(ExpSmooth::new(0.25)),
            Box::new(ExpSmooth::new(0.5)),
            Box::new(ExpSmooth::new(0.75)),
            Box::new(ExpSmooth::new(0.9)),
            Box::new(NaiveAdaptiveMean::new(0.5)),
            Box::new(HoltLinear::new(0.5, 0.3)),
            Box::new(HoltLinear::new(0.8, 0.5)),
        ];
        Self::with_predictors(predictors)
    }

    pub(crate) fn with_predictors(predictors: Vec<Box<dyn Predictor + Send>>) -> Self {
        let n = predictors.len();
        assert!(n > 0, "battery needs at least one predictor");
        ForecasterBattery {
            predictors,
            sq_err: vec![0.0; n],
            abs_err: vec![0.0; n],
            n_scored: vec![0; n],
            samples: 0,
        }
    }

    /// Feed one observation: score every predictor's standing prediction
    /// against it, then update them. Non-finite values are dropped here —
    /// the last line of defence behind `Series::push` — so no predictor
    /// ever holds a NaN/∞ in its window.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        for (i, p) in self.predictors.iter_mut().enumerate() {
            if let Some(pred) = p.predict() {
                let e = pred - value;
                self.sq_err[i] += e * e;
                self.abs_err[i] += e.abs();
                self.n_scored[i] += 1;
            }
            p.observe(value);
        }
        self.samples += 1;
    }

    /// Replay a whole history (used by forecasters answering queries).
    pub fn observe_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.observe(v);
        }
    }

    fn winner_by(&self, errs: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.predictors.iter().enumerate() {
            if p.predict().is_none() {
                continue;
            }
            // Mean error; unscored predictors rank last among available.
            let mean = if self.n_scored[i] > 0 {
                errs[i] / self.n_scored[i] as f64
            } else {
                f64::INFINITY
            };
            match best {
                Some((_, b)) if b <= mean => {}
                _ => best = Some((i, mean)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// The current forecast, if any data has been seen.
    pub fn forecast(&self) -> Option<Forecast> {
        let mse_i = self.winner_by(&self.sq_err)?;
        let mae_i = self.winner_by(&self.abs_err)?;
        let mse_mean = if self.n_scored[mse_i] > 0 {
            self.sq_err[mse_i] / self.n_scored[mse_i] as f64
        } else {
            0.0
        };
        let mae_mean = if self.n_scored[mae_i] > 0 {
            self.abs_err[mae_i] / self.n_scored[mae_i] as f64
        } else {
            0.0
        };
        Some(Forecast {
            value: self.predictors[mse_i].predict().expect("winner has prediction"),
            method: self.predictors[mse_i].name().to_string(),
            rmse: mse_mean.sqrt(),
            mae_value: self.predictors[mae_i].predict().expect("winner has prediction"),
            mae_method: self.predictors[mae_i].name().to_string(),
            mae: mae_mean,
            samples: self.samples,
            stale: false,
        })
    }

    /// Per-predictor opaque state vectors, in battery order — the
    /// persisted form of the battery (see [`crate::persist`]).
    pub fn save_states(&self) -> Vec<Vec<f64>> {
        self.predictors
            .iter()
            .map(|p| {
                let mut s = Vec::new();
                p.save(&mut s);
                s
            })
            .collect()
    }

    /// Restore predictor states saved from a battery of the same family
    /// (same predictors, same order). Extra or missing vectors are
    /// ignored — a snapshot from a different family restores as much as
    /// positions line up, which for the fixed classic family is all of it.
    pub(crate) fn restore_states(&mut self, states: &[Vec<f64>]) {
        for (p, s) in self.predictors.iter_mut().zip(states) {
            p.restore(s);
        }
    }

    /// The scoring state: `(sq_err, abs_err, n_scored, samples)`.
    pub fn scores(&self) -> (&[f64], &[f64], &[u64], u64) {
        (&self.sq_err, &self.abs_err, &self.n_scored, self.samples)
    }

    /// Restore the scoring state (counterpart of
    /// [`ForecasterBattery::scores`]); slices shorter than the battery
    /// leave the tail at its reset value.
    pub(crate) fn restore_scores(
        &mut self,
        sq_err: &[f64],
        abs_err: &[f64],
        n_scored: &[u64],
        samples: u64,
    ) {
        for (dst, src) in self.sq_err.iter_mut().zip(sq_err) {
            *dst = *src;
        }
        for (dst, src) in self.abs_err.iter_mut().zip(abs_err) {
            *dst = *src;
        }
        for (dst, src) in self.n_scored.iter_mut().zip(n_scored) {
            *dst = *src;
        }
        self.samples = samples;
    }

    /// Mean squared and mean absolute error of every predictor, by name.
    #[cfg(test)]
    pub(crate) fn error_table(&self) -> Vec<(String, f64, f64)> {
        self.predictors
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let n = self.n_scored[i].max(1) as f64;
                (p.name().to_string(), self.sq_err[i] / n, self.abs_err[i] / n)
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn last_value_tracks() {
        let mut p = LastValue::default();
        assert_eq!(p.predict(), None);
        p.observe(3.0);
        p.observe(7.0);
        assert_eq!(p.predict(), Some(7.0));
    }

    #[test]
    fn running_mean() {
        let mut p = RunningMean::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.observe(v);
        }
        assert!((p.predict().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sliding_mean_window() {
        let mut p = SlidingMean::new(2);
        for v in [1.0, 2.0, 10.0] {
            p.observe(v);
        }
        assert!((p.predict().unwrap() - 6.0).abs() < 1e-12);
        assert_eq!(p.name(), "SW_AVG(2)");
    }

    #[test]
    fn sliding_median_odd_even() {
        let mut p = SlidingMedian::new(3);
        p.observe(5.0);
        assert_eq!(p.predict(), Some(5.0));
        p.observe(1.0);
        assert_eq!(p.predict(), Some(3.0)); // even window: midpoint
        p.observe(9.0);
        assert_eq!(p.predict(), Some(5.0));
        p.observe(7.0); // window = [1, 9, 7]
        assert_eq!(p.predict(), Some(7.0));
    }

    #[test]
    fn trimmed_mean_ignores_outliers() {
        let mut p = TrimmedMean::new(5, 0.2);
        for v in [10.0, 10.0, 10.0, 10.0, 1000.0] {
            p.observe(v);
        }
        // One value trimmed from each end: mean of [10, 10, 10].
        assert!((p.predict().unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn exp_smooth_converges() {
        let mut p = ExpSmooth::new(0.5);
        p.observe(0.0);
        for _ in 0..20 {
            p.observe(10.0);
        }
        assert!((p.predict().unwrap() - 10.0).abs() < 0.01);
    }

    #[test]
    fn holt_tracks_linear_trend() {
        let mut p = HoltLinear::new(0.5, 0.3);
        for i in 0..100 {
            p.observe(10.0 + 2.0 * i as f64);
        }
        // Next value would be 10 + 2*100 = 210; Holt should be close.
        let pred = p.predict().unwrap();
        assert!((pred - 210.0).abs() < 2.0, "holt predicted {pred}");
    }

    #[test]
    fn battery_prefers_holt_on_ramps() {
        let mut battery = ForecasterBattery::classic();
        for i in 0..400 {
            battery.observe(5.0 + 0.5 * i as f64);
        }
        let f = battery.forecast().unwrap();
        assert!(
            f.method.starts_with("HOLT"),
            "ramping series should crown Holt, got {} ({:?})",
            f.method,
            battery.error_table().iter().take(3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adaptive_mean_resets_on_jump() {
        let mut p = AdaptiveMean::new(0.5);
        for _ in 0..50 {
            p.observe(100.0);
        }
        // Regime change: 100 → 10.
        p.observe(10.0);
        p.observe(10.0);
        let pred = p.predict().unwrap();
        assert!((pred - 10.0).abs() < 1e-9, "adaptive mean should reset, got {pred}");
    }

    #[test]
    fn battery_picks_last_value_for_random_walk() {
        // On a random walk the last value is the optimal predictor; the
        // battery must figure that out.
        let mut rng = SmallRng::seed_from_u64(42);
        let mut battery = ForecasterBattery::classic();
        let mut x = 50.0;
        for _ in 0..500 {
            x += rng.gen_range(-1.0..1.0);
            battery.observe(x);
        }
        let f = battery.forecast().unwrap();
        assert_eq!(f.method, "LAST", "rmse table: {:?}", battery.error_table());
        assert!((f.value - x).abs() < 1e-9);
        assert_eq!(f.samples, 500);
    }

    #[test]
    fn battery_picks_averaging_for_noisy_constant() {
        // White noise around a constant: means beat LAST by ~√2 in RMSE.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut battery = ForecasterBattery::classic();
        for _ in 0..800 {
            battery.observe(20.0 + rng.gen_range(-5.0..5.0));
        }
        let f = battery.forecast().unwrap();
        assert_ne!(f.method, "LAST");
        assert!((f.value - 20.0).abs() < 1.0, "forecast {f:?}");
    }

    #[test]
    fn battery_adapts_to_regime_change() {
        let mut battery = ForecasterBattery::classic();
        for _ in 0..200 {
            battery.observe(100.0);
        }
        for _ in 0..50 {
            battery.observe(10.0);
        }
        let f = battery.forecast().unwrap();
        assert!(
            (f.value - 10.0).abs() < 5.0,
            "forecast should track the new regime, got {}",
            f.value
        );
    }

    #[test]
    fn empty_battery_has_no_forecast() {
        let battery = ForecasterBattery::classic();
        assert!(battery.forecast().is_none());
        assert_eq!(battery.samples(), 0);
    }

    #[test]
    fn single_observation_forecasts() {
        let mut battery = ForecasterBattery::classic();
        battery.observe(42.0);
        let f = battery.forecast().unwrap();
        assert!((f.value - 42.0).abs() < 1e-12);
    }

    #[test]
    fn error_table_covers_all_predictors() {
        let mut battery = ForecasterBattery::classic();
        battery.observe_all([1.0, 2.0, 3.0]);
        let table = battery.error_table();
        assert_eq!(table.len(), 20);
        assert!(table.iter().any(|(n, _, _)| n == "LAST"));
        assert!(table.iter().any(|(n, _, _)| n == "ADAPT_AVG"));
    }

    #[test]
    fn sorted_window_is_a_sorted_permutation() {
        let mut w = SortedWindow::new(4);
        for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0] {
            w.push(v);
        }
        // Last four arrivals: [5, 9, 2, 6].
        assert_eq!(w.sorted(), &[2.0, 5.0, 6.0, 9.0]);
    }

    #[test]
    fn sorted_window_distinguishes_signed_zero() {
        // total_cmp orders -0.0 < 0.0; eviction must remove the exact bits
        // that leave the arrival ring.
        let mut w = SortedWindow::new(2);
        w.push(0.0);
        w.push(-0.0);
        w.push(1.0); // evicts the +0.0
        assert!(w.sorted()[0].is_sign_negative());
        assert_eq!(w.sorted()[1], 1.0);
    }

    #[test]
    fn welford_running_mean_tracks_exact_sum_mean() {
        // Integer-valued samples keep the naive sum exact; Welford's
        // per-step division rounds, but must stay within a few ulps of
        // the true mean throughout.
        let mut p = RunningMean::default();
        let mut naive = naive::NaiveRunningMean::default();
        for i in 0..1000 {
            let v = ((i * 37) % 101) as f64;
            p.observe(v);
            naive.observe(v);
            let (w, n) = (p.predict().unwrap(), naive.predict().unwrap());
            assert!((w - n).abs() <= 1e-12 * n.abs().max(1.0), "step {i}: {w} vs {n}");
        }
    }

    #[test]
    fn welford_agrees_with_naive_over_mixed_magnitudes() {
        // The satellite contract: 1e6 mixed-magnitude samples, agreement
        // to 1e-9 relative against the unbounded-sum oracle.
        let mut rng = SmallRng::seed_from_u64(2024);
        let mut p = RunningMean::default();
        let mut naive = naive::NaiveRunningMean::default();
        for i in 0..1_000_000u64 {
            let scale = match i % 4 {
                0 => 1e9,
                1 => 1e-3,
                2 => 1.0,
                _ => 1e6,
            };
            let v = scale * rng.gen_range(0.5..1.5);
            p.observe(v);
            naive.observe(v);
        }
        let (w, n) = (p.predict().unwrap(), naive.predict().unwrap());
        assert!((w - n).abs() <= 1e-9 * n.abs().max(1.0), "welford {w} vs naive {n}");
    }

    #[test]
    fn incremental_median_matches_naive_bitwise() {
        let mut rng = SmallRng::seed_from_u64(11);
        for k in [1usize, 2, 5, 11, 31] {
            let mut inc = SlidingMedian::new(k);
            let mut naive = naive::NaiveSlidingMedian::new(k);
            for _ in 0..500 {
                // Duplicates on purpose: a small value universe forces
                // equal-key handling in the sorted mirror.
                let v = (rng.gen_range(0.0..16.0f64)).floor() / 4.0;
                inc.observe(v);
                naive.observe(v);
                assert_eq!(inc.predict(), naive.predict(), "k={k}");
            }
        }
    }

    #[test]
    fn incremental_trimmed_mean_matches_naive_bitwise() {
        let mut rng = SmallRng::seed_from_u64(12);
        for (k, trim) in [(5usize, 0.2), (31, 0.3), (7, 0.45)] {
            let mut inc = TrimmedMean::new(k, trim);
            let mut naive = naive::NaiveTrimmedMean::new(k, trim);
            for _ in 0..500 {
                let v = rng.gen_range(-1e3..1e3);
                inc.observe(v);
                naive.observe(v);
                assert_eq!(inc.predict(), naive.predict(), "k={k} trim={trim}");
            }
        }
    }

    #[test]
    fn adaptive_mean_matches_naive_on_exact_values() {
        // Integer samples keep both accumulators exact, pinning the
        // VecDeque/running-sum rewrite to the old predictions bit-for-bit
        // across fills, evictions and regime resets.
        let mut rng = SmallRng::seed_from_u64(13);
        let mut inc = AdaptiveMean::new(0.5);
        let mut naive = naive::NaiveAdaptiveMean::new(0.5);
        for i in 0..2000 {
            let base = if (i / 300) % 2 == 0 { 100.0 } else { 10.0 };
            let v = base + rng.gen_range(0..5) as f64;
            inc.observe(v);
            naive.observe(v);
            assert_eq!(inc.predict(), naive.predict(), "step {i}");
        }
    }

    #[test]
    fn adaptive_mean_resums_on_long_jump_free_streams() {
        // A steady stream never triggers a regime reset, so only the
        // periodic exact re-sum keeps the accumulator from drifting;
        // after 3 re-sum intervals the incremental mean must still agree
        // tightly with the re-sum-per-predict oracle.
        let mut rng = SmallRng::seed_from_u64(14);
        let mut inc = AdaptiveMean::new(1e9); // threshold never crossed
        let mut naive = naive::NaiveAdaptiveMean::new(1e9);
        for _ in 0..(3 * AdaptiveMean::RESUM_INTERVAL) {
            let v = 0.1 + rng.gen_range(0.0..1e-3);
            inc.observe(v);
            naive.observe(v);
        }
        let (a, b) = (inc.predict().unwrap(), naive.predict().unwrap());
        assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
    }

    #[test]
    fn battery_ignores_non_finite_observations() {
        let mut battery = ForecasterBattery::classic();
        battery.observe(f64::NAN);
        battery.observe(f64::INFINITY);
        assert!(battery.forecast().is_none());
        assert_eq!(battery.samples(), 0);

        battery.observe_all([10.0, f64::NAN, 12.0, f64::NEG_INFINITY, 11.0]);
        let f = battery.forecast().expect("finite samples forecast");
        assert_eq!(f.samples, 3);
        assert!(f.value.is_finite() && f.rmse.is_finite());

        // Same stream pre-sanitized gives the identical forecast.
        let mut clean = ForecasterBattery::classic();
        clean.observe_all([10.0, 12.0, 11.0]);
        assert_eq!(clean.forecast(), Some(f));
    }

    #[test]
    fn naive_predictors_tolerate_nan_without_panicking() {
        // Fed directly (bypassing the battery guard), the oracle sorts
        // must rank NaN via total_cmp instead of panicking.
        let mut m = naive::NaiveSlidingMedian::new(3);
        let mut t = naive::NaiveTrimmedMean::new(3, 0.2);
        for v in [1.0, f64::NAN, 2.0] {
            m.observe(v);
            t.observe(v);
        }
        assert!(m.predict().is_some());
        assert!(t.predict().is_some());
    }

    #[test]
    fn mse_and_mae_winners_can_differ() {
        // Occasional large spikes: MAE is robust to them, MSE punishes
        // them; with enough data the winners' reported values both stay
        // near the base level.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut battery = ForecasterBattery::classic();
        for i in 0..600 {
            let v = if i % 50 == 49 { 500.0 } else { 10.0 + rng.gen_range(-1.0..1.0) };
            battery.observe(v);
        }
        let f = battery.forecast().unwrap();
        assert!(f.rmse > 0.0 && f.mae > 0.0);
        assert!(f.value < 120.0, "MSE winner {} = {}", f.method, f.value);
        assert!(f.mae_value < 120.0, "MAE winner {} = {}", f.mae_method, f.mae_value);
    }

    /// Save/restore is exact: a battery snapshotted mid-stream and
    /// restored into a fresh family continues bit-identically to one
    /// that never stopped — for every cut point, including the regime
    /// jumps that reset ADAPT_AVG and the window-eviction boundaries.
    #[test]
    fn battery_save_restore_is_bit_identical_at_every_cut() {
        let mut rng = SmallRng::seed_from_u64(2026);
        let stream: Vec<f64> = (0..120)
            .map(|i| {
                if i % 37 == 36 {
                    900.0 // jump: exercises the adaptive reset
                } else {
                    50.0 + rng.gen_range(-5.0..5.0)
                }
            })
            .collect();
        for cut in [0usize, 1, 4, 31, 32, 36, 37, 38, 100, 120] {
            let mut live = ForecasterBattery::classic();
            live.observe_all(stream.iter().copied());

            let mut first = ForecasterBattery::classic();
            first.observe_all(stream[..cut].iter().copied());
            let states = first.save_states();
            let (sq, ab, ns, samples) = first.scores();
            let (sq, ab, ns) = (sq.to_vec(), ab.to_vec(), ns.to_vec());

            let mut resumed = ForecasterBattery::classic();
            resumed.restore_states(&states);
            resumed.restore_scores(&sq, &ab, &ns, samples);
            resumed.observe_all(stream[cut..].iter().copied());

            let a = live.forecast().unwrap();
            let b = resumed.forecast().unwrap();
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "cut at {cut}");
            assert_eq!(a.rmse.to_bits(), b.rmse.to_bits(), "cut at {cut}");
            assert_eq!(a, b, "cut at {cut}");
            // The whole scoring state matches, not just the winner.
            assert_eq!(
                live.save_states(),
                resumed.save_states(),
                "predictor state diverged at cut {cut}"
            );
        }
    }
}
