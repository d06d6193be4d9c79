//! The measuring half of the benchmark: spans, the best-of-rounds
//! estimator, the metric catalogue and the loop that drives a workload
//! through set-up, warm-up and timed rounds. Nothing here knows what a
//! workload does; `workloads.rs` holds that.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Json};

// ---------------------------------------------------------------------------
// Metric catalogue
// ---------------------------------------------------------------------------

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Exact metrics are counts the program makes: they repeat bit for bit
    /// for a seed and are checked against `expected.json`.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, exact: true }
}

pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s"),
    timed("work_rate", "1/s"),
    timed("step_ms", "ms"),
    timed("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in the order the README's wiring table lists
/// them. A `*_ms` entry is the best-of-rounds sum of the span named by
/// the metric without its `_ms`.
pub const PER_LAYER: &[MetricDef] = &[
    timed("netsim.synth.build_ms", "ms"),
    timed("netsim.routing.build_ms", "ms"),
    timed("netsim.routing.table_mb", "MiB"),
    timed("envmap.map_ms", "ms"),
    exact("envmap.experiments", "count"),
    exact("envmap.mapping_sim_s", "sim_s"),
    exact("envmap.agreement", "ratio"),
    timed("gridml.publish_ms", "ms"),
    timed("gridml.parse_ms", "ms"),
    exact("gridml.doc_bytes", "count"),
    timed("envdeploy.plan_ms", "ms"),
    exact("envdeploy.cliques", "count"),
    exact("envdeploy.intrusiveness", "ratio"),
    timed("envdeploy.validate_ms", "ms"),
    timed("envdeploy.config_roundtrip_ms", "ms"),
    timed("envdeploy.apply_plan_ms", "ms"),
    timed("envdeploy.apply_plan_share", "ratio"),
    timed("nws.first_forecast_ms", "ms"),
    exact("nws.first_forecast_stores", "count"),
    timed("netsim.engine.run_ms", "ms"),
    exact("netsim.engine.events", "count"),
    timed("netsim.engine.us_per_event", "us"),
    exact("netsim.engine.messages_sent", "count"),
    exact("netsim.engine.flows_started", "count"),
    exact("netsim.faults.dropped", "count"),
    exact("netsim.faults.duplicated", "count"),
    exact("netsim.disk.fsyncs", "count"),
    exact("netsim.disk.bytes_synced", "count"),
    exact("netsim.disk.busy_sim_s", "sim_s"),
    exact("nws.stores", "count"),
    timed("nws.stores_per_wall_s", "1/s"),
    exact("nws.memory.dup_stores", "count"),
    exact("nws.memory.rejected", "count"),
    exact("nws.memory.double_counted", "count"),
    timed("nws.step_ms.first", "ms"),
    timed("nws.step_ms.last", "ms"),
    timed("nws.forecaster.query_batch_ms", "ms"),
    exact("nws.forecaster.stale_served", "count"),
    timed("nws.supervisor.heal_ms", "ms"),
    exact("nws.supervisor.healed", "count"),
    timed("nws.recovery_wall_ms", "ms"),
    exact("nws.persist.replay_bytes", "count"),
    exact("nws.median_recovery_sim_s", "sim_s"),
    timed("netsim.churn.apply_ms", "ms"),
    timed("envmap.remap_ms", "ms"),
    exact("envmap.remap_probe_ratio", "ratio"),
    timed("envdeploy.repair_ms", "ms"),
    timed("envdeploy.validate_repaired_ms", "ms"),
    timed("envdeploy.apply_delta_ms", "ms"),
    exact("envdeploy.delta_actions", "count"),
    timed("netsim.fairness.admit_ms", "ms"),
    timed("netsim.fairness.drain_ms", "ms"),
    exact("netsim.fairness.events", "count"),
    timed("netsim.fairness.events_per_wall_s", "1/s"),
    exact("netsim.fairness.sim_drain_s", "sim_s"),
    timed("nws.serve.build_ms", "ms"),
    timed("nws.serve.ingest_ms", "ms"),
    timed("nws.serve.ingest_us_per_point", "us"),
    timed("nws.serve.publish_ms", "ms"),
    timed("nws.serve.serve_ms", "ms"),
    timed("nws.serve.us_per_query", "us"),
    exact("nws.serve.stale_served", "count"),
    exact("nws.serve.misses", "count"),
    exact("nws.serve.epoch_lag", "count"),
    exact("nws.shard.imbalance", "ratio"),
    timed("harness.step_median_ms", "ms"),
    timed("harness.step_p90_ms", "ms"),
    timed("harness.mean_rate", "1/s"),
    timed("harness.disturbance", "ratio"),
    timed("harness.reset_ms", "ms"),
    timed("harness.trace_overhead", "ratio"),
];

pub type Counters = BTreeMap<&'static str, f64>;

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// `best[i]`: the minimum over rounds of step `i`'s wall time. The program
/// is deterministic and runs on one thread, so noise only ever adds time
/// and the minimum is the sample closest to the work itself.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let steps = rounds.first().map_or(0, Vec::len);
    (0..steps).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), so a spread computed here is the
/// spread the acceptance check computes. Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in 0..=1.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Warmup,
    Timed,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Timed => "timed",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Ordinal of the round the span belongs to; 0 is the set-up.
    pub round: usize,
    pub phase: Phase,
    pub step: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span's handle; `None` while nothing is being recorded.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans around the calls a workload makes, and the wall time of
/// every step whether or not spans are recorded.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
    phase: Phase,
    /// The step being run, while inside [`Tracer::step`].
    in_step: Option<usize>,
    step_s: Vec<f64>,
    gauges: Counters,
}

impl Tracer {
    /// `recording` says whether the set-up's spans are kept; each round
    /// says for itself in [`Tracer::begin`].
    pub fn new(origin: Instant, recording: bool) -> Tracer {
        Tracer {
            origin,
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            phase: Phase::Setup,
            in_step: None,
            step_s: Vec::new(),
            gauges: Counters::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next round.
    pub fn begin(&mut self, phase: Phase, recording: bool) {
        self.round += 1;
        self.phase = phase;
        self.recording = recording;
        self.step_s.clear();
    }

    /// The step times of the round that just ran.
    pub fn take_steps(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.step_s)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            phase: self.phase,
            step: self.in_step,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// A span around one call.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = call();
        self.exit(open);
        out
    }

    /// One timed step: its wall time is kept for the end-to-end metrics,
    /// and while recording it is the parent span of the calls inside it.
    pub fn step<T>(&mut self, body: impl FnOnce(&mut Tracer) -> T) -> T {
        self.in_step = Some(self.step_s.len());
        let open = self.enter("harness.step");
        let t = Instant::now();
        let out = body(self);
        let s = t.elapsed().as_secs_f64();
        self.exit(open);
        self.in_step = None;
        self.step_s.push(s);
        out
    }

    /// A measurement that is not a time.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its direct children
/// cover.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let own = self_nanos(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_insert(SpanTotals { calls: 0, total_ns: 0, self_ns: 0 });
        t.calls += 1;
        t.total_ns += s.nanos();
        t.self_ns += own;
    }
    out
}

/// Per span name: the smallest sum of that span's durations inside the
/// set-up or one recorded round, in milliseconds.
pub fn best_span_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<(&'static str, usize), u64> = BTreeMap::new();
    for s in spans {
        *sums.entry((s.name, s.round)).or_insert(0) += s.nanos();
    }
    let mut best: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((name, _), ns) in sums {
        let ms = ns as f64 / 1e6;
        best.entry(name).and_modify(|b| *b = b.min(ms)).or_insert(ms);
    }
    best
}

pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out =
        format!("{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n", json::quote(workload));
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"phase\": \"{}\", \"round\": {}, \"step\": {}}}{}\n",
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            s.phase.as_str(),
            s.round,
            opt(s.step),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// The result line
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit), in the order they are printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::num(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a result line back; metrics come out sorted by name.
    pub fn from_line(line: &str) -> Result<RunResult, String> {
        let v = Json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let correct = matches!(field("correct")?, Json::Bool(true));
        let attempted = field("attempted")?.as_f64().ok_or("attempted is not a number")? as u64;
        let failed = field("failed")?.as_f64().ok_or("failed is not a number")? as u64;
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.as_obj().ok_or("metrics is not an object")? {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks a value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("metric lacks a unit")?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(RunResult { correct, attempted, failed, metrics })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// A `kB` field of `/proc/self/status`, in MiB.
pub fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Confine the process, and every thread it will start, to one CPU: the
/// highest-numbered one it is allowed. `publish(1)` and `serve_batches(.., 1)`
/// still start a thread per call, and on the free-running scheduler that
/// thread lands on whichever CPU the neighbours left idle: six `serve_mix`
/// runs ranged 9 % free and 2.2 % confined, minutes apart on the same box.
/// Returns the CPU, or `None` where the kernel refuses (the run goes on).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed, read only.
    (unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } == 0)
        .then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Keep freed memory inside the process. Left alone, glibc hands the freed
/// tail of a thread's arena, and every large block, back to the kernel and
/// faults the pages in again a step later: `serve_mix`, whose reads run on
/// a thread `serve_batches` starts, took 1.1 M page faults a run. What a
/// fault costs follows the host's hour: in a bad one, four alternating
/// pairs ranged 0.88-0.97 M queries/s as shipped and 1.02-1.05 M with the
/// two thresholds raised. Returns whether the allocator took both.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const ONE_GIB: i32 = 1 << 30;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers by value and only stores the
    // threshold; it is called before the process starts any thread.
    unsafe { mallopt(M_TRIM_THRESHOLD, ONE_GIB) == 1 && mallopt(M_MMAP_THRESHOLD, ONE_GIB) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() -> bool {
    false
}

/// What a result has to be read beside: cores, CPU, commit, profile.
pub fn machine_header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().chars().take(12).collect());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!("nproc {nproc} | cpu {cpu} | commit {commit} | profile {profile}")
}

// ---------------------------------------------------------------------------
// Driving a workload
// ---------------------------------------------------------------------------

/// What one round reports besides its step times.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RoundOut {
    /// Work units the round completed (the unit is the workload's).
    pub units: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The exact counters; every round of a run must report the same.
    pub exact: Counters,
    /// Invariants the round found broken.
    pub broken: Vec<String>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What `work_rate` counts per second.
    const UNIT: &'static str;
    /// `W`: untimed rounds before the first timed one, chosen so that
    /// `setup_s` clears 1.5 s on the reference box.
    const WARMUP: usize;
    /// `R`: timed rounds, chosen so that they take 18-24 s there.
    const ROUNDS: usize;

    /// Build the inputs from the seed. `smoke` asks for quarter sizes.
    fn prepare(seed: u64, smoke: bool, tr: &mut Tracer) -> Self;

    /// One round: restart from the prepared state and replay the same
    /// operations, each step inside [`Tracer::step`].
    fn round(&mut self, tr: &mut Tracer) -> RoundOut;

    /// Per-layer metrics that are ratios of the ones already in `m`;
    /// `round_ms` is the best-of-rounds time of one round.
    fn derive(&self, _m: &mut BTreeMap<&'static str, f64>, _round_ms: f64) {}
}

pub struct Opts {
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// `name = m[num] * scale / m[den]`, or 0 where either is missing or the
/// denominator is 0.
pub fn set_ratio(
    m: &mut BTreeMap<&'static str, f64>,
    name: &'static str,
    num: &str,
    den: &str,
    scale: f64,
) {
    let v = match (m.get(num), m.get(den)) {
        (Some(n), Some(d)) if *d > 0.0 => n * scale / d,
        _ => 0.0,
    };
    m.insert(name, v);
}

/// Run one workload and print its metrics; the last line printed is the
/// result line.
pub fn run<W: Workload>(opts: &Opts, started: Instant, expected: &Json) {
    let machine = machine_header();
    let cpu = pin_to_one_cpu().map_or("not pinned".to_string(), |c| format!("pinned to cpu {c}"));
    let heap = if keep_freed_memory() { "freed memory kept" } else { "allocator as shipped" };
    println!(
        "# {machine} | {cpu} | {heap} | workload {} | seed {} | {}",
        W::NAME,
        opts.seed,
        if opts.smoke { "SMOKE (not for reported numbers)" } else { "full size" }
    );
    let mut tr = Tracer::new(started, opts.trace);
    let mut workload = W::prepare(opts.seed, opts.smoke, &mut tr);

    let mut attempted = 0;
    let mut failed = 0;
    let mut broken: Vec<String> = Vec::new();
    let mut reference: Option<RoundOut> = None;
    let mut absorb = |out: RoundOut, which: &str| {
        attempted += out.attempted;
        failed += out.failed;
        for b in &out.broken {
            broken.push(format!("{which}: {b}"));
        }
        match &reference {
            None => reference = Some(out),
            Some(r) if r.exact != out.exact || r.units != out.units => {
                let diff: Vec<String> = r
                    .exact
                    .iter()
                    .filter(|(k, v)| out.exact.get(*k).map(|o| o.to_bits()) != Some(v.to_bits()))
                    .map(|(k, v)| format!("{k} {v:?} -> {:?}", out.exact.get(k)))
                    .collect();
                broken.push(format!("{which}: counters differ from the first round: {diff:?}"));
            }
            Some(_) => {}
        }
    };

    for w in 0..W::WARMUP {
        tr.begin(Phase::Warmup, false);
        let out = workload.round(&mut tr);
        absorb(out, &format!("warm-up round {w}"));
    }
    let setup_s = started.elapsed().as_secs_f64();

    // Timed rounds: fixed work, never fixed time. A traced run records
    // every other round; the rest tell what recording costs.
    let timed_rounds = if opts.smoke { 2 } else { W::ROUNDS };
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut recorded: Vec<bool> = Vec::new();
    while rounds.len() < timed_rounds {
        let record = opts.trace && rounds.len().is_multiple_of(2);
        tr.begin(Phase::Timed, record);
        let out = workload.round(&mut tr);
        absorb(out, &format!("timed round {}", rounds.len()));
        rounds.push(tr.take_steps());
        recorded.push(record);
    }
    let reference = reference.expect("a round ran");

    // The oracle: the exact counters of seeds the file knows.
    let mut oracle = "no entry for this seed (invariants and round identity only)";
    if !opts.smoke {
        if let Some(want) = expected.get(W::NAME).and_then(|w| w.get(&opts.seed.to_string())) {
            oracle = "matches expected.json";
            let want = want.as_obj().cloned().unwrap_or_default();
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let got = reference.exact.get(def.name).copied().unwrap_or(0.0);
                let want = want.get(def.name).and_then(Json::as_f64).unwrap_or(0.0);
                if got.to_bits() != want.to_bits() {
                    broken.push(format!("{}: expected {want:?}, counted {got:?}", def.name));
                    oracle = "DIFFERS from expected.json";
                }
            }
        }
    }

    // End-to-end numbers.
    let best = best_of_rounds(&rounds);
    let round_s: f64 = best.iter().sum();
    let work_rate = reference.units / round_s;
    let step_ms = median(&best) * 1e3;
    let totals: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
    let column = |i: usize| rounds.iter().map(|r| r[i]).collect::<Vec<f64>>();
    let steps = 0..best.len();
    let step_median_ms =
        median(&steps.clone().map(|i| median(&column(i))).collect::<Vec<_>>()) * 1e3;
    let step_p90_ms = median(&steps.map(|i| percentile(&column(i), 0.9)).collect::<Vec<_>>()) * 1e3;
    let mean_rate = reference.units * totals.len() as f64 / totals.iter().sum::<f64>();
    let disturbance = totals.iter().sum::<f64>() / (totals.len() as f64 * round_s) - 1.0;

    println!(
        "rounds {} timed + {} warm-up | steps/round {} | {} {} per round | timed phase {:.1} s",
        rounds.len(),
        W::WARMUP,
        best.len(),
        reference.units,
        W::UNIT,
        started.elapsed().as_secs_f64() - setup_s
    );
    println!(
        "estimators (never gated): median-of-rounds step {step_median_ms:.3} ms | p90 step \
         {step_p90_ms:.3} ms | mean rate {mean_rate:.3} {}/s | disturbance {disturbance:.4}",
        W::UNIT
    );
    println!("exact: {}", counters_json(&reference.exact));
    println!("oracle: {oracle}");
    for b in &broken {
        println!("BROKEN: {b}");
    }

    let metrics: Vec<(String, f64, String)> = if opts.trace {
        let mut m: BTreeMap<&'static str, f64> = best_span_ms(tr.spans())
            .into_iter()
            .filter_map(|(span, ms)| {
                PER_LAYER
                    .iter()
                    .find(|d| d.name.strip_suffix("_ms") == Some(span))
                    .map(|d| (d.name, ms))
            })
            .collect();
        m.extend(reference.exact.iter().map(|(k, v)| (*k, *v)));
        m.extend(tr.gauges.iter().map(|(k, v)| (*k, *v)));
        let sum_best = |traced: bool| -> f64 {
            let picked: Vec<Vec<f64>> = rounds
                .iter()
                .zip(&recorded)
                .filter(|(_, r)| **r == traced)
                .map(|(r, _)| r.clone())
                .collect();
            best_of_rounds(&picked).iter().sum()
        };
        m.insert("harness.trace_overhead", sum_best(true) / sum_best(false) - 1.0);
        m.insert("harness.step_median_ms", step_median_ms);
        m.insert("harness.step_p90_ms", step_p90_ms);
        m.insert("harness.mean_rate", mean_rate);
        m.insert("harness.disturbance", disturbance);
        m.insert("nws.step_ms.first", best[0] * 1e3);
        m.insert("nws.step_ms.last", best[best.len() - 1] * 1e3);
        workload.derive(&mut m, round_s * 1e3);

        let path = format!("benchmark/out/trace_{}.json", W::NAME);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, trace_json(W::NAME, opts.seed, tr.spans())));
        match written {
            Ok(()) => println!("trace: {} spans in {path}", tr.spans().len()),
            Err(e) => println!("trace: could not write {path}: {e}"),
        }
        println!("{:<34} {:>7} {:>12} {:>12}", "span", "calls", "total ms", "self ms");
        for (name, t) in totals_by_name(tr.spans()) {
            println!(
                "{name:<34} {:>7} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        PER_LAYER
            .iter()
            .map(|d| {
                (d.name.to_string(), m.get(d.name).copied().unwrap_or(0.0), d.unit.to_string())
            })
            .collect()
    } else {
        let values = [setup_s, work_rate, step_ms, proc_status_mib("VmHWM")];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v, d.unit.to_string()))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }

    let result =
        RunResult { correct: broken.is_empty() && failed == 0, attempted, failed, metrics };
    println!("{}", result.to_line());
}

fn counters_json(c: &Counters) -> String {
    let fields: Vec<String> =
        c.iter().map(|(k, v)| format!("{}: {}", json::quote(k), json::num(*v))).collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_rounds_takes_each_steps_minimum() {
        let rounds = vec![vec![3.0, 9.0, 5.0], vec![4.0, 7.0, 5.5], vec![2.5, 8.0, 6.0]];
        assert_eq!(best_of_rounds(&rounds), vec![2.5, 7.0, 5.0]);
        assert!(best_of_rounds(&[]).is_empty());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7, 4, 5], n=4)
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 5.0]), [3.0, 5.0, 8.5]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_and_percentile_on_hand_made_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, round: usize) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, round, phase: Phase::Timed, step: None }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0, 100) > run [10, 70) > heal [20, 30); step > query [70, 95)
        let spans = vec![
            span("step", 0, 100, None, 1),
            span("run", 10, 70, Some(0), 1),
            span("heal", 20, 30, Some(1), 1),
            span("query", 70, 95, Some(0), 1),
        ];
        assert_eq!(self_nanos(&spans), vec![15, 50, 10, 25]);
        let t = totals_by_name(&spans);
        assert_eq!((t["run"].calls, t["run"].total_ns, t["run"].self_ns), (1, 60, 50));
    }

    #[test]
    fn best_span_sum_is_per_round_then_minimum() {
        let spans = vec![
            span("run", 0, 10, None, 1),
            span("run", 20, 35, None, 1),
            span("run", 100, 118, None, 2),
            span("query", 118, 120, None, 2),
        ];
        let best = best_span_ms(&spans);
        assert_eq!(best["run"], 18.0 / 1e6);
        assert_eq!(best["query"], 2.0 / 1e6);
    }

    #[test]
    fn tracer_nests_spans_and_times_steps_even_when_not_recording() {
        let mut tr = Tracer::new(Instant::now(), false);
        tr.begin(Phase::Timed, true);
        tr.step(|tr| tr.time("inner", || ()));
        tr.begin(Phase::Timed, false);
        tr.step(|tr| tr.time("inner", || ()));
        assert_eq!(tr.take_steps().len(), 1);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent, s.step)).collect();
        assert_eq!(names, vec![("harness.step", None, Some(0)), ("inner", Some(0), Some(0))]);
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("setup_s".to_string(), 1.8127034, "s".to_string()),
                ("work_rate".to_string(), 5123.4567891234, "1/s".to_string()),
            ],
        };
        let back = RunResult::from_line(&r.to_line()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("work_rate"), Some(5123.4567891234));
        assert!(RunResult::from_line("{\"correct\": true}").is_err());
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn metric_names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        assert!(!name_ok("_x") && !name_ok("a b") && !unit_ok("m s"));
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics with the
    /// same units, and the file names the four workloads.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
