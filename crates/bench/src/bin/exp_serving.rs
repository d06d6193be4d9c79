//! Load-test harness for the sharded query-serving plane (`nws::serve`):
//! concurrency ramps, cold-vs-warm sweeps, and a sustained ingest storm,
//! emitted as `BENCH_serving.json`.
//!
//! Every run enforces the plane's *contracts* as hard gates, not just its
//! speed:
//!
//! * **shard-count invariance** — planes over 1/2/4/8 shards answer a
//!   full-sweep batch bit-identically (fingerprint equality);
//! * **run-twice determinism** — the entire load campaign repeated from
//!   the same seed reproduces every answer and every metrics counter;
//! * **volume** — the full (non-smoke) campaign serves ≥ 1M queries.
//!
//! The ramp models `clients` concurrent requesters per wave: each wave is
//! `clients` batches of `batch` keys served on a scoped worker pool, and
//! the wave's wall time is the latency every client of that wave
//! experienced (p50/p99/p999 over waves). Queries/sec is total keys
//! served over total wave time.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_serving
//! [--smoke] [out.json]`. `--smoke` is the CI configuration.

use std::fmt::Write as _;
use std::time::Instant;

use netsim::disk::fnv1a64;
use nws::serve::{MetricsSnapshot, ServingPlane};
use nws::shard::ShardMap;
use nws::{Forecast, Resource, SeriesKey};
use nws_bench::{f, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2004;

struct Config {
    series: usize,
    points: usize,
    shards: usize,
    batch: usize,
    /// (clients, waves) per ramp tier.
    ramp: Vec<(usize, usize)>,
    storm_rounds: usize,
}

impl Config {
    fn full() -> Config {
        Config {
            series: 2_000,
            points: 200,
            shards: 4,
            batch: 16,
            ramp: vec![(10, 700), (50, 250), (100, 160), (250, 90), (500, 70)],
            storm_rounds: 40,
        }
    }

    fn smoke() -> Config {
        Config {
            series: 300,
            points: 50,
            shards: 4,
            batch: 8,
            ramp: vec![(10, 8), (50, 4)],
            storm_rounds: 4,
        }
    }
}

/// The series population: host + link series over a synthetic host list,
/// the same mix the in-sim experiments use.
fn series_keys(n: usize) -> Vec<SeriesKey> {
    (0..n)
        .map(|i| {
            let host = format!("n{}.grid", i / 2);
            if i % 2 == 0 {
                SeriesKey::host(Resource::CpuLoad, &host)
            } else {
                let peer = format!("n{}.grid", (i / 2 + 1) % n.div_ceil(2));
                SeriesKey::link(Resource::Bandwidth, &host, &peer)
            }
        })
        .collect()
}

/// Build and publish one plane over the seeded workload.
fn build_plane(shards: usize, keys: &[SeriesKey], points: usize) -> ServingPlane {
    let mut plane = ServingPlane::new(ShardMap::hashed(shards));
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xbeef);
    for key in keys {
        let mut x = 90.0 + rng.gen_range(-10.0..10.0);
        for t in 0..points {
            x += rng.gen_range(-1.0..1.0);
            plane.ingest_point(key, t as f64, x);
        }
    }
    plane.publish(shards);
    plane
}

/// FNV-1a over the debug rendering of every answer: f64 debug output is
/// the shortest round-trip representation, so the fingerprint is
/// bit-faithful to the forecast values.
fn fingerprint(answers: &[Vec<(SeriesKey, Option<Forecast>)>]) -> u64 {
    let mut rendered = String::new();
    for (key, forecast) in answers.iter().flatten() {
        write!(rendered, "{key}={forecast:?};").expect("writing to a String cannot fail");
    }
    fnv1a64(rendered.as_bytes())
}

/// Round-robin batch composition for one wave: deterministic, covers the
/// key population evenly.
fn wave_batches(
    keys: &[SeriesKey],
    clients: usize,
    batch: usize,
    wave: usize,
) -> Vec<Vec<SeriesKey>> {
    (0..clients)
        .map(|c| {
            let base = (wave * clients + c) * batch;
            (0..batch).map(|j| keys[(base + j) % keys.len()].clone()).collect()
        })
        .collect()
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    let i = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[i]
}

struct RampRow {
    clients: usize,
    waves: usize,
    queries: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

struct StormStats {
    rounds: usize,
    epochs_published: u64,
    stale_served: u64,
    queries: u64,
}

struct LoadResult {
    cold_us_per_query: f64,
    warm_us_per_query: f64,
    ramp: Vec<RampRow>,
    storm: StormStats,
    answers_fp: u64,
    metrics: MetricsSnapshot,
}

/// One full load campaign against a fresh plane: cold/warm sweeps, the
/// concurrency ramp, then a sustained ingest storm. Deterministic in
/// everything but the timings.
fn run_load(cfg: &Config, keys: &[SeriesKey]) -> LoadResult {
    let mut plane = build_plane(cfg.shards, keys, cfg.points);
    let workers = 8;
    let mut fp = 0u64;

    // Cold vs warm: the first full sweep touches every snapshot entry for
    // the first time; the second hits warm caches.
    let sweep: Vec<Vec<SeriesKey>> = keys.chunks(cfg.batch).map(|c| c.to_vec()).collect();
    let t = Instant::now();
    let cold_answers = plane.serve_batches(&sweep, workers);
    let cold_us_per_query = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    fp ^= fingerprint(&cold_answers);
    let t = Instant::now();
    let warm_answers = plane.serve_batches(&sweep, workers);
    let warm_us_per_query = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    assert_eq!(
        fingerprint(&cold_answers),
        fingerprint(&warm_answers),
        "cold and warm sweeps must answer identically"
    );

    // Concurrency ramp.
    let mut ramp = Vec::new();
    for &(clients, waves) in &cfg.ramp {
        let mut wave_us: Vec<f64> = Vec::with_capacity(waves);
        let mut queries = 0u64;
        let t_tier = Instant::now();
        for wave in 0..waves {
            let batches = wave_batches(keys, clients, cfg.batch, wave);
            let t = Instant::now();
            let answers = plane.serve_batches(&batches, workers.min(clients));
            wave_us.push(t.elapsed().as_secs_f64() * 1e6);
            queries += (clients * cfg.batch) as u64;
            fp ^= fingerprint(&answers).rotate_left((wave % 63) as u32);
        }
        let tier_s = t_tier.elapsed().as_secs_f64();
        wave_us.sort_by(|a, b| a.total_cmp(b));
        ramp.push(RampRow {
            clients,
            waves,
            queries,
            qps: queries as f64 / tier_s,
            p50_us: percentile(&wave_us, 0.50),
            p99_us: percentile(&wave_us, 0.99),
            p999_us: percentile(&wave_us, 0.999),
        });
    }

    // Sustained storm: fresh points land on a quarter of the series, a
    // wave is served against the previous epoch (stale for the dirty
    // keys), then the epoch publishes.
    let before = plane.metrics();
    let mut storm_queries = 0u64;
    for round in 0..cfg.storm_rounds {
        for (i, key) in keys.iter().enumerate() {
            if i % 4 == round % 4 {
                plane.ingest_point(key, (cfg.points + round) as f64, 90.0 + round as f64);
            }
        }
        let batches = wave_batches(keys, 25, cfg.batch, round);
        let answers = plane.serve_batches(&batches, workers);
        storm_queries += (25 * cfg.batch) as u64;
        fp ^= fingerprint(&answers).rotate_left((round % 63) as u32);
        plane.publish(workers);
    }
    let metrics = plane.metrics();
    let storm = StormStats {
        rounds: cfg.storm_rounds,
        epochs_published: metrics.epochs_published - before.epochs_published,
        stale_served: metrics.stale_served - before.stale_served,
        queries: storm_queries,
    };
    assert_eq!(metrics.misses, 0, "every ramp/storm key is resident");
    assert!(storm.stale_served > 0, "storm waves must observe pre-publish staleness");
    assert_eq!(storm.epochs_published, cfg.storm_rounds as u64, "one epoch per storm round");

    LoadResult { cold_us_per_query, warm_us_per_query, ramp, storm, answers_fp: fp, metrics }
}

/// Hard gate: planes over 1/2/4/8 shards answer a full sweep
/// bit-identically. Returns the common fingerprint.
fn assert_shard_invariance(cfg: &Config, keys: &[SeriesKey]) -> u64 {
    let sweep: Vec<Vec<SeriesKey>> = keys.chunks(cfg.batch).map(|c| c.to_vec()).collect();
    let mut common = None;
    for shards in [1usize, 2, 4, 8] {
        let mut plane = build_plane(shards, keys, cfg.points);
        let fp = fingerprint(&plane.serve_batches(&sweep, 8));
        match common {
            None => common = Some(fp),
            Some(c) => assert_eq!(c, fp, "{shards} shards diverged from the 1-shard answers"),
        }
    }
    common.unwrap()
}

fn to_json(
    cfg: &Config,
    smoke: bool,
    invariance_fp: u64,
    r: &LoadResult,
    total_queries: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serving\",\n");
    out.push_str("  \"generated_by\": \"exp_serving\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"series\": {}, \"points\": {}, \"shards\": {}, \"batch\": {},\n",
        cfg.series, cfg.points, cfg.shards, cfg.batch
    ));
    out.push_str(&format!(
        "  \"shard_invariance\": {{\"shard_counts\": [1, 2, 4, 8], \
         \"fingerprint\": \"{invariance_fp:016x}\", \"identical\": true}},\n"
    ));
    out.push_str(&format!(
        "  \"determinism\": {{\"run_twice_identical\": true, \
         \"answers_fingerprint\": \"{:016x}\"}},\n",
        r.answers_fp
    ));
    out.push_str(&format!(
        "  \"cold_vs_warm\": {{\"cold_us_per_query\": {:.4}, \"warm_us_per_query\": {:.4}}},\n",
        r.cold_us_per_query, r.warm_us_per_query
    ));
    out.push_str("  \"ramp_rows\": [\n");
    for (i, row) in r.ramp.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"waves\": {}, \"queries\": {}, \"qps\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}{}\n",
            row.clients,
            row.waves,
            row.queries,
            row.qps,
            row.p50_us,
            row.p99_us,
            row.p999_us,
            if i + 1 < r.ramp.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"storm\": {{\"rounds\": {}, \"epochs_published\": {}, \"stale_served\": {}, \
         \"queries\": {}}},\n",
        r.storm.rounds, r.storm.epochs_published, r.storm.stale_served, r.storm.queries
    ));
    out.push_str(&format!("  \"total_queries\": {total_queries},\n"));
    out.push_str(&format!("  \"metrics\": {}\n", r.metrics.to_json()));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    let cfg = if smoke { Config::smoke() } else { Config::full() };
    let keys = series_keys(cfg.series);

    println!("=== serving plane: sharded snapshots under concurrent batched load ===\n");

    let invariance_fp = assert_shard_invariance(&cfg, &keys);
    println!("  shard invariance 1/2/4/8: fingerprint {invariance_fp:016x} (identical)\n");

    let r1 = run_load(&cfg, &keys);
    let r2 = run_load(&cfg, &keys);
    assert_eq!(r1.answers_fp, r2.answers_fp, "run-twice answers must be bit-identical");
    assert_eq!(r1.metrics, r2.metrics, "run-twice metrics must be identical");

    let mut t = Table::new(&["clients", "waves", "queries", "qps", "p50 us", "p99 us", "p999 us"]);
    for row in &r1.ramp {
        t.row(vec![
            row.clients.to_string(),
            row.waves.to_string(),
            row.queries.to_string(),
            f(row.qps, 0),
            f(row.p50_us, 1),
            f(row.p99_us, 1),
            f(row.p999_us, 1),
        ]);
    }
    t.print();
    println!(
        "\n  cold {:.3} us/query, warm {:.3} us/query; storm: {} epochs, {} stale serves",
        r1.cold_us_per_query,
        r1.warm_us_per_query,
        r1.storm.epochs_published,
        r1.storm.stale_served
    );

    // Volume gate (full run): the campaign must actually hammer the plane.
    let ramp_queries: u64 = r1.ramp.iter().map(|r| r.queries).sum();
    let total_queries = 2 * keys.len() as u64 + ramp_queries + r1.storm.queries;
    if !smoke {
        assert!(
            total_queries >= 1_000_000,
            "full campaign must serve >= 1M queries, served {total_queries}"
        );
    }

    std::fs::write(&out_path, to_json(&cfg, smoke, invariance_fp, &r1, total_queries))
        .expect("write BENCH_serving.json");
    println!("\n  total {total_queries} queries; wrote {out_path}");
}
