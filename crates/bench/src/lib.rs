//! Shared plumbing for `repro_summary` (whose experiments are
//! [`experiments`]), the golden-file generators and the timing sweep. See
//! DESIGN.md §3 for the binaries and the experiment ids.

pub mod experiments;

use envmap::{merge_runs, EnvConfig, EnvMapper, EnvRun, EnvView, HostInput};
use gridml::merge::GatewayAlias;
use netsim::disk::DiskStats;
use netsim::scenarios::{
    ens_lyon, star_hub, Calibration, EnsLyon, ENS_LYON_GATEWAYS, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
};
use netsim::time::{SimTime, TimeDelta};
use netsim::units::Bandwidth;
use netsim::{Engine, NetResult, NodeId, Sim};
use nws::schedule::{Event, Schedule};
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, SeriesKey};

/// The gateway aliases the user supplies for the merge (paper §4.3).
pub(crate) fn gateway_aliases() -> [GatewayAlias; 3] {
    ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private))
}

/// Outcome of the full §4 mapping pipeline on ENS-Lyon.
pub struct MappedEnsLyon {
    pub platform: EnsLyon,
    pub outside: EnvRun,
    pub inside: EnvRun,
    pub merged: EnvView,
}

/// Run both ENV passes of paper §4 under `config` on `platform`, which
/// `eng` simulates, and merge them across the firewall.
pub(crate) fn map_platform(
    platform: EnsLyon,
    eng: &mut Sim,
    config: EnvConfig,
) -> NetResult<MappedEnsLyon> {
    let mapper = EnvMapper::new(config);
    let outside = mapper.map(
        eng,
        &ENS_LYON_OUTSIDE.map(HostInput::new),
        "the-doors.ens-lyon.fr",
        Some("well-known.example.org"),
    )?;
    let inside =
        mapper.map(eng, &ENS_LYON_INSIDE.map(HostInput::new), "sci0.popc.private", None)?;
    let merged = merge_runs(&outside, &inside, &gateway_aliases());
    Ok(MappedEnsLyon { platform, outside, inside, merged })
}

/// Run both ENV passes and the merge on a fresh ENS-Lyon platform.
pub fn map_ens_lyon() -> MappedEnsLyon {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    map_platform(platform, &mut eng, EnvConfig::fast()).expect("both ENV runs succeed")
}

/// Every stored series, in key order, each as its `(t, value)` points.
pub type SeriesDump = Vec<(SeriesKey, Vec<(f64, f64)>)>;

/// The whole stored record of `sys`, as it stands now.
pub(crate) fn dump_series(sys: &NwsSystem) -> SeriesDump {
    sys.series_keys()
        .into_iter()
        .map(|k| {
            let points = sys.series(&k).expect("a listed key has a series");
            (k, points)
        })
        .collect()
}

/// Whether every series of `before` is a byte-identical prefix of the
/// same series in `after`.
pub(crate) fn prefix_intact(before: &SeriesDump, after: &SeriesDump) -> bool {
    before.iter().all(|(key, old)| {
        after.iter().any(|(k, new)| k == key && new.len() >= old.len() && new[..old.len()] == **old)
    })
}

/// The stored record a fault run leaves behind; the run-twice determinism
/// gates of `exp_fault_storm` and `exp_recovery` compare two of these whole.
#[derive(PartialEq)]
pub struct StoredRecord {
    pub stores: u64,
    pub drops: u64,
    pub dups: u64,
    pub dup_stores: u64,
    pub rejected: u64,
    /// `stores − Σ len(series) − rejected` over the memory servers: a
    /// retry, duplicate or WAL replay counted twice shows up here.
    pub double_counted: i64,
    pub series: SeriesDump,
}

impl StoredRecord {
    pub(crate) fn of(eng: &Engine<NwsMsg>, sys: &NwsSystem) -> StoredRecord {
        let (mut dup_stores, mut rejected, mut double_counted) = (0u64, 0u64, 0i64);
        for (_, handle) in sys.memories.values() {
            let st = handle.borrow();
            let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
            dup_stores += st.dup_stores;
            rejected += st.rejected;
            double_counted += st.stores as i64 - in_series as i64 - st.rejected as i64;
        }
        let stats = eng.stats();
        StoredRecord {
            stores: sys.total_stores(),
            drops: stats.messages_dropped,
            dups: stats.messages_duplicated,
            dup_stores,
            rejected,
            double_counted,
            series: dump_series(sys),
        }
    }

    /// Mean over series of measured coverage: the fraction of a series'
    /// span not spent in gaps beyond [`GAP_FACTOR`] × its own mean cadence.
    pub fn availability(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, pts) in &self.series {
            if pts.len() < 3 {
                continue;
            }
            let span = pts[pts.len() - 1].0 - pts[0].0;
            if span <= 0.0 {
                continue;
            }
            let cadence = span / (pts.len() - 1) as f64;
            let allowed = GAP_FACTOR * cadence;
            let lost: f64 = pts.windows(2).map(|w| (w[1].0 - w[0].0 - allowed).max(0.0)).sum();
            sum += 1.0 - lost / span;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Median seconds from each crash `(host, t)` to the next point stored
    /// after it — by that host's own series, or by any series when the
    /// crash names no host (a memory crash); crashes nothing followed
    /// are left out.
    pub fn median_recovery(&self, crashes: &[(Option<String>, f64)]) -> f64 {
        let mut recoveries: Vec<f64> = crashes
            .iter()
            .filter_map(|(host, tc)| {
                self.series
                    .iter()
                    .filter(|(k, _)| host.as_ref().is_none_or(|h| &k.src == h))
                    .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
                    .filter(|t| t > tc)
                    .min_by(f64::total_cmp)
                    .map(|t| t - tc)
            })
            .collect();
        if recoveries.is_empty() {
            return 0.0;
        }
        recoveries.sort_by(f64::total_cmp);
        recoveries[recoveries.len() / 2]
    }
}

/// A gap is an outage once it exceeds this multiple of the series' own
/// mean cadence (clique rotations make short gaps routine).
pub const GAP_FACTOR: f64 = 4.0;

/// Hosts of the star [`supervised_star`] deploys.
pub const STAR_HOSTS: usize = 6;

/// Everything one [`supervised_star`] run observes; the run-twice gate
/// compares two whole.
#[derive(PartialEq)]
pub struct Run {
    pub record: StoredRecord,
    /// `(host, t)` of every sensor crash, and `(None, t)` of every memory
    /// host crash (any series' next point is its recovery). A memory kill
    /// keeps the page cache and is not scored.
    pub crashes: Vec<(Option<String>, f64)>,
    pub healed: usize,
    pub disk: DiskStats,
    /// Whether the stored record as it stood before each memory kill or
    /// crash is a byte-identical prefix of the final one.
    pub prefix_intact: bool,
}

/// Deploy a supervised NWS on a [`STAR_HOSTS`]-host star (the first host
/// runs the name server and the memory), arm the fault stream with
/// `fault_seed`, and run the schedule `schedule` draws over the host names
/// to `until` in one-second supervisor sweeps. Runs it twice and asserts
/// the gates every fault run shares, naming `tier` on failure: the two
/// runs are identical, no store is counted twice, and every pre-crash
/// record is a prefix of the final one.
pub fn supervised_star(
    tier: &str,
    seed: u64,
    fault_seed: u64,
    wal_compact_kib: u64,
    until: SimTime,
    schedule: impl Fn(&[String]) -> Schedule,
) -> Run {
    let once = || {
        let net = star_hub(STAR_HOSTS, Bandwidth::mbps(100.0));
        let name = |h: &NodeId| net.topo.node(*h).ifaces[0].name.clone().expect("a named host");
        let names: Vec<String> = net.hosts.iter().map(name).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.seed = seed;
        spec.wal_compact_kib = wal_compact_kib;
        // A supervised deployment can afford an aggressive token watchdog:
        // false regenerations are cheap (the clique dedups token seqs), slow
        // ones stall every series behind a dead token holder — and a memory
        // host's heal restarts its co-located sensor, killing the token.
        spec.watchdog = TimeDelta::from_secs(8.0);
        let mut sys = NwsSystem::deploy(&mut eng, &spec).expect("the star deploys");
        sys.attach_supervisor(
            &mut eng,
            SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
        );
        eng.set_fault_seed(fault_seed);

        let (mut crashes, mut witnesses) = (Vec::new(), Vec::new());
        let on_event = |eng: &Engine<NwsMsg>, sys: &NwsSystem, event: &Event| {
            let t = eng.now().as_secs();
            match event {
                Event::Crash { host } => crashes.push((Some(host.clone()), t)),
                Event::MemoryCrash { .. } => {
                    witnesses.push(dump_series(sys));
                    crashes.push((None, t));
                }
                Event::MemoryKill { .. } => witnesses.push(dump_series(sys)),
                _ => {}
            }
        };
        let healed = sys
            .run_schedule(&mut eng, &schedule(&names), until, TimeDelta::from_secs(1.0), on_event)
            .expect("every scheduled host resolves and every heal succeeds")
            .len();

        let record = StoredRecord::of(&eng, &sys);
        let prefix_intact = witnesses.iter().all(|w| prefix_intact(w, &record.series));
        Run { record, crashes, healed, disk: sys.disks.total_stats(), prefix_intact }
    };
    let run = once();
    assert!(run == once(), "{tier}: two identical runs diverged");
    assert_eq!(
        run.record.double_counted, 0,
        "{tier}: a retried or replayed store was counted twice"
    );
    assert!(run.prefix_intact, "{tier}: a restart rewrote stored history");
    run
}

/// One typed table cell. A cell reads the same on stdout and in a golden
/// file, except that JSON quotes strings and has no infinity.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    Int(i64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    /// A 64-bit fingerprint, as sixteen hex digits.
    Hex(u64),
    List(Vec<Cell>),
    Map(Vec<(&'static str, Cell)>),
}

impl Cell {
    /// The crate's only JSON emitter. The document (`depth` 0) puts one
    /// key per line and a list of rows under it one row per line;
    /// everything deeper is inline.
    fn json(&self, depth: usize) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Fixed(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Cell::Fixed(..) => "null".to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Str(s) => {
                assert!(
                    !s.contains(['"', '\\']) && !s.chars().any(char::is_control),
                    "{s:?} would need JSON escaping"
                );
                format!("\"{s}\"")
            }
            Cell::Hex(v) => format!("\"{v:016x}\""),
            Cell::List(items) => {
                let parts: Vec<String> = items.iter().map(|c| c.json(depth + 1)).collect();
                if depth == 1 && matches!(items.first(), Some(Cell::Map(_))) {
                    format!("[\n    {}\n  ]", parts.join(",\n    "))
                } else {
                    format!("[{}]", parts.join(", "))
                }
            }
            Cell::Map(fields) => {
                let parts: Vec<String> =
                    fields.iter().map(|(k, v)| format!("\"{k}\": {}", v.json(depth + 1))).collect();
                if depth == 0 {
                    format!("{{\n  {}\n}}\n", parts.join(",\n  "))
                } else {
                    format!("{{{}}}", parts.join(", "))
                }
            }
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Str(s) => out.pad(s),
            Cell::Hex(v) => out.pad(&format!("{v:016x}")),
            // Any depth past the document's two laid-out levels is inline.
            other => out.pad(&other.json(2)),
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Cell {
        Cell::Int(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(i64::try_from(v).expect("a count fits i64"))
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(i64::try_from(v).expect("a count fits i64"))
    }
}

/// What a golden `BENCH_*.json` says about itself ahead of its rows.
pub struct Golden {
    pub bench: &'static str,
    /// The generating binary (`env!("CARGO_BIN_NAME")`): CI runs whatever
    /// the file's `generated_by` names, and with `file` it spells the
    /// regeneration command.
    pub bin: &'static str,
    /// The committed file, and the default output path.
    pub file: &'static str,
    pub seed: u64,
    /// The run's fixed configuration (`hosts`, `schedule`, …).
    pub config: Vec<(&'static str, Cell)>,
    pub rows_key: &'static str,
}

/// Rows of typed cells under fixed headers: the fixed-width stdout table
/// of every experiment binary and, through [`Table::write_golden`], the
/// rows of a golden file — one set of rows, so the two cannot disagree.
pub struct Table {
    headers: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(headers: &[&'static str]) -> Self {
        Table { headers: headers.to_vec(), rows: Vec::new() }
    }

    pub fn row<C: Into<Cell>>(&mut self, cells: Vec<C>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.to_string().len());
            }
        }
        fn line<D: std::fmt::Display>(cells: &[D], widths: &[usize]) -> String {
            let cols: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect();
            format!("  {}\n", cols.join("  "))
        }
        let mut out = line(&self.headers, &widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&format!("  {}\n", "-".repeat(total.saturating_sub(2))));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Print the table, then write the same rows as the golden file `g`
    /// describes — to the path given as the first argument, else `g.file`.
    pub fn write_golden(&self, g: Golden) {
        self.print();
        let rows = self
            .rows
            .iter()
            .map(|r| Cell::Map(self.headers.iter().copied().zip(r.iter().cloned()).collect()))
            .collect();
        let command = format!("cargo run --release -p nws-bench --bin {} -- {}", g.bin, g.file);
        let mut doc = vec![
            ("bench", g.bench.into()),
            ("generated_by", g.bin.into()),
            ("seed", g.seed.into()),
            ("command", command.into()),
        ];
        doc.extend(g.config);
        doc.push((g.rows_key, Cell::List(rows)));
        let path = std::env::args().nth(1).unwrap_or_else(|| g.file.to_string());
        #[expect(clippy::disallowed_methods, reason = "D7: the golden file is this run's output")]
        std::fs::write(&path, Cell::Map(doc).json(0))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// Format a float with fixed decimals for table cells.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn mapping_pipeline_runs() {
        let m = map_ens_lyon();
        assert_eq!(m.merged.network_count(), 4);
        assert_eq!(m.outside.view.networks.len(), 2);
        assert!(m.inside.stats.bw_probes > 0);
    }

    /// DESIGN.md §3 has one row per file of `src/bin/`, each naming
    /// something automated that reads the binary's result, and exactly one
    /// row per experiment id of `repro_summary`; the ids are unique.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "D7: the test reads the repository's sources")]
    fn wiring_table_matches_the_binaries() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let design = std::fs::read_to_string(root.join("../../DESIGN.md")).expect("DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("§3 ")).expect("DESIGN.md §3");
        // (first cell, last cell) of every row that starts with a code span.
        let rows: Vec<(&str, &str)> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.strip_suffix(" |"))
            .map(|row| {
                let (key, rest) = row.split_once("` | ").expect("a code span, then more cells");
                (key, rest.rsplit(" | ").next().expect("a last cell"))
            })
            .collect();
        let ids: BTreeSet<&str> = experiments::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), experiments::EXPERIMENTS.len(), "experiment ids repeat");
        for id in &ids {
            let n = rows.iter().filter(|(key, _)| key == id).count();
            assert_eq!(n, 1, "DESIGN.md §3 rows for experiment {id}");
        }
        let bin_rows: BTreeMap<&str, &str> =
            rows.into_iter().filter(|(key, _)| !ids.contains(key)).collect();
        let bins: BTreeSet<String> = std::fs::read_dir(root.join("src/bin"))
            .expect("src/bin")
            .map(|entry| entry.expect("a directory entry").path())
            .map(|path| path.file_stem().expect("a file name").to_string_lossy().into_owned())
            .collect();
        let rowed: BTreeSet<String> = bin_rows.keys().map(|bin| bin.to_string()).collect();
        assert_eq!(rowed, bins, "DESIGN.md §3 rows against the files of src/bin/");
        for (bin, consumer) in bin_rows {
            assert!(
                !consumer.is_empty() && !consumer.contains("nothing automated"),
                "{bin} is consumed by: {consumer:?}"
            );
        }
    }

    /// DESIGN.md §13 has one row per `pub` field of every config struct it
    /// names, and every row's "second value set by" cell names a file that
    /// exists and mentions the field: a new knob has to say who needs it.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "D7: the test reads the repository's sources")]
    fn config_table_matches_the_structs() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: &str| {
            std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        fn path(cell: &str) -> &str {
            cell.split('`').nth(1).expect("a path in backticks")
        }
        let design = read("DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("§13 ")).expect("DESIGN.md §13");
        // (struct, declaring file) → the fields the table gives it.
        let mut tabled: BTreeMap<(&str, &str), BTreeSet<&str>> = BTreeMap::new();
        for row in section.lines().filter_map(|l| l.strip_prefix("| `")?.strip_suffix(" |")) {
            let cells: Vec<&str> = row.split(" | ").collect();
            let [knob, declared, _default, setter] = cells[..] else { continue };
            let (name, field) = knob.trim_end_matches('`').split_once('.').expect("Struct.field");
            tabled.entry((name, path(declared))).or_default().insert(field);
            assert!(
                read(path(setter)).contains(field),
                "{} never mentions {name}.{field}",
                path(setter)
            );
        }
        assert_eq!(tabled.len(), 8, "config structs in the table");
        for ((name, file), fields) in tabled {
            let source = read(file);
            let body = source
                .split_once(&format!("pub struct {name} {{\n"))
                .and_then(|(_, rest)| rest.split_once("\n}"))
                .unwrap_or_else(|| panic!("{file} declares no struct {name}"))
                .0;
            let declared: BTreeSet<&str> = body
                .lines()
                .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(':'))
                .map(|(field, _)| field)
                .collect();
            assert_eq!(declared, fields, "{name}'s pub fields against its DESIGN.md §13 rows");
        }
    }

    /// The files of a crate's own that may make one of its items `pub`: the
    /// three that own a `#[global_allocator]`, which a lib test binary would
    /// share with every unit test, and a differential whose fixed proptest
    /// cases change with its module path (DESIGN.md §1 "Test seams").
    const OWN_TEST_SEAMS: [&str; 4] = [
        "crates/netsim/tests/alloc_free.rs",
        "crates/netsim/tests/settle_differential.rs",
        "crates/nws/tests/deploy_alloc.rs",
        "crates/nws/tests/write_path_alloc.rs",
    ];

    /// Every row of DESIGN.md §1's test-seam table names an item its file
    /// still declares `pub`, and test files that exist and mention it, at
    /// least one of them outside the declaring crate or in
    /// [`OWN_TEST_SEAMS`]: the crate's other tests are unit tests.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "D7: the test reads the repository's sources")]
    fn test_seams_table_matches_the_code() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: &str| {
            std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let design = read("DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("§1 ")).expect("DESIGN.md §1");
        let table = section.split_once("### Test seams").expect("a test-seam table").1;
        let mut rows = 0;
        for row in table.lines().filter_map(|l| l.strip_prefix("| `")?.strip_suffix(" |")) {
            let cells: Vec<&str> = row.split(" | ").collect();
            let [item, declared, callers] = cells[..] else { panic!("three cells: {row}") };
            let item = item.trim_end_matches('`');
            let (ty, name) = item.rsplit_once("::").map_or((None, item), |(t, n)| (Some(t), n));
            let source = read(declared.trim_matches('`'));
            let declares = |prefix: &str| {
                source.lines().any(|l| {
                    l.trim_start()
                        .strip_prefix(prefix)
                        .and_then(|rest| rest.strip_prefix(name))
                        .is_some_and(|rest| rest.starts_with(['(', '<', ':']))
                })
            };
            assert!(
                ["pub fn ", "pub const fn ", "pub const "].into_iter().any(declares),
                "{declared} declares no pub {item}"
            );
            if let Some(ty) = ty {
                assert!(source.contains(ty), "{declared} never mentions {ty}");
            }
            let own = declared.trim_matches('`').split("src/").next().expect("a crate directory");
            assert!(
                callers
                    .split(", ")
                    .map(|c| c.trim_matches('`'))
                    .any(|c| !c.starts_with(own) || OWN_TEST_SEAMS.contains(&c)),
                "{item}: only {own}'s own tests call it; make them unit tests and narrow it"
            );
            for caller in callers.split(", ") {
                let text = read(caller.trim_matches('`'));
                let mentions = match ty {
                    Some(ty) => {
                        text.contains(&format!(".{name}("))
                            || text.contains(&format!("{ty}::{name}"))
                    }
                    None => text.contains(&format!("{name}(")),
                };
                assert!(mentions, "{caller} never mentions {item}");
            }
            rows += 1;
        }
        assert!(rows > 0, "the test-seam table has rows");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "value"]);
        t.row(vec!["1", "10.5"]);
        t.row(vec![Cell::from(20usize), Cell::Fixed(3.25, 2)]);
        let s = t.render();
        assert!(s.contains(" n"));
        assert!(s.contains("20   3.25"));
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn json_puts_rows_on_lines_and_everything_deeper_inline() {
        let row = |ratio| {
            Cell::Map(vec![
                ("fp", Cell::Hex(0xab)),
                ("ratio", Cell::Fixed(ratio, 2)),
                ("pts", Cell::List(vec![4usize.into(), 7usize.into()])),
            ])
        };
        let doc = Cell::Map(vec![
            ("bench", "x".into()),
            ("stages", Cell::List(vec!["map".into(), "plan".into()])),
            ("rows", Cell::List(vec![row(1.5), row(f64::INFINITY)])),
        ]);
        assert_eq!(
            doc.json(0),
            "{\n  \"bench\": \"x\",\n  \"stages\": [\"map\", \"plan\"],\n  \"rows\": [\n    \
             {\"fp\": \"00000000000000ab\", \"ratio\": 1.50, \"pts\": [4, 7]},\n    \
             {\"fp\": \"00000000000000ab\", \"ratio\": null, \"pts\": [4, 7]}\n  ]\n}\n"
        );
    }
}
