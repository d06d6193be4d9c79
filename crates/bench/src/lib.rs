//! Shared plumbing for the figure/table regeneration binaries. See
//! DESIGN.md §3 for the experiment index.

pub mod experiments;

use envmap::{merge_runs, EnvConfig, EnvMapper, EnvRun, EnvView, HostInput};
use gridml::merge::GatewayAlias;
use netsim::scenarios::{ens_lyon, Calibration, EnsLyon};
use netsim::time::{SimTime, TimeDelta};
use netsim::{Engine, Sim};
use nws::{NwsMsg, NwsSystem, SeriesKey};

/// The six public hosts of the outside ENV run (paper §4.2).
pub fn outside_inputs() -> Vec<HostInput> {
    [
        "the-doors.ens-lyon.fr",
        "canaria.ens-lyon.fr",
        "moby.cri2000.ens-lyon.fr",
        "myri.ens-lyon.fr",
        "popc.ens-lyon.fr",
        "sci.ens-lyon.fr",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect()
}

/// The eleven private hosts of the inside ENV run.
pub fn inside_inputs() -> Vec<HostInput> {
    [
        "popc0.popc.private",
        "myri0.popc.private",
        "sci0.popc.private",
        "myri1.popc.private",
        "myri2.popc.private",
        "sci1.popc.private",
        "sci2.popc.private",
        "sci3.popc.private",
        "sci4.popc.private",
        "sci5.popc.private",
        "sci6.popc.private",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect()
}

/// The gateway aliases the user supplies for the merge (paper §4.3).
pub fn gateway_aliases() -> Vec<GatewayAlias> {
    vec![
        GatewayAlias::new("popc.ens-lyon.fr", "popc0.popc.private"),
        GatewayAlias::new("myri.ens-lyon.fr", "myri0.popc.private"),
        GatewayAlias::new("sci.ens-lyon.fr", "sci0.popc.private"),
    ]
}

/// Outcome of the full §4 mapping pipeline on ENS-Lyon.
pub struct MappedEnsLyon {
    pub platform: EnsLyon,
    pub outside: EnvRun,
    pub inside: EnvRun,
    pub merged: EnvView,
}

/// Run both ENV passes and the merge on a fresh ENS-Lyon platform.
pub fn map_ens_lyon() -> MappedEnsLyon {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .expect("outside run succeeds");
    let inside = mapper
        .map(&mut eng, &inside_inputs(), "sci0.popc.private", None)
        .expect("inside run succeeds");
    let merged = merge_runs(&outside, &inside, &gateway_aliases());
    MappedEnsLyon { platform, outside, inside, merged }
}

/// Every stored series, in key order, each as its `(t, value)` points.
pub type SeriesDump = Vec<(SeriesKey, Vec<(f64, f64)>)>;

/// The whole stored record of `sys`, as it stands now.
pub fn dump_series(sys: &NwsSystem) -> SeriesDump {
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
pub fn prefix_intact(before: &SeriesDump, after: &SeriesDump) -> bool {
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
    pub fn of(eng: &Engine<NwsMsg>, sys: &NwsSystem) -> StoredRecord {
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

/// Run `eng` to `t` in one-second steps, healing whatever the supervisor
/// reports dead after each; returns how many processes were healed.
pub fn supervised_until(eng: &mut Engine<NwsMsg>, sys: &mut NwsSystem, t: SimTime) -> usize {
    let mut healed = 0;
    while eng.now() < t {
        let next = (eng.now() + TimeDelta::from_secs(1.0)).min(t);
        eng.run_until(next);
        healed += sys.heal(eng).expect("heal succeeds").len();
    }
    healed
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

    pub fn render(&self) -> String {
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

    /// DESIGN.md §3 has one row per file of `src/bin/`, and every row
    /// names something automated that reads the binary's result.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "D7: the test reads the repository's sources")]
    fn wiring_table_matches_the_binaries() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let design = std::fs::read_to_string(root.join("../../DESIGN.md")).expect("DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("§3 ")).expect("DESIGN.md §3");
        let rows: BTreeMap<&str, &str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.strip_suffix(" |"))
            .map(|row| {
                let (bin, rest) = row.split_once("` | ").expect("a binary, then its class");
                (bin, rest.rsplit(" | ").next().expect("a consumed-by cell"))
            })
            .collect();
        let bins: BTreeSet<String> = std::fs::read_dir(root.join("src/bin"))
            .expect("src/bin")
            .map(|entry| entry.expect("a directory entry").path())
            .map(|path| path.file_stem().expect("a file name").to_string_lossy().into_owned())
            .collect();
        let rowed: BTreeSet<String> = rows.keys().map(|bin| bin.to_string()).collect();
        assert_eq!(rowed, bins, "DESIGN.md §3 rows against the files of src/bin/");
        for (bin, consumer) in rows {
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
        assert_eq!(tabled.len(), 9, "config structs in the table");
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
