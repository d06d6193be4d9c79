//! # Simulated durable storage — the disk under the durability plane
//!
//! Real NWS memory hosts persist their measurement record; a simulation
//! that wants *true* crash-recovery (kill a process, rebuild it from what
//! survived) needs a disk with the same failure semantics, not a `Vec` that
//! conveniently survives because the harness kept a second `Rc` to it.
//!
//! [`SimDisk`] models one host's local filesystem as named byte files with
//! the only distinction that matters for crash-recovery: bytes that have
//! been **fsynced** (on stable storage, survive anything) versus bytes that
//! are merely **written** (in the page cache, survive a *process* crash but
//! not a *host* crash). The primitives are the ones a write-ahead log
//! needs:
//!
//! * [`SimDisk::append`] — buffered write to the tail of a file,
//! * [`SimDisk::fsync`] — flush a file's cached tail to stable storage,
//! * [`SimDisk::write_image`] — replace a file's contents with a
//!   [`DiskImage`] and fsync it: one call for a snapshot,
//! * [`SimDisk::read`] — read the full current contents (cache included),
//! * [`SimDisk::truncate`] / [`SimDisk::rename`] —
//!   metadata operations, modeled atomic and immediately durable, as on a
//!   journaled filesystem,
//! * [`SimDisk::crash`] — a host/power failure: every file keeps its synced
//!   bytes plus a **random prefix** of its cached tail (the torn tail /
//!   partial flush a real kernel produces when power dies mid-writeback).
//!
//! ## Determinism: the fixed-draw discipline
//!
//! Torn tails follow the same rule as [`crate::faults`]: a crash consumes
//! exactly **one uniform draw per file**, in sorted file-name order, whether
//! or not the file has any unsynced bytes to tear. The fault stream is
//! therefore a function of the crash sequence and the set of file names
//! alone — never of buffer sizes or incidental call order — so two runs
//! with the same seed produce bit-identical torn tails, and adding a
//! fault-free file to a workload does not shift the draws of the others
//! within a crash.
//!
//! ## Time
//!
//! The engine's processes handle each event atomically; a blocking disk
//! would need coroutine machinery the actor model deliberately avoids.
//! Instead the disk *accounts* time: every operation charges a
//! cost (`FSYNC_S`, `PER_BYTE_S`) to [`DiskStats::busy_s`], so experiments
//! can report how much I/O time a protocol would have spent (and compare
//! fsync-heavy against lazy policies) without perturbing event order.
//!
//! ## Deferred images
//!
//! A file written by [`SimDisk::write_image`] holds the image itself, not
//! its bytes: the disk asks the image for them ([`DiskImage::write_to`])
//! only when something reads the file (or appends to it), and keeps them
//! from then on. Its length, a rename, a removal and a crash need no
//! bytes. The accounting is the bytes' — [`DiskStats`] cannot tell a
//! deferred image from `truncate`, `append` and `fsync` of what it
//! produces.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Fixed cost per fsync, seconds (head seek + cache flush barrier): ~5 ms
/// on a commodity 2003-era IDE disk, the hardware under the paper's
/// testbed hosts.
pub(crate) const FSYNC_S: f64 = 5e-3;
/// Transfer cost per byte moved, seconds (append, read, or flush): ~40 MB/s
/// sequential on the same disk.
pub(crate) const PER_BYTE_S: f64 = 1.0 / 40.0e6;

/// Operation counters and accounted I/O time for one disk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    pub appends: u64,
    pub bytes_appended: u64,
    pub fsyncs: u64,
    pub bytes_synced: u64,
    pub reads: u64,
    pub bytes_read: u64,
    pub truncates: u64,
    pub renames: u64,
    pub crashes: u64,
    /// Unsynced bytes destroyed by crashes (the torn tails).
    pub bytes_torn: u64,
    /// Accounted I/O busy time, seconds (see module doc).
    pub busy_s: f64,
}

/// Durable content whose bytes are produced only when they are read (see
/// the module doc).
pub trait DiskImage: std::fmt::Debug {
    /// The number of bytes [`DiskImage::write_to`] appends.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the image's bytes to `out`: exactly [`DiskImage::len`] of
    /// them.
    fn write_to(&self, out: &mut Vec<u8>);
}

/// An image already encoded.
impl DiskImage for Vec<u8> {
    fn len(&self) -> usize {
        self.len()
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

/// One file: the durable prefix and the cached (unsynced) tail. While
/// `image` is set its bytes are the durable prefix, and both buffers are
/// empty.
#[derive(Debug, Default)]
struct SimFile {
    image: Option<Rc<dyn DiskImage>>,
    synced: Vec<u8>,
    unsynced: Vec<u8>,
}

impl SimFile {
    fn len(&self) -> usize {
        self.image.as_ref().map_or(0, |img| img.len()) + self.synced.len() + self.unsynced.len()
    }

    /// Produce a deferred image's bytes as the durable prefix; from here on
    /// the file is plain bytes.
    fn materialize(&mut self) -> &mut SimFile {
        if let Some(img) = self.image.take() {
            let n = img.len();
            self.synced.reserve_exact(n);
            img.write_to(&mut self.synced);
            assert_eq!(self.synced.len(), n, "a disk image wrote other than its length");
        }
        self
    }
}

/// One host's simulated local filesystem. Usually handled through a
/// [`DiskHandle`] shared between the owning process and the harness (the
/// engine is single-threaded, so `Rc<RefCell<_>>` is the idiom — the same
/// one the NWS memory handles use).
#[derive(Debug)]
pub struct SimDisk {
    host: String,
    files: BTreeMap<String, SimFile>,
    stats: DiskStats,
    /// Armed fault stream for torn tails. `None` = crashes keep no
    /// unsynced bytes at all (the conservative default).
    rng: Option<SmallRng>,
}

/// Shared handle to a host's disk.
pub type DiskHandle = Rc<RefCell<SimDisk>>;

/// FNV-1a 64-bit, bytewise. Its values are contract — they derive the
/// per-host fault stream from one seed (so every torn-tail draw), place
/// series on shards and fingerprint `BENCH_pipeline.json` — so it stays
/// bytewise; the WAL's faster word-wise checksum is `nws::wal::checksum`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SimDisk {
    /// A fresh, empty disk for `host`, with no fault stream armed.
    pub fn new(host: &str) -> DiskHandle {
        Rc::new(RefCell::new(SimDisk {
            host: host.to_string(),
            files: BTreeMap::new(),
            stats: DiskStats::default(),
            rng: None,
        }))
    }

    /// Arm the torn-tail fault stream. The stream is derived from the
    /// given seed *and* the host name, so every disk in a deployment gets
    /// an independent — but seed-reproducible — sequence.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.rng = Some(SmallRng::seed_from_u64(seed ^ fnv1a64(self.host.as_bytes())));
    }

    /// `file`'s entry, created if absent; the name is copied only then.
    fn file_mut(&mut self, file: &str) -> &mut SimFile {
        if !self.files.contains_key(file) {
            self.files.insert(file.to_string(), SimFile::default());
        }
        self.files.get_mut(file).expect("present or just inserted")
    }

    /// Buffered write to the tail of `file` (created if absent). The bytes
    /// land in the cache: they survive a process crash, not a host crash.
    pub fn append(&mut self, file: &str, data: &[u8]) {
        self.file_mut(file).materialize().unsynced.extend_from_slice(data);
        self.account_append(data.len());
    }

    fn account_append(&mut self, n: usize) {
        self.stats.appends += 1;
        self.stats.bytes_appended += n as u64;
        self.stats.busy_s += n as f64 * PER_BYTE_S;
    }

    /// Flush `file`'s cached tail to stable storage. A no-op (beyond the
    /// barrier cost) when there is nothing to flush.
    pub fn fsync(&mut self, file: &str) {
        let f = self.file_mut(file).materialize();
        let n = f.unsynced.len();
        if f.synced.is_empty() {
            std::mem::swap(&mut f.synced, &mut f.unsynced);
        } else {
            f.synced.append(&mut f.unsynced);
        }
        self.account_fsync(n);
    }

    fn account_fsync(&mut self, n: usize) {
        self.stats.fsyncs += 1;
        self.stats.bytes_synced += n as u64;
        self.stats.busy_s += FSYNC_S + n as f64 * PER_BYTE_S;
    }

    /// Replace `file`'s contents (created if absent) with `image` and fsync
    /// it: a `truncate`, an `append` of the image's bytes and an `fsync`,
    /// with exactly their stats, but the bytes are produced only if
    /// something reads them (see the module doc).
    pub fn write_image(&mut self, file: &str, image: Rc<dyn DiskImage>) {
        let n = image.len();
        *self.file_mut(file) = SimFile { image: Some(image), ..SimFile::default() };
        self.stats.truncates += 1;
        self.account_append(n);
        self.account_fsync(n);
    }

    /// Full current contents of `file` — durable prefix plus cached tail —
    /// or `None` if it does not exist. A deferred image produces its bytes
    /// here, once.
    pub fn read(&mut self, file: &str) -> Option<Vec<u8>> {
        let f = self.files.get_mut(file)?.materialize();
        let mut out = f.synced.clone();
        out.extend_from_slice(&f.unsynced);
        self.stats.reads += 1;
        self.stats.bytes_read += out.len() as u64;
        self.stats.busy_s += out.len() as f64 * PER_BYTE_S;
        Some(out)
    }

    /// Current length of `file` (0 if absent).
    pub fn len(&self, file: &str) -> usize {
        self.files.get(file).map_or(0, SimFile::len)
    }

    pub fn exists(&self, file: &str) -> bool {
        self.files.contains_key(file)
    }

    /// Truncate `file` to empty. Metadata operation: atomic and durable
    /// (journaled-filesystem semantics), creates the file if absent.
    pub fn truncate(&mut self, file: &str) {
        let f = self.file_mut(file);
        f.image = None;
        f.synced.clear();
        f.unsynced.clear();
        self.stats.truncates += 1;
    }

    /// Atomically rename `from` over `to` (the `rename(2)` publish idiom).
    /// Durable for the *name*; the caller must fsync the data first if it
    /// wants the contents to survive a crash — exactly the real contract.
    pub fn rename(&mut self, from: &str, to: &str) {
        self.stats.renames += 1;
        let Some(f) = self.files.remove(from) else { return };
        self.files.insert(to.to_string(), f);
    }

    /// Host/power failure: every file keeps its synced bytes plus a random
    /// prefix of its cached tail. Consumes exactly one uniform draw per
    /// file, in sorted name order, even for files with an empty cache —
    /// see the module doc's fixed-draw discipline. With no fault stream
    /// armed, the cache is lost entirely (keep-nothing is the conservative
    /// deterministic default).
    pub fn crash(&mut self) {
        self.stats.crashes += 1;
        for f in self.files.values_mut() {
            let keep = match &mut self.rng {
                // `+1` so "everything flushed" is drawable too.
                Some(rng) => (rng.next_u64() % (f.unsynced.len() as u64 + 1)) as usize,
                None => 0,
            };
            self.stats.bytes_torn += (f.unsynced.len() - keep) as u64;
            f.synced.extend_from_slice(&f.unsynced[..keep]);
            f.unsynced.clear();
        }
    }

    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

/// Per-host disk registry for a deployment: hands out [`DiskHandle`]s on
/// demand and owns the shared fault seed, so that a disk created lazily at
/// heal time gets the same stream it would have had at deploy time.
#[derive(Debug, Default)]
pub struct DiskRegistry {
    disks: BTreeMap<String, DiskHandle>,
    fault_seed: Option<u64>,
}

impl DiskRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or re-arm) every present and future disk's torn-tail stream.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_seed = Some(seed);
        for d in self.disks.values() {
            d.borrow_mut().set_fault_seed(seed);
        }
    }

    /// The disk for `host`, created empty on first use.
    pub fn disk(&mut self, host: &str) -> DiskHandle {
        if let Some(d) = self.disks.get(host) {
            return Rc::clone(d);
        }
        let d = SimDisk::new(host);
        if let Some(seed) = self.fault_seed {
            d.borrow_mut().set_fault_seed(seed);
        }
        self.disks.insert(host.to_string(), Rc::clone(&d));
        d
    }

    /// Host/power failure for `host`'s disk (no-op if it has no disk yet —
    /// an empty disk has nothing to tear).
    pub fn crash_host(&mut self, host: &str) {
        if let Some(d) = self.disks.get(host) {
            d.borrow_mut().crash();
        }
    }

    /// Aggregate stats across every disk (for experiment reporting).
    pub fn total_stats(&self) -> DiskStats {
        let mut t = DiskStats::default();
        for d in self.disks.values() {
            let s = d.borrow().stats();
            t.appends += s.appends;
            t.bytes_appended += s.bytes_appended;
            t.fsyncs += s.fsyncs;
            t.bytes_synced += s.bytes_synced;
            t.reads += s.reads;
            t.bytes_read += s.bytes_read;
            t.truncates += s.truncates;
            t.renames += s.renames;
            t.crashes += s.crashes;
            t.bytes_torn += s.bytes_torn;
            t.busy_s += s.busy_s;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl SimDisk {
        /// Delete `file` (atomic, durable).
        fn remove(&mut self, file: &str) {
            self.files.remove(file);
        }
    }

    impl DiskRegistry {
        fn hosts(&self) -> Vec<String> {
            self.disks.keys().cloned().collect()
        }
    }

    #[test]
    fn append_then_read_round_trips_without_fsync() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.append("wal", b"hello ");
        d.append("wal", b"world");
        assert_eq!(d.read("wal").unwrap(), b"hello world");
        assert_eq!(d.len("wal"), 11);
        assert!(d.read("other").is_none());
    }

    #[test]
    fn crash_without_fault_stream_keeps_only_synced_bytes() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.append("wal", b"durable");
        d.fsync("wal");
        d.append("wal", b" lost");
        d.crash();
        assert_eq!(d.read("wal").unwrap(), b"durable");
        assert_eq!(d.stats().bytes_torn, 5);
    }

    #[test]
    fn crash_with_fault_stream_keeps_a_prefix_of_the_tail() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.set_fault_seed(42);
        d.append("wal", b"durable|");
        d.fsync("wal");
        d.append("wal", b"cached tail");
        d.crash();
        let got = d.read("wal").unwrap();
        assert!(got.starts_with(b"durable|"), "synced prefix must survive");
        let tail = &got[8..];
        assert!(b"cached tail".starts_with(tail), "tail must be a prefix, got {tail:?}");
    }

    #[test]
    fn crashes_are_deterministic_per_seed_and_host() {
        let run = |seed: u64| {
            let d = SimDisk::new("h0");
            let mut d = d.borrow_mut();
            d.set_fault_seed(seed);
            let mut out = Vec::new();
            for round in 0..20 {
                d.append("a.wal", &[round; 13]);
                d.append("b.wal", &[round; 7]);
                if round % 3 == 0 {
                    d.fsync("a.wal");
                }
                d.crash();
                out.push((d.read("a.wal").unwrap(), d.read("b.wal").unwrap()));
            }
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should tear differently");
    }

    #[test]
    fn fixed_draw_discipline_draws_once_per_file_even_when_empty() {
        // Two disks, same seed. Disk A crashes with an extra fully-synced
        // file present; disk B without it. The torn tail of the shared
        // file must be identical: the empty file still consumed its draw
        // in name order, so the stream stays aligned by construction —
        // and the draw for "a.wal" (first in sorted order) is unaffected
        // by files sorting after it.
        let mk = |with_extra: bool| {
            let d = SimDisk::new("h0");
            let mut d = d.borrow_mut();
            d.set_fault_seed(1234);
            d.append("a.wal", b"0123456789abcdef");
            if with_extra {
                d.append("z.snap", b"synced");
                d.fsync("z.snap");
            }
            d.crash();
            d.read("a.wal").unwrap()
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn rename_is_atomic_publish() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.append("snap.new", b"v2");
        d.fsync("snap.new");
        d.append("snap", b"v1");
        d.fsync("snap");
        d.rename("snap.new", "snap");
        assert_eq!(d.read("snap").unwrap(), b"v2");
        assert!(!d.exists("snap.new"));
        d.rename("snap", "snap.old");
        d.rename("missing", "snap.old");
        assert_eq!(d.read("snap.old").unwrap(), b"v2");
        assert_eq!(d.stats().renames, 3);
    }

    #[test]
    fn truncate_clears_both_layers() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.append("wal", b"synced");
        d.fsync("wal");
        d.append("wal", b"cached");
        d.truncate("wal");
        assert_eq!(d.len("wal"), 0);
        assert!(d.exists("wal"));
    }

    #[test]
    fn registry_hands_out_one_disk_per_host_and_crashes_by_host() {
        let mut reg = DiskRegistry::new();
        reg.set_fault_seed(9);
        let a = reg.disk("a");
        let a2 = reg.disk("a");
        assert!(Rc::ptr_eq(&a, &a2));
        a.borrow_mut().append("wal", b"tail");
        reg.crash_host("a");
        reg.crash_host("ghost"); // no disk yet: no-op
        assert_eq!(a.borrow().stats().crashes, 1);
        assert_eq!(reg.total_stats().crashes, 1);
        assert_eq!(reg.hosts(), vec!["a".to_string()]);
    }

    #[test]
    fn time_accounting_accumulates() {
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.append("wal", b"ab");
        d.fsync("wal");
        assert!((d.stats().busy_s - (FSYNC_S + 4.0 * PER_BYTE_S)).abs() < 1e-12);
    }

    /// An image of `len` copies of `byte` that counts its `write_to` calls.
    #[derive(Debug)]
    struct Counted {
        len: usize,
        byte: u8,
        writes: Rc<std::cell::Cell<u32>>,
    }

    impl DiskImage for Counted {
        fn len(&self) -> usize {
            self.len
        }

        fn write_to(&self, out: &mut Vec<u8>) {
            self.writes.set(self.writes.get() + 1);
            out.resize(out.len() + self.len, self.byte);
        }
    }

    #[test]
    fn an_image_produces_its_bytes_only_when_read_and_only_once() {
        let writes = Rc::new(std::cell::Cell::new(0));
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.set_fault_seed(5);
        d.append("snap.new", b"stale");
        d.write_image("snap.new", Rc::new(Counted { len: 300, byte: 7, writes: writes.clone() }));
        assert_eq!(d.len("snap.new"), 300);
        d.rename("snap.new", "snap");
        assert_eq!(d.len("snap"), 300);
        d.crash();
        d.append("wal", b"x");
        d.remove("wal");
        assert_eq!(writes.get(), 0, "len, rename, crash and remove produce no bytes");
        assert_eq!(d.stats().bytes_torn, 0, "an image has no cached tail to tear");
        assert_eq!(d.read("snap").unwrap(), vec![7; 300]);
        assert_eq!(d.read("snap").unwrap(), vec![7; 300]);
        assert_eq!(writes.get(), 1, "two reads produce the bytes once");
        let s = d.stats();
        assert_eq!((s.truncates, s.appends, s.bytes_appended), (1, 3, 306));
        assert_eq!((s.fsyncs, s.bytes_synced, s.reads, s.bytes_read), (1, 300, 2, 600));
    }

    #[test]
    #[should_panic(expected = "a disk image wrote other than its length")]
    fn an_image_that_writes_other_than_its_length_is_refused() {
        #[derive(Debug)]
        struct Short;
        impl DiskImage for Short {
            fn len(&self) -> usize {
                4
            }
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(b"abc");
            }
        }
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.write_image("snap", Rc::new(Short));
        d.read("snap");
    }

    /// Run `ops` — `(kind, file, length)` triples — on a fresh disk with an
    /// armed fault stream; kind 2 replaces the file with `length` bytes,
    /// by [`SimDisk::write_image`] iff `images`, else by `truncate`,
    /// `append` and `fsync`. Every byte any `read` returned, then the final
    /// stats.
    fn run_ops(ops: &[(u8, u8, u8)], images: bool) -> (Vec<Option<Vec<u8>>>, DiskStats) {
        const FILES: [&str; 3] = ["a.wal", "a.snap", "a.snap.new"];
        let d = SimDisk::new("h0");
        let mut d = d.borrow_mut();
        d.set_fault_seed(2004);
        let mut seen = Vec::new();
        for (i, &(kind, file, len)) in ops.iter().enumerate() {
            let name = FILES[usize::from(file) % 3];
            let data = vec![i as u8; usize::from(len)];
            match kind {
                0 | 1 => d.append(name, &data),
                2 if images => d.write_image(name, Rc::new(data)),
                2 => {
                    d.truncate(name);
                    d.append(name, &data);
                    d.fsync(name);
                }
                3 => d.fsync(name),
                4 => d.truncate(name),
                5 => d.rename(name, FILES[(usize::from(file) + 1) % 3]),
                6 => seen.push(d.read(name)),
                7 => seen.push(Some(vec![0; d.len(name)])),
                8 => d.remove(name),
                _ => d.crash(),
            }
        }
        seen.extend(FILES.map(|f| d.read(f)));
        (seen, d.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A deferred image is invisible: the same reads and lengths, the
        /// same torn tails after it is appended to, renamed or crashed
        /// over, the same stats down to `busy_s`'s bits as writing and
        /// syncing its bytes.
        #[test]
        fn an_image_is_its_bytes_written_and_synced(
            ops in proptest::collection::vec((0u8..10, 0u8..3, 0u8..40), 0..60),
        ) {
            let (bytes, byte_stats) = run_ops(&ops, false);
            let (images, image_stats) = run_ops(&ops, true);
            prop_assert_eq!(bytes, images);
            prop_assert_eq!(byte_stats, image_stats);
            prop_assert_eq!(byte_stats.busy_s.to_bits(), image_stats.busy_s.to_bits());
        }
    }
}
