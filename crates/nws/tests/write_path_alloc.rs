//! Heap budgets on the memory server's write path, by a counting allocator:
//!
//! * a series ring grows on demand — a default-capacity series holding a
//!   few points costs tens of bytes, not its 8 KiB bound;
//! * a store to a series no snapshot image shares allocates nothing (it
//!   is named by a `SeriesId`, so there is no key to clone);
//! * a compaction freezes the store instead of encoding it: a pointer per
//!   series plus the counters and the ledger, in a handful of blocks — the
//!   disk produces the image's bytes only if something reads them;
//! * the first store after a compaction into a ring the image shares
//!   copies that one ring, and the second copies nothing.
//!
//! Everything runs inside a single #[test] so no concurrent test pollutes
//! the global allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::disk::SimDisk;
use netsim::engine::ProcessId;
use nws::memory::MemoryStore;
use nws::msg::{Resource, SeriesKey};
use nws::persist::MemoryLog;
use nws::{Series, SeriesId, SeriesTable};

struct CountingAlloc;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the measuring (test) thread opts in, so allocations from
    // libtest's auxiliary threads never pollute the counters.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the `System` allocator — every contract
// (layout validity, pointer provenance) is delegated unchanged; the only
// addition is a side-effect-free bump of two atomic counters.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrown buffer is charged in full: it may move, copying it all.
        count(new_size);
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(blocks, bytes)` allocated while `f` runs.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    f();
    (BLOCKS.load(Ordering::Relaxed) - before.0, BYTES.load(Ordering::Relaxed) - before.1)
}

fn sender() -> ProcessId {
    ProcessId::from_raw(9)
}

const CAP: usize = 16;

/// One store per key, applied and logged as the live server does both.
fn store_and_log(store: &mut MemoryStore, log: &mut MemoryLog, keys: &[SeriesId], seq: &mut u64) {
    for &key in keys {
        *seq += 1;
        store.apply_store(sender(), *seq, key, *seq as f64, 0.5, CAP);
        log.log_store(sender(), *seq, key, *seq as f64, 0.5);
    }
}

#[test]
fn the_write_path_stays_inside_its_heap_budgets() {
    COUNTING.with(|c| c.set(true));

    // A sparse series costs what it holds, not the bound it evicts at.
    let mut series = None;
    let (_, bytes) = allocated(|| {
        let s = series.insert(Series::new(512));
        for i in 0..3 {
            assert!(s.push(f64::from(i), 1.0));
        }
    });
    assert!(bytes > 0, "the counter must see the ring's allocation");
    assert!(bytes < 256, "a 3-point series of capacity 512 allocated {bytes} B");

    // A 2 000-series store, every store logged as the live server logs it;
    // past the ring bound, so every ring is full and has wrapped.
    let disk = SimDisk::new("m0");
    let ids = SeriesTable::new();
    let (mut store, mut log) = MemoryLog::recover(disk.clone(), "memory", CAP, &ids);
    let keys: Vec<SeriesId> = (0..2000)
        .map(|i| {
            let key =
                SeriesKey::link(Resource::Bandwidth, &format!("host{i}.site.x"), "sink.site.x");
            ids.borrow_mut().intern(&key)
        })
        .collect();
    let mut seq = 0;
    for _ in 0..CAP + 3 {
        store_and_log(&mut store, &mut log, &keys, &mut seq);
    }

    // A store to a series no image shares: nothing at all. (Recovery's
    // compaction froze the store while it was empty.)
    let (blocks, bytes) = allocated(|| {
        for &key in &keys {
            seq += 1;
            let outcome = store.apply_store(sender(), seq, key, seq as f64, 0.5, CAP);
            assert!(outcome.first_time && !outcome.new_key);
        }
    });
    assert_eq!((blocks, bytes), (0, 0), "stores to unshared series allocated");

    // A compaction freezes the store: at most 16 B a series, in a handful
    // of blocks, for an image whose bytes the disk has not produced.
    let (blocks, bytes) = allocated(|| log.compact(&store));
    let image = disk.borrow().len("memory.snap") as u64;
    assert!(image > 200_000, "a {image}-byte image is too small to measure");
    let per_series = 16 * keys.len() as u64;
    assert!(bytes <= per_series, "compacting {} series allocated {bytes} B", keys.len());
    assert!(blocks <= 8, "compaction allocated {blocks} blocks");

    // The first store into a ring the image shares copies that ring — the
    // series' `Rc` and its full buffer, two blocks — and the second
    // copies nothing.
    let mut store_once = || {
        allocated(|| {
            seq += 1;
            store.apply_store(sender(), seq, keys[0], seq as f64, 0.5, CAP);
        })
    };
    let (blocks, bytes) = store_once();
    let ring = (CAP * size_of::<(f64, f64)>()) as u64;
    assert_eq!(blocks, 2, "the first store after a compaction allocated {blocks} blocks");
    assert!(
        (ring..ring + 128).contains(&bytes),
        "the first store after a compaction allocated {bytes} B for a {ring}-byte ring"
    );
    assert_eq!(store_once(), (0, 0), "the second store after a compaction allocated");
}
