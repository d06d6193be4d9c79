//! Record framing for the durable state plane: checksummed append-only-log
//! records and snapshot containers, plus the little-endian primitive codec
//! both share.
//!
//! ## Log record layout
//!
//! ```text
//! | len: u32 LE | seq: u64 LE | crc: u64 LE | payload (len bytes) |
//! ```
//!
//! `len` counts payload bytes only; `crc` is [`checksum`] over `seq` and
//! the payload, so a record torn anywhere — length header, seq, checksum
//! or body — fails verification. [`scan_wal`] walks records front to back
//! and stops at the first short or corrupt one: a crash-torn tail is
//! *detected and cleanly truncated on replay*, never half-applied.
//! Everything before the tear is intact by induction (each record's frame
//! is self-delimiting and self-checking).
//!
//! ## Snapshot container layout
//!
//! ```text
//! | magic: "NWSSNAP2" | log_seq: u64 LE | len: u32 LE | crc: u64 LE | body |
//! ```
//!
//! `crc` is [`checksum`] over `log_seq` and the body; `build_snapshot`
//! encodes the body behind a reserved header and seals it in place, so an
//! image is written once and never copied, and `snapshot_len` is its
//! length for a body of known length, without encoding it. `log_seq` is
//! the sequence number of the last log record folded into the snapshot:
//! replay applies only records with `seq > log_seq`, which makes the pair
//! (snapshot, log suffix) insensitive to a crash *after* snapshot
//! publication but *before* log truncation — the stale prefix is skipped
//! by seq, not by luck. A snapshot that fails magic/len/crc verification
//! (torn by a crash mid-write, before the atomic rename published it) is
//! treated as absent.

// ---------------------------------------------------------------------------
// Primitive little-endian codec
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// f64 via its IEEE-754 bit pattern: round-trips NaN payloads and signed
/// zeros exactly, which the replay-equals-live bit-identity suites require.
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Length-prefixed UTF-8.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over an encoded buffer. Every accessor returns `None` on
/// underrun instead of panicking: a decoder fed a torn or hostile buffer
/// reports failure and the caller falls back (skip the record, ignore the
/// snapshot).
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// All input consumed, nothing left over?
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed: all a decoded count may reserve for.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The durable plane's one checksum, over `seq` then `bytes`: FNV-1a's
/// xor–multiply folded over little-endian 8-byte words (`seq` is the
/// first), the ≤ 7 tail bytes folded singly. A multiply by an odd constant
/// leaves a flipped bit 63 where it is, so without the rotate two flips
/// at bit 63 of different words would cancel; the rotate carries it down
/// to where the next multiply spreads it.
pub fn checksum(seq: u64, bytes: &[u8]) -> u64 {
    let fold = |h: u64, w: u64| (h ^ w).rotate_left(32).wrapping_mul(FNV_PRIME);
    let mut words = bytes.chunks_exact(8);
    let mut h = fold(FNV_OFFSET, seq);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    words.remainder().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

const RECORD_HEADER: usize = 20;

/// Frame one record onto the end of `buf`: reserve the header, let
/// `encode_payload` write the payload behind it, seal the header over the
/// bytes where they lie. Returns the framed length (header + payload).
pub fn append_record(
    buf: &mut Vec<u8>,
    seq: u64,
    encode_payload: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = buf.len();
    buf.resize(start + RECORD_HEADER, 0);
    encode_payload(buf);
    let (header, payload) = buf[start..].split_at_mut(RECORD_HEADER);
    let len = u32::try_from(payload.len()).expect("a WAL record is far under 4 GiB");
    header[0..4].copy_from_slice(&len.to_le_bytes());
    header[4..12].copy_from_slice(&seq.to_le_bytes());
    header[12..20].copy_from_slice(&checksum(seq, payload).to_le_bytes());
    RECORD_HEADER + payload.len()
}

/// Result of walking a log image front to back.
pub struct WalScan {
    /// The verified records, in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Byte length of the verified prefix (the tear point, if any).
    pub valid_len: usize,
    /// Were trailing bytes discarded (torn tail / corrupt record)?
    pub torn: bool,
}

/// Walk `bytes` as a sequence of framed records, stopping cleanly at the
/// first short or checksum-failing one (see module doc).
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return WalScan { records, valid_len: pos, torn: false };
        }
        if rest.len() < RECORD_HEADER {
            return WalScan { records, valid_len: pos, torn: true };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let seq = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let crc = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
        if rest.len() - RECORD_HEADER < len {
            return WalScan { records, valid_len: pos, torn: true };
        }
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if checksum(seq, payload) != crc {
            return WalScan { records, valid_len: pos, torn: true };
        }
        records.push((seq, payload.to_vec()));
        pos += RECORD_HEADER + len;
    }
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

const SNAP_MAGIC: &[u8; 8] = b"NWSSNAP2";
const SNAP_HEADER: usize = 28;

/// The length of the image [`build_snapshot`] writes around a body of
/// `body_len` bytes.
pub(crate) const fn snapshot_len(body_len: usize) -> usize {
    SNAP_HEADER + body_len
}

/// Build a snapshot image in one pass onto the end of `out`, as
/// [`append_record`] frames a record. `false`, with `out` as it was, if
/// the body outgrew the `u32` length field: publishing that image would
/// replace a good snapshot with one that can never verify.
pub(crate) fn build_snapshot(
    out: &mut Vec<u8>,
    log_seq: u64,
    encode_body: impl FnOnce(&mut Vec<u8>),
) -> bool {
    let start = out.len();
    out.resize(start + SNAP_HEADER, 0);
    encode_body(out);
    let body_len = out.len() - start - SNAP_HEADER;
    let sealed = seal_snapshot(&mut out[start..], log_seq, body_len);
    if !sealed {
        out.truncate(start);
    }
    sealed
}

/// Fill in `img`'s header for a body of `body_len` bytes (always the rest
/// of `img`; a parameter so a test can fake 4 GiB). `false`, with `img`
/// untouched, if `body_len` does not fit the length field.
fn seal_snapshot(img: &mut [u8], log_seq: u64, body_len: usize) -> bool {
    let Ok(len) = u32::try_from(body_len) else { return false };
    let (header, body) = img.split_at_mut(SNAP_HEADER);
    header[0..8].copy_from_slice(SNAP_MAGIC);
    header[8..16].copy_from_slice(&log_seq.to_le_bytes());
    header[16..20].copy_from_slice(&len.to_le_bytes());
    header[20..28].copy_from_slice(&checksum(log_seq, body).to_le_bytes());
    true
}

/// Verify and unwrap a snapshot image. `None` means "no usable snapshot"
/// — missing, truncated, or corrupt — and the caller starts empty.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(u64, Vec<u8>)> {
    if bytes.len() < SNAP_HEADER || &bytes[0..8] != SNAP_MAGIC {
        return None;
    }
    let log_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    let crc = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if bytes.len() - SNAP_HEADER != len {
        return None;
    }
    let body = &bytes[SNAP_HEADER..];
    if checksum(log_seq, body) != crc {
        return None;
    }
    Some((log_seq, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(log: &mut Vec<u8>, seq: u64, payload: &[u8]) {
        append_record(log, seq, |b| b.extend_from_slice(payload));
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NEG_INFINITY);
        put_str(&mut buf, "bandwidthTcp:a.x/b.x");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f64(), Some(f64::NEG_INFINITY));
        assert_eq!(r.str(), Some("bandwidthTcp:a.x/b.x"));
        assert!(r.done());
        assert_eq!(r.u8(), None, "underrun reports None");
    }

    #[test]
    fn wal_round_trips_and_reports_clean_end() {
        let mut log = Vec::new();
        record(&mut log, 1, b"alpha");
        record(&mut log, 2, b"");
        record(&mut log, 3, b"gamma");
        let scan = scan_wal(&log);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, log.len());
        assert_eq!(
            scan.records,
            vec![(1, b"alpha".to_vec()), (2, Vec::new()), (3, b"gamma".to_vec())]
        );
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let mut log = Vec::new();
        record(&mut log, 1, b"first");
        let keep = log.len();
        record(&mut log, 2, b"second record payload");
        // A cut exactly on the record boundary is a clean end, not a tear.
        let at_boundary = scan_wal(&log[..keep]);
        assert!(!at_boundary.torn);
        assert_eq!(at_boundary.records.len(), 1);
        // Cut the log at every byte position strictly inside the second
        // record: the first must always survive, the second never
        // half-apply.
        for cut in keep + 1..log.len() {
            let scan = scan_wal(&log[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, keep, "cut at {cut}");
            assert!(scan.torn, "cut at {cut}");
        }
        assert!(!scan_wal(&log).torn);
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut log = Vec::new();
        record(&mut log, 1, b"first");
        let keep = log.len();
        record(&mut log, 2, b"second");
        let flip = keep + 22; // inside the second record's payload
        log[flip] ^= 0x40;
        let scan = scan_wal(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_damage() {
        let body = b"snapshot body bytes".to_vec();
        // Built behind bytes already in the buffer, which stay.
        let mut out = vec![7u8; 5];
        assert!(build_snapshot(&mut out, 41, |b| b.extend_from_slice(&body)));
        assert_eq!(out[..5], [7; 5]);
        let img = out.split_off(5);
        assert_eq!(img.len(), snapshot_len(body.len()));
        assert_eq!(decode_snapshot(&img), Some((41, body.clone())));
        // Truncated image: rejected.
        assert_eq!(decode_snapshot(&img[..img.len() - 1]), None);
        // Flipped body byte: rejected.
        let mut bad = img.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(decode_snapshot(&bad), None);
        // Wrong magic: rejected.
        let mut wrong = img;
        wrong[0] = b'X';
        assert_eq!(decode_snapshot(&wrong), None);
        // Empty: rejected.
        assert_eq!(decode_snapshot(b""), None);
    }

    #[test]
    fn a_body_past_the_u32_length_field_is_refused_not_wrapped() {
        let mut img = vec![0u8; SNAP_HEADER + 5];
        assert!(!seal_snapshot(&mut img, 41, u32::MAX as usize + 1));
        assert_eq!(img, vec![0u8; SNAP_HEADER + 5], "a refused seal writes nothing");
        assert!(seal_snapshot(&mut img, 41, 5));
        assert_eq!(decode_snapshot(&img), Some((41, vec![0u8; 5])));
    }
}
