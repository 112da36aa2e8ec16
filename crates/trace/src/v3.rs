//! Columnar `.replay` encoding (format version 3): replay straight from disk.
//!
//! Versions 1 and 2 interleave every field of every IO package, so a reader
//! must decode the whole stream into `Vec<Bunch>` heap objects before the
//! first bunch can be replayed. Version 3 splits the trace into *columns* —
//! timestamps, per-bunch IO counts, sectors, and size/kind words each in
//! their own delta+varint block — plus a fixed-width bunch index, so an
//! mmap-backed [`TraceView`] replays **directly from the mapped file**:
//!
//! ```text
//! magic    : b"TRCR"                        (shared with v1/v2)
//! version  : u16 LE = 3
//! dev_len  : u16 LE, device bytes
//! v3 header (fixed width, little-endian):
//!   bunch_count, io_count, duration_ns, total_bytes        4 × u64
//!   max_bunch_len, index_stride                            2 × u32
//!   ts_len, cnt_len, sec_len, sz_len, index_len            5 × u64
//!   ts_crc, cnt_crc, sec_crc, sz_crc                       4 × u32
//!   header_crc (over the 96 header bytes above)            1 × u32
//! ts  block : bunch_count varint timestamp deltas
//! cnt block : bunch_count varint IO counts
//! sec block : io_count zig-zag varint sector deltas (from the previous
//!             package's end sector, carried across bunches — v2's rule)
//! sz  block : io_count varint (bytes << 1 | is_write) words
//! index     : one 56-byte entry per `index_stride` bunches: the four block
//!             offsets plus the decoder prefix state (last_ts, last_end
//!             zig-zag, io_base) at that bunch — O(1) seek to any stripe
//! ```
//!
//! The column encodings are exactly v2's ([`crate::compact`]) applied
//! per-column, so v3 compresses at least as well while becoming seekable.
//! Opening a view costs O(1): the header CRC and the block-length arithmetic
//! are checked up front, per-value range checks happen during the scan, and
//! [`TraceView::verify`] (run by the writers and the codec tests, not on
//! every open) checks the four block CRCs in full. Every decode error is a
//! [`TraceError`] — truncation at any boundary and header bit flips are
//! rejected, never panics ([`crate::replay_format::from_bytes`] negotiates
//! versions, so v1/v2 files keep reading transparently).
#![doc = "tracer-invariant: deterministic"]

use crate::error::TraceError;
use crate::mmap::Mmap;
use crate::model::{Bunch, IoPackage, Nanos, OpKind, Trace};
use crate::source::{record_bunch_materializations, BunchSink, BunchSource};
use bytes::BufMut;
use std::path::Path;

/// Format version tag for the columnar encoding.
pub const VERSION: u16 = 3;

/// Fixed v3 header length (after the shared magic/version/device header).
const FIXED_HEADER_LEN: usize = 100;

/// Bytes per bunch-index entry: 4 block offsets + last_ts + zig-zag last_end
/// + io_base, all u64 LE.
const INDEX_ENTRY_LEN: usize = 56;

/// Default bunch-index granularity: one entry per this many bunches.
pub const DEFAULT_INDEX_STRIDE: u32 = 1024;

/// Sanity bound shared with the v1 reader: a bunch may not claim more
/// packages than this (guards corrupt counts against huge allocations).
const MAX_IOS_PER_BUNCH: u64 = 1 << 24;

/// CRC32 (IEEE 802.3 polynomial, reflected) — same codec the fabric job log
/// frames use, table-driven eight bytes at a time (slicing-by-8): the encoder
/// checksums every column it writes, so this runs once per synthesised byte.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][w[4] as usize]
            ^ T[2][w[5] as usize]
            ^ T[1][w[6] as usize]
            ^ T[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k]` advances a byte's CRC through
/// `k` more zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

fn corrupt(why: &'static str) -> TraceError {
    TraceError::Corrupt(why.to_string())
}

/// LEB128 varint encoder shared by the v3 writer and the v2 reference
/// encoder ([`crate::compact`]). A varint of up to 8 bytes (a value below
/// 2^56) is spread into one word, its continuation bits set by length, and
/// written whole — one fixed 8-byte append trimmed to length, with no branch
/// per byte. Larger values take the byte loop.
#[inline]
pub(crate) fn put_varint(buf: &mut Vec<u8>, v: u64) {
    if v >> 56 != 0 {
        return put_varint_bytewise(buf, v);
    }
    let len = (64 - (v | 1).leading_zeros()).div_ceil(7); // 1..=8 bytes
    let mut x = ((v & 0x00FF_FFFF_F000_0000) << 4) | (v & 0x0FFF_FFFF);
    x = ((x & 0x0FFF_C000_0FFF_C000) << 2) | (x & 0x0000_3FFF_0000_3FFF);
    x = ((x & 0x3F80_3F80_3F80_3F80) << 1) | (x & 0x007F_007F_007F_007F);
    x |= 0x8080_8080_8080_8080 & ((1u64 << (8 * (len - 1))) - 1);
    let end = buf.len() + len as usize;
    buf.extend_from_slice(&x.to_le_bytes());
    buf.truncate(end);
}

#[cold]
fn put_varint_bytewise(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zig-zag map of a signed delta onto an unsigned varint payload.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Streaming v3 encoder: push bunches one at a time (non-decreasing
/// timestamps, the [`Trace`] invariant), then [`V3Encoder::finish`] to get
/// the complete file image. Column blocks grow incrementally, so the encoder
/// holds roughly the *compressed* size in memory — it never materializes the
/// trace it is fed. It is the [`BunchSink`] the synthesisers write into, so a
/// generated trace exists only as v3 bytes.
#[derive(Debug)]
pub struct V3Encoder {
    device: String,
    stride: u32,
    ts: Vec<u8>,
    cnt: Vec<u8>,
    sec: Vec<u8>,
    sz: Vec<u8>,
    index: Vec<u8>,
    bunch_count: u64,
    io_count: u64,
    total_bytes: u64,
    max_bunch_len: u32,
    last_ts: u64,
    last_end: i64,
}

impl V3Encoder {
    /// Start encoding a trace for `device` with the default index stride.
    pub fn new(device: impl Into<String>) -> Self {
        Self::with_stride(device, DEFAULT_INDEX_STRIDE)
    }

    /// Start encoding with an explicit index stride (entries per bunch).
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn with_stride(device: impl Into<String>, stride: u32) -> Self {
        assert!(stride > 0, "index stride must be positive");
        Self {
            device: device.into(),
            stride,
            ts: Vec::new(),
            cnt: Vec::new(),
            sec: Vec::new(),
            sz: Vec::new(),
            index: Vec::new(),
            bunch_count: 0,
            io_count: 0,
            total_bytes: 0,
            max_bunch_len: 0,
            last_ts: 0,
            last_end: 0,
        }
    }

    /// Append one bunch. Timestamps must be non-decreasing (the [`Trace`]
    /// ordering invariant); the debug assertion mirrors
    /// [`Trace::push_bunch`].
    pub fn push_bunch(&mut self, timestamp: Nanos, ios: &[IoPackage]) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        debug_assert!(
            timestamp >= self.last_ts || self.bunch_count == 0,
            "bunches must be encoded in non-decreasing timestamp order"
        );
        if self.bunch_count % u64::from(self.stride) == 0 {
            // Decoder prefix state *before* this bunch: where each column
            // cursor stands and what the deltas are relative to.
            self.index.put_u64_le(self.ts.len() as u64);
            self.index.put_u64_le(self.cnt.len() as u64);
            self.index.put_u64_le(self.sec.len() as u64);
            self.index.put_u64_le(self.sz.len() as u64);
            self.index.put_u64_le(self.last_ts);
            self.index.put_u64_le(zigzag(self.last_end));
            self.index.put_u64_le(self.io_count);
        }
        put_varint(&mut self.ts, timestamp - self.last_ts);
        self.last_ts = timestamp;
        put_varint(&mut self.cnt, ios.len() as u64);
        for io in ios {
            put_varint(&mut self.sec, zigzag(io.sector as i64 - self.last_end));
            self.last_end = io.end_sector() as i64;
            put_varint(
                &mut self.sz,
                (u64::from(io.bytes) << 1) | u64::from(matches!(io.kind, OpKind::Write)),
            );
            self.total_bytes += u64::from(io.bytes);
        }
        self.bunch_count += 1;
        self.io_count += ios.len() as u64;
        self.max_bunch_len = self.max_bunch_len.max(ios.len() as u32);
    }

    /// Finish the stream and return the complete `.replay` v3 file image,
    /// in one allocation of exactly its size. Each column is freed as soon
    /// as it is copied in, so the image and the columns are never both
    /// whole in memory.
    pub fn finish(self) -> Vec<u8> {
        let dev = self.device.as_bytes();
        let dev = &dev[..dev.len().min(u16::MAX as usize)];
        let columns = [self.ts, self.cnt, self.sec, self.sz, self.index];
        let len = 8 + dev.len() + FIXED_HEADER_LEN + columns.iter().map(Vec::len).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.put_slice(&crate::replay_format::MAGIC);
        out.put_u16_le(VERSION);
        out.put_u16_le(dev.len() as u16);
        out.put_slice(dev);

        let header_start = out.len();
        out.put_u64_le(self.bunch_count);
        out.put_u64_le(self.io_count);
        out.put_u64_le(self.last_ts); // duration: timestamp of the final bunch
        out.put_u64_le(self.total_bytes);
        out.put_u32_le(self.max_bunch_len);
        out.put_u32_le(self.stride);
        for column in &columns {
            out.put_u64_le(column.len() as u64);
        }
        for column in &columns[..4] {
            out.put_u32_le(crc32(column));
        }
        let hcrc = crc32(&out[header_start..]);
        out.put_u32_le(hcrc);
        debug_assert_eq!(out.len() - header_start, FIXED_HEADER_LEN);

        for column in columns {
            out.put_slice(&column);
        }
        debug_assert_eq!(out.len(), out.capacity());
        out
    }

    /// Finish into an in-memory [`TraceView`] over the image, with no file.
    pub fn into_view(self) -> Result<TraceView, TraceError> {
        TraceView::from_bytes(self.finish())
    }
}

impl BunchSink for V3Encoder {
    #[inline]
    fn push(&mut self, timestamp: Nanos, ios: &[IoPackage]) {
        self.push_bunch(timestamp, ios);
    }
}

/// Serialize a whole trace with the columnar encoding.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut enc = V3Encoder::new(trace.device.as_str());
    for bunch in &trace.bunches {
        enc.push_bunch(bunch.timestamp, &bunch.ios);
    }
    enc.finish()
}

/// Write `trace` to `path` in v3 — the program's only `.replay` file writer.
/// A source that already is a v3 image ([`BunchSource::v3_image`]) is
/// written as it stands; any other is encoded on the way. It goes through a
/// temp file + atomic rename so live [`TraceView`] mappings of an older
/// version keep their inode (see [`crate::mmap`]'s safety argument).
pub fn write_file<S: BunchSource + ?Sized>(trace: &S, path: &Path) -> Result<(), TraceError> {
    if let Some(image) = trace.v3_image() {
        return crate::replay_format::write_bytes_atomic(image, path);
    }
    let mut enc = V3Encoder::new(trace.device());
    trace.try_for_each_bunch(&mut |ts, ios| enc.push_bunch(ts, ios))?;
    crate::replay_format::write_bytes_atomic(&enc.finish(), path)
}

/// Parsed v3 header: counts plus the byte ranges of the blocks *relative to
/// the body* (the bytes after the shared magic/version/device header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V3Meta {
    /// Number of bunches in the trace.
    pub bunch_count: u64,
    /// Total IO packages across all bunches.
    pub io_count: u64,
    /// Timestamp of the final bunch (ns), 0 when empty.
    pub duration_ns: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Largest bunch in the trace — sizes the decode scratch buffer.
    pub max_bunch_len: u32,
    /// Bunches per index entry.
    pub index_stride: u32,
    ts: (usize, usize),
    cnt: (usize, usize),
    sec: (usize, usize),
    sz: (usize, usize),
    index: (usize, usize),
    crcs: [u32; 4],
}

impl V3Meta {
    /// Parse and structurally validate a v3 body (the bytes after the shared
    /// header): header CRC, block-length arithmetic, count sanity. O(1).
    pub fn parse(body: &[u8]) -> Result<Self, TraceError> {
        if body.len() < FIXED_HEADER_LEN {
            return Err(corrupt("v3 header truncated"));
        }
        let header = &body[..FIXED_HEADER_LEN];
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
        if crc32(&header[..FIXED_HEADER_LEN - 4]) != u32_at(FIXED_HEADER_LEN - 4) {
            return Err(corrupt("v3 header checksum mismatch"));
        }
        let bunch_count = u64_at(0);
        let io_count = u64_at(8);
        let duration_ns = u64_at(16);
        let total_bytes = u64_at(24);
        let max_bunch_len = u32_at(32);
        let index_stride = u32_at(36);
        let lens = [u64_at(40), u64_at(48), u64_at(56), u64_at(64), u64_at(72)];
        let crcs = [u32_at(80), u32_at(84), u32_at(88), u32_at(92)];

        if index_stride == 0 {
            return Err(corrupt("v3 index stride is zero"));
        }
        if u64::from(max_bunch_len) > MAX_IOS_PER_BUNCH {
            return Err(corrupt("v3 max bunch length exceeds sanity bound"));
        }
        let avail = (body.len() - FIXED_HEADER_LEN) as u64;
        let mut total = 0u64;
        for len in lens {
            total = total.checked_add(len).ok_or_else(|| corrupt("v3 block lengths overflow"))?;
        }
        if total != avail {
            return Err(corrupt("v3 block lengths disagree with file size"));
        }
        // Every varint costs at least one byte, so the counts bound the
        // blocks from below; a corrupt count cannot oversubscribe a scan.
        if bunch_count > lens[0] || bunch_count > lens[1] {
            return Err(corrupt("v3 bunch count exceeds column size"));
        }
        if io_count > lens[2] || io_count > lens[3] {
            return Err(corrupt("v3 io count exceeds column size"));
        }
        let expect_entries =
            if bunch_count == 0 { 0 } else { 1 + (bunch_count - 1) / u64::from(index_stride) };
        if lens[4] != expect_entries * INDEX_ENTRY_LEN as u64 {
            return Err(corrupt("v3 index size disagrees with bunch count"));
        }

        let mut off = FIXED_HEADER_LEN;
        let mut range = |len: u64| {
            let start = off;
            off += len as usize;
            (start, off)
        };
        Ok(Self {
            bunch_count,
            io_count,
            duration_ns,
            total_bytes,
            max_bunch_len,
            index_stride,
            ts: range(lens[0]),
            cnt: range(lens[1]),
            sec: range(lens[2]),
            sz: range(lens[3]),
            index: range(lens[4]),
            crcs,
        })
    }

    fn slice<'a>(&self, body: &'a [u8], r: (usize, usize)) -> &'a [u8] {
        &body[r.0..r.1]
    }

    /// Verify the four column CRCs against `body`. O(n); run by writers and
    /// tests, not on every open.
    pub fn verify(&self, body: &[u8]) -> Result<(), TraceError> {
        let blocks = [self.ts, self.cnt, self.sec, self.sz];
        for (r, want) in blocks.iter().zip(self.crcs) {
            if crc32(self.slice(body, *r)) != want {
                return Err(corrupt("v3 column checksum mismatch"));
            }
        }
        Ok(())
    }

    /// Start a decode cursor at bunch 0.
    pub fn cursor<'a>(&self, body: &'a [u8]) -> decode::V3Cursor<'a> {
        decode::V3Cursor::new(
            self.slice(body, self.ts),
            self.slice(body, self.cnt),
            self.slice(body, self.sec),
            self.slice(body, self.sz),
            self.bunch_count,
            self.io_count,
            u64::from(self.max_bunch_len),
        )
    }

    /// Start a decode cursor at the index entry covering `bunch`, returning
    /// the cursor and the index of the bunch it actually stands on (the
    /// nearest indexed bunch at or before `bunch`). The caller skips forward
    /// from there.
    pub fn cursor_at<'a>(
        &self,
        body: &'a [u8],
        bunch: u64,
    ) -> Result<(decode::V3Cursor<'a>, u64), TraceError> {
        if bunch >= self.bunch_count {
            return Err(corrupt("bunch index beyond trace"));
        }
        let entry = bunch / u64::from(self.index_stride);
        let index = self.slice(body, self.index);
        let at = entry as usize * INDEX_ENTRY_LEN;
        let e = index
            .get(at..at + INDEX_ENTRY_LEN)
            .ok_or_else(|| corrupt("v3 index entry out of range"))?;
        let u64_at = |o: usize| u64::from_le_bytes(e[o..o + 8].try_into().unwrap());
        let offs = [u64_at(0), u64_at(8), u64_at(16), u64_at(24)];
        let blocks = [self.ts, self.cnt, self.sec, self.sz];
        for (off, r) in offs.iter().zip(blocks) {
            if *off > (r.1 - r.0) as u64 {
                return Err(corrupt("v3 index offset beyond column"));
            }
        }
        let start_bunch = entry * u64::from(self.index_stride);
        let cursor = decode::V3Cursor::resume(
            &self.slice(body, self.ts)[offs[0] as usize..],
            &self.slice(body, self.cnt)[offs[1] as usize..],
            &self.slice(body, self.sec)[offs[2] as usize..],
            &self.slice(body, self.sz)[offs[3] as usize..],
            self.bunch_count - start_bunch,
            self.io_count - u64_at(48).min(self.io_count),
            u64::from(self.max_bunch_len),
            u64_at(32),
            u64_at(40),
        );
        Ok((cursor, start_bunch))
    }
}

/// The zero-copy decode path: a cursor over the four column slices that
/// yields each bunch into a caller-owned scratch buffer. Nothing in this
/// module allocates on the happy path — the scratch buffer is reused across
/// bunches and error construction lives outside the tagged scope.
pub mod decode {
    #![doc = "tracer-invariant: zero-copy"]

    use super::{corrupt, MAX_IOS_PER_BUNCH};
    use crate::error::TraceError;
    use crate::model::{IoPackage, Nanos, OpKind};

    /// Decode one LEB128 varint from the front of `data`.
    ///
    /// Fast path: with at least eight bytes left, one little-endian word
    /// load finds the terminating byte and packs the 7-bit groups of a
    /// 1–8-byte varint (≤ 56 bits, so it cannot overflow). Longer varints
    /// and the last few bytes of a column take [`get_varint_bytewise`], which
    /// owns every error. Both consume the same bytes and return the same
    /// value or error.
    #[inline]
    pub(crate) fn get_varint(data: &mut &[u8]) -> Result<u64, TraceError> {
        if let Some(word) = data.first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            let stops = !word & 0x8080_8080_8080_8080;
            if stops != 0 {
                let len = stops.trailing_zeros() / 8 + 1;
                let mut x = (word & (u64::MAX >> (64 - 8 * len))) & 0x7F7F_7F7F_7F7F_7F7F;
                x = ((x & 0x7F00_7F00_7F00_7F00) >> 1) | (x & 0x007F_007F_007F_007F);
                x = ((x & 0x3FFF_0000_3FFF_0000) >> 2) | (x & 0x0000_3FFF_0000_3FFF);
                x = ((x & 0x0FFF_FFFF_0000_0000) >> 4) | (x & 0x0000_0000_0FFF_FFFF);
                *data = &data[len as usize..];
                return Ok(x);
            }
        }
        get_varint_bytewise(data)
    }

    /// The byte-at-a-time LEB128 decoder: the fallback for 9–10-byte
    /// varints and short tails, and the reference the fast path is tested
    /// against.
    #[cold]
    #[inline(never)]
    pub(crate) fn get_varint_bytewise(data: &mut &[u8]) -> Result<u64, TraceError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let Some((&byte, rest)) = data.split_first() else {
                return Err(corrupt("truncated varint"));
            };
            *data = rest;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(corrupt("varint overflows u64"));
            }
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Inverse of [`super::zigzag`].
    #[inline]
    pub(crate) fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Streaming decoder over the four column slices. Mirrors
    /// [`crate::compact::BunchDecoder`], but yields into a reusable scratch
    /// buffer instead of building [`crate::model::Bunch`] heap objects.
    #[derive(Debug)]
    pub struct V3Cursor<'a> {
        ts: &'a [u8],
        cnt: &'a [u8],
        sec: &'a [u8],
        sz: &'a [u8],
        remaining: u64,
        io_budget: u64,
        max_bunch_len: u64,
        last_ts: u64,
        last_end: i64,
    }

    impl<'a> V3Cursor<'a> {
        #[allow(clippy::too_many_arguments)]
        pub(super) fn new(
            ts: &'a [u8],
            cnt: &'a [u8],
            sec: &'a [u8],
            sz: &'a [u8],
            bunches: u64,
            ios: u64,
            max_bunch_len: u64,
        ) -> Self {
            Self::resume(ts, cnt, sec, sz, bunches, ios, max_bunch_len, 0, 0)
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn resume(
            ts: &'a [u8],
            cnt: &'a [u8],
            sec: &'a [u8],
            sz: &'a [u8],
            bunches: u64,
            ios: u64,
            max_bunch_len: u64,
            last_ts: u64,
            last_end_zigzag: u64,
        ) -> Self {
            Self {
                ts,
                cnt,
                sec,
                sz,
                remaining: bunches,
                io_budget: ios,
                max_bunch_len,
                last_ts,
                last_end: unzigzag(last_end_zigzag),
            }
        }

        /// Bunches the cursor still owes.
        pub fn remaining_bunches(&self) -> u64 {
            self.remaining
        }

        /// Decode the next bunch into `scratch` (cleared first) and return
        /// its timestamp, or `None` once the declared count is consumed. On
        /// error the cursor is poisoned — do not continue using it.
        pub fn next_into(
            &mut self,
            scratch: &mut Vec<IoPackage>,
        ) -> Result<Option<Nanos>, TraceError> {
            #![doc = "tracer-invariant: no-alloc-hot"]
            if self.remaining == 0 {
                return Ok(None);
            }
            self.remaining -= 1;
            let dt = get_varint(&mut self.ts)?;
            self.last_ts =
                self.last_ts.checked_add(dt).ok_or_else(|| corrupt("timestamp overflow"))?;
            let nio = get_varint(&mut self.cnt)?;
            if nio > self.max_bunch_len || nio > MAX_IOS_PER_BUNCH {
                return Err(corrupt("io count exceeds declared bunch maximum"));
            }
            if nio > self.io_budget {
                return Err(corrupt("io count exceeds declared trace total"));
            }
            self.io_budget -= nio;
            scratch.clear();
            for _ in 0..nio {
                let delta = unzigzag(get_varint(&mut self.sec)?);
                let sector = self
                    .last_end
                    .checked_add(delta)
                    .filter(|s| *s >= 0)
                    .ok_or_else(|| corrupt("sector delta out of range"))?
                    as u64;
                let size_kind = get_varint(&mut self.sz)?;
                let bytes =
                    u32::try_from(size_kind >> 1).map_err(|_| corrupt("size exceeds u32"))?;
                if bytes == 0 {
                    return Err(corrupt("zero-size io"));
                }
                let kind = if size_kind & 1 == 1 { OpKind::Write } else { OpKind::Read };
                let io = IoPackage::new(sector, bytes, kind);
                self.last_end = io.end_sector() as i64;
                scratch.push(io);
            }
            Ok(Some(self.last_ts))
        }
    }
}

/// Decode a v3 body into an owned [`Trace`] — the *materializing* path, used
/// by the version-negotiating [`crate::replay_format::from_bytes`] reader for
/// compatibility. Each decoded bunch counts toward
/// [`crate::source::bunch_materializations`]; zero-copy consumers go through
/// [`TraceView`] instead.
pub fn decode_body(body: &[u8], device: String) -> Result<Trace, TraceError> {
    let meta = V3Meta::parse(body)?;
    let mut cursor = meta.cursor(body);
    let mut bunches = Vec::with_capacity(meta.bunch_count.min(1 << 24) as usize);
    let mut scratch = Vec::with_capacity(meta.max_bunch_len as usize);
    while let Some(ts) = cursor.next_into(&mut scratch)? {
        bunches.push(Bunch::new(ts, scratch.clone()));
    }
    record_bunch_materializations(bunches.len() as u64);
    Ok(Trace { device, bunches })
}

/// Split a whole v3 file into `(device, body)` and validate the shared
/// header. Pure slice work, shared by [`TraceView::open`] and the tests.
pub fn split_file(data: &[u8]) -> Result<(&str, &[u8]), TraceError> {
    if data.len() < 8 {
        return Err(corrupt("shorter than fixed header"));
    }
    let magic: [u8; 4] = data[..4].try_into().unwrap();
    if magic != crate::replay_format::MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(data[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let dev_len = u16::from_le_bytes(data[6..8].try_into().unwrap()) as usize;
    let body_start = 8 + dev_len;
    if data.len() < body_start {
        return Err(corrupt("truncated device name"));
    }
    let device = std::str::from_utf8(&data[8..body_start])
        .map_err(|_| corrupt("device name is not UTF-8"))?;
    Ok((device, &data[body_start..]))
}

/// A zero-materialization view of a v3 `.replay` image: an mmap of a stored
/// file ([`TraceView::open`]) or an encoded image on the heap
/// ([`TraceView::from_bytes`], what synthesised traces replay from).
///
/// Opening parses and structurally validates the header (O(1)); iteration
/// ([`BunchSource::try_for_each_bunch`]) decodes the columns straight out of
/// the bytes into one reusable scratch buffer — no [`Bunch`] heap object is
/// ever built, which `tests/trace_formats.rs` asserts through
/// [`crate::source::bunch_materializations`].
#[derive(Debug)]
pub struct TraceView {
    data: Mmap,
    device: String,
    body_start: usize,
    meta: V3Meta,
}

impl TraceView {
    /// Map and open the v3 file at `path`.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::over(Mmap::open(path)?)
    }

    /// View an in-memory v3 image (a [`V3Encoder::finish`] result) in place.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::over(Mmap::from_vec(bytes))
    }

    /// Encode an owned trace into an in-memory image and view it.
    pub fn from_trace(trace: &Trace) -> Result<Self, TraceError> {
        Self::from_bytes(to_bytes(trace))
    }

    fn over(data: Mmap) -> Result<Self, TraceError> {
        let (device, body) = split_file(&data)?;
        let meta = V3Meta::parse(body)?;
        let device = device.to_string();
        let body_start = data.len() - body.len();
        Ok(Self { data, device, body_start, meta })
    }

    /// The traced device name from the header.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Parsed header metadata.
    pub fn meta(&self) -> &V3Meta {
        &self.meta
    }

    /// Number of bunches in the trace.
    pub fn bunch_count(&self) -> usize {
        self.meta.bunch_count as usize
    }

    /// Total IO packages.
    pub fn io_count(&self) -> usize {
        self.meta.io_count as usize
    }

    /// Timestamp of the final bunch (the trace duration), 0 when empty.
    pub fn duration(&self) -> Nanos {
        self.meta.duration_ns
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.meta.total_bytes
    }

    /// Bytes of the image backing this view (what the repository cache
    /// accounts, and all an in-memory view holds).
    pub fn mapped_len(&self) -> usize {
        self.data.len()
    }

    /// `true` when backed by a real kernel mapping (see [`Mmap::is_mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// `true` when the view maps a stored file (the repository's v3 path);
    /// `false` for an in-memory image. Same as [`Self::is_mapped`].
    pub fn is_view(&self) -> bool {
        self.is_mapped()
    }

    fn body(&self) -> &[u8] {
        &self.data[self.body_start..]
    }

    /// Full-file integrity check: all four column CRCs. O(n).
    pub fn verify(&self) -> Result<(), TraceError> {
        self.meta.verify(self.body())
    }

    /// A decode cursor at bunch 0 (see [`decode::V3Cursor`]).
    pub fn cursor(&self) -> decode::V3Cursor<'_> {
        self.meta.cursor(self.body())
    }

    /// A decode cursor positioned via the bunch index: returns the cursor and
    /// the bunch it stands on (≤ `bunch`, within one stride).
    pub fn cursor_at(&self, bunch: u64) -> Result<(decode::V3Cursor<'_>, u64), TraceError> {
        self.meta.cursor_at(self.body(), bunch)
    }

    /// Materialize the whole view into an owned [`Trace`] (counts toward
    /// [`crate::source::bunch_materializations`]).
    pub fn to_trace(&self) -> Result<Trace, TraceError> {
        decode_body(self.body(), self.device.clone())
    }
}

impl BunchSource for TraceView {
    fn device(&self) -> &str {
        &self.device
    }

    fn bunch_count(&self) -> usize {
        self.meta.bunch_count as usize
    }

    fn try_for_each_bunch(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError> {
        // One scratch buffer per scan, sized from the header: the only
        // allocation on the whole replay path, amortized O(1) per trace.
        let mut scratch: Vec<IoPackage> = Vec::with_capacity(self.meta.max_bunch_len as usize);
        let mut cursor = self.cursor();
        while let Some(ts) = cursor.next_into(&mut scratch)? {
            f(ts, &scratch);
        }
        Ok(())
    }

    fn v3_image(&self) -> Option<&[u8]> {
        Some(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_format;

    fn sequentialish_trace(n: u64) -> Trace {
        Trace::from_bunches(
            "seq",
            (0..n)
                .map(|i| {
                    Bunch::new(
                        i * 1_000_000,
                        vec![
                            IoPackage::read(i * 128, 65536),
                            IoPackage::write(i * 128 + 128, 4096),
                        ],
                    )
                })
                .collect(),
        )
    }

    fn view_of(trace: &Trace, tag: &str) -> (TraceView, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("tracer_v3_{tag}_{}.replay", std::process::id()));
        write_file(trace, &path).unwrap();
        (TraceView::open(&path).unwrap(), path)
    }

    /// Run both varint decoders over `bytes` until the first error or the
    /// end: every step must agree on the value (or error) and on how many
    /// bytes it consumed.
    fn assert_varint_decoders_agree(bytes: &[u8]) {
        let (mut fast, mut slow) = (bytes, bytes);
        loop {
            let a = decode::get_varint(&mut fast);
            let b = decode::get_varint_bytewise(&mut slow);
            match (&a, &b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "value over {bytes:02x?}"),
                (Err(x), Err(y)) => {
                    assert_eq!(format!("{x:?}"), format!("{y:?}"), "error over {bytes:02x?}");
                    return;
                }
                _ => panic!("fast {a:?} vs bytewise {b:?} over {bytes:02x?}"),
            }
            assert_eq!(fast.len(), slow.len(), "bytes consumed over {bytes:02x?}");
            if fast.is_empty() {
                return;
            }
        }
    }

    proptest::proptest! {
        /// The word-at-a-time `get_varint` is the byte loop, faster: on any
        /// bytes — every truncation, 9–10-byte and overflowing varints
        /// (forced by a run of continuation bytes) included.
        #[test]
        fn fast_varint_matches_the_byte_loop(
            run in 0usize..12,
            low in proptest::prelude::any::<u8>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            let mut bytes: Vec<u8> = (0..run).map(|i| low.rotate_left(i as u32) | 0x80).collect();
            bytes.extend_from_slice(&tail);
            for cut in 0..=bytes.len() {
                assert_varint_decoders_agree(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut values: Vec<u64> = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut bytewise = Vec::new();
            put_varint_bytewise(&mut bytewise, v);
            assert_eq!(buf, bytewise, "{v}");
            let len = buf.len();
            buf.extend_from_slice(&[0xFF; 12]);
            for padded in [&buf[..len], &buf[..]] {
                let mut data = padded;
                assert_eq!(decode::get_varint(&mut data).unwrap(), v);
                assert_eq!(padded.len() - data.len(), len, "{v} consumed {len} bytes");
                assert_varint_decoders_agree(padded);
            }
        }
    }

    #[test]
    fn heap_view_replays_like_the_mapped_file() {
        let t = sequentialish_trace(2500);
        let (mapped, path) = view_of(&t, "heap");
        let heap = TraceView::from_bytes(to_bytes(&t)).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(heap.mapped_len(), mapped.mapped_len());
        assert_eq!(heap.meta(), mapped.meta());
        heap.verify().unwrap();
        let before = crate::source::bunch_materializations();
        let mut got: Vec<Bunch> = Vec::new();
        heap.try_for_each_bunch(&mut |ts, ios| got.push(Bunch::new(ts, ios.to_vec()))).unwrap();
        assert_eq!(crate::source::bunch_materializations(), before);
        assert_eq!(got, t.bunches);
        assert_eq!(heap.v3_image(), Some(&std::fs::read(&path).unwrap()[..]));
        assert!(TraceView::from_bytes(b"TRCR".to_vec()).is_err());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_is_one_exact_allocation() {
        let t = sequentialish_trace(3000);
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), bytes.capacity());
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length and alignment of the 8-byte path against the byte loop.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let table = crc32_tables()[0];
        for start in 0..9 {
            for end in start..data.len() {
                let slice = &data[start..end];
                let bytewise = !slice.iter().fold(!0u32, |crc, &b| {
                    (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize]
                });
                assert_eq!(crc32(slice), bytewise, "{start}..{end}");
            }
        }
    }

    #[test]
    fn codec_round_trips_through_the_common_reader() {
        let t = sequentialish_trace(500);
        let bytes = to_bytes(&t);
        let back = replay_format::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn codec_empty_trace_round_trips() {
        let t = Trace::new("empty");
        let bytes = to_bytes(&t);
        let back = replay_format::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        let (_, body) = split_file(&bytes).unwrap();
        let meta = V3Meta::parse(body).unwrap();
        assert_eq!(meta.bunch_count, 0);
        assert_eq!(meta.duration_ns, 0);
        meta.verify(body).unwrap();
    }

    #[test]
    fn view_iterates_identically_to_the_owned_trace() {
        let t = sequentialish_trace(300);
        let (view, path) = view_of(&t, "iter");
        assert_eq!(view.device(), "seq");
        assert_eq!(view.bunch_count(), 300);
        assert_eq!(view.io_count(), 600);
        assert_eq!(view.duration(), t.duration());
        assert_eq!(view.total_bytes(), t.total_bytes());
        view.verify().unwrap();

        let mut got: Vec<Bunch> = Vec::new();
        view.try_for_each_bunch(&mut |ts, ios| got.push(Bunch::new(ts, ios.to_vec()))).unwrap();
        assert_eq!(got, t.bunches);
        assert_eq!(view.to_trace().unwrap(), t);
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn index_seek_lands_within_one_stride() {
        let t = sequentialish_trace(5000);
        let path =
            std::env::temp_dir().join(format!("tracer_v3_seek_{}.replay", std::process::id()));
        let mut enc = V3Encoder::with_stride("seq", 64);
        for b in &t.bunches {
            enc.push_bunch(b.timestamp, &b.ios);
        }
        replay_format::write_bytes_atomic(&enc.finish(), &path).unwrap();
        let view = TraceView::open(&path).unwrap();
        let mut scratch = Vec::new();
        for target in [0u64, 1, 63, 64, 65, 1000, 4999] {
            let (mut cursor, mut at) = view.cursor_at(target).unwrap();
            assert!(at <= target && target - at < 64, "entry {at} for target {target}");
            let mut ts = None;
            while at <= target {
                ts = cursor.next_into(&mut scratch).unwrap();
                at += 1;
            }
            assert_eq!(ts, Some(t.bunches[target as usize].timestamp), "target {target}");
            assert_eq!(scratch, t.bunches[target as usize].ios);
        }
        assert!(view.cursor_at(5000).is_err(), "seek past the end is an error");
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn codec_truncation_is_rejected_everywhere() {
        let bytes = to_bytes(&sequentialish_trace(20));
        for cut in 0..bytes.len() {
            let sliced = &bytes[..cut];
            assert!(replay_format::from_bytes(sliced).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn codec_header_bit_flips_are_rejected_or_isomorphic() {
        let t = sequentialish_trace(40);
        let bytes = to_bytes(&t).to_vec();
        let (_, body) = split_file(&bytes).unwrap();
        let body_start = bytes.len() - body.len();
        // Flip every bit of the fixed v3 header: either the header CRC (or a
        // downstream structural check) rejects it — never a panic, and never
        // a silently different trace.
        for byte in body_start..body_start + FIXED_HEADER_LEN {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                match replay_format::from_bytes(&mutated) {
                    Err(_) => {}
                    Ok(back) => {
                        assert_eq!(back, t, "flip at {byte}:{bit} silently changed the trace")
                    }
                }
            }
        }
    }

    #[test]
    fn codec_column_corruption_is_caught_by_verify() {
        let t = sequentialish_trace(40);
        let bytes = to_bytes(&t).to_vec();
        let (_, body) = split_file(&bytes).unwrap();
        let body_start = bytes.len() - body.len();
        let mut mutated = bytes.clone();
        // First byte after the fixed header = first ts-column byte.
        mutated[body_start + FIXED_HEADER_LEN] ^= 0x40;
        let (_, body) = split_file(&mutated).unwrap();
        let meta = V3Meta::parse(body).unwrap();
        assert!(meta.verify(body).is_err(), "column CRC must catch payload corruption");
    }

    #[test]
    fn v3_is_no_larger_than_v2() {
        let t = sequentialish_trace(10_000);
        let v2 = crate::compact::to_bytes(&t).len();
        let v3 = to_bytes(&t).len();
        // Same per-value encodings; v3 adds a 100-byte header plus the index
        // (56 bytes per 1024 bunches) but the columnar split often saves it
        // back. Allow a small constant + per-stripe overhead, nothing more.
        let overhead = FIXED_HEADER_LEN + (10_000 / 1024 + 1) * INDEX_ENTRY_LEN + 64;
        assert!(v3 <= v2 + overhead, "v3 {v3} vs v2 {v2} (+{overhead} allowed)");
    }
}
