//! Binary `.replay` trace format: the shared header, the version-negotiating
//! reader, and the atomic file writer.
//!
//! This is the load format of TRACER: "TRACER can only load trace files with
//! the blktrace format (i.e., trace files with the extension name replay)"
//! (§III-A2). Every version starts with the same magic and version word;
//! [`from_bytes`] / [`read_file`] accept all three. The program writes only
//! the columnar v3 encoding ([`crate::v3::write_file`]); v1 (below) and the
//! compact v2 ([`crate::compact`]) are read-only legacy formats whose
//! encoders ([`to_bytes`], [`crate::compact::to_bytes`]) remain as the
//! reference implementations the decoder tests round-trip against.
//!
//! Version 1 follows the paper's Fig. 4 — bunches of IO packages — at fixed
//! width:
//!
//! ```text
//! magic   : b"TRCR"                  (4 bytes)
//! version : u16 LE                   (1)
//! dev_len : u16 LE
//! device  : dev_len bytes, UTF-8
//! nbunch  : u64 LE
//! bunch*  : timestamp u64 LE (ns), nio u32 LE,
//!           (sector u64 LE, bytes u32 LE, kind u8 {0=read,1=write})*
//! ```
//!
//! All multi-byte values are little-endian. The reader validates counts
//! against the stream and rejects structural corruption with
//! [`TraceError::Corrupt`].

use crate::error::TraceError;
use crate::model::{Bunch, IoPackage, OpKind, Trace};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes at the start of every `.replay` file.
pub const MAGIC: [u8; 4] = *b"TRCR";
/// Version tag of the fixed-width legacy encoding.
pub const VERSION: u16 = 1;

/// Sanity bound: a single bunch may not claim more than this many packages.
/// (The paper's 2-minute RAID-5 traces average eight packages per bunch.)
const MAX_IOS_PER_BUNCH: u32 = 1 << 24;

/// Serialize a trace in the fixed-width v1 encoding — the reference encoder
/// the legacy decoder's tests compare against; the program writes v3.
pub fn to_bytes(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + trace.io_count() * 13 + trace.bunch_count() * 12);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    let dev = trace.device.as_bytes();
    // Device names beyond u16::MAX bytes are truncated at a char boundary.
    let dev_len = dev.len().min(u16::MAX as usize);
    buf.put_u16_le(dev_len as u16);
    buf.put_slice(&dev[..dev_len]);
    buf.put_u64_le(trace.bunch_count() as u64);
    for bunch in &trace.bunches {
        buf.put_u64_le(bunch.timestamp);
        buf.put_u32_le(bunch.ios.len() as u32);
        for io in &bunch.ios {
            buf.put_u64_le(io.sector);
            buf.put_u32_le(io.bytes);
            buf.put_u8(match io.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
            });
        }
    }
    buf.freeze()
}

/// Deserialize a trace of any supported version from an in-memory buffer.
pub fn from_bytes(mut data: &[u8]) -> Result<Trace, TraceError> {
    let corrupt = |why: &str| TraceError::Corrupt(why.to_string());
    if data.remaining() < 8 {
        return Err(corrupt("shorter than fixed header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let version = data.get_u16_le();
    if version != VERSION && version != crate::compact::VERSION && version != crate::v3::VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let dev_len = data.get_u16_le() as usize;
    if data.remaining() < dev_len {
        return Err(corrupt("truncated device name"));
    }
    let device = String::from_utf8(data.copy_to_bytes(dev_len).to_vec())
        .map_err(|_| corrupt("device name is not UTF-8"))?;
    if version == crate::compact::VERSION {
        return crate::compact::decode_body(data, device);
    }
    if version == crate::v3::VERSION {
        return crate::v3::decode_body(data, device);
    }
    if data.remaining() < 8 {
        return Err(corrupt("missing bunch count"));
    }
    let nbunch = data.get_u64_le();
    // Each bunch needs at least 12 bytes; reject impossible counts up front so
    // a corrupt count cannot trigger a huge allocation.
    if nbunch > (data.remaining() as u64) / 12 {
        return Err(corrupt("bunch count exceeds stream size"));
    }
    let mut bunches = Vec::with_capacity(nbunch as usize);
    let mut last_ts = 0u64;
    for i in 0..nbunch {
        if data.remaining() < 12 {
            return Err(corrupt("truncated bunch header"));
        }
        let timestamp = data.get_u64_le();
        if timestamp < last_ts {
            return Err(TraceError::Corrupt(format!(
                "bunch {i} timestamp {timestamp} precedes previous {last_ts}"
            )));
        }
        last_ts = timestamp;
        let nio = data.get_u32_le();
        if nio > MAX_IOS_PER_BUNCH || (nio as u64) * 13 > data.remaining() as u64 {
            return Err(corrupt("io count exceeds stream size"));
        }
        let mut ios = Vec::with_capacity(nio as usize);
        for _ in 0..nio {
            let sector = data.get_u64_le();
            let bytes = data.get_u32_le();
            if bytes == 0 {
                return Err(corrupt("zero-size io"));
            }
            let kind = match data.get_u8() {
                0 => OpKind::Read,
                1 => OpKind::Write,
                other => return Err(TraceError::Corrupt(format!("unknown op kind byte {other}"))),
            };
            ios.push(IoPackage::new(sector, bytes, kind));
        }
        bunches.push(Bunch::new(timestamp, ios));
    }
    crate::source::record_bunch_materializations(bunches.len() as u64);
    Ok(Trace { device, bunches })
}

/// Write `bytes` to `path` through a same-directory temp file and an atomic
/// `rename`. Every `.replay` writer funnels here: a path is only ever
/// replaced by a fresh inode, never truncated in place, so live
/// [`crate::v3::TraceView`] mappings of the old contents stay valid (the
/// mmap safety argument, [`crate::mmap`]).
pub fn write_bytes_atomic(bytes: &[u8], path: &Path) -> Result<(), TraceError> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(bytes)?;
        w.flush()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Read a `.replay` file of any supported version from `path` and
/// materialize it as a heap trace (see [`from_bytes`]). Callers that want to
/// *stream* a v3 file open a [`crate::TraceView`] (or go through
/// [`crate::TraceRepository::load_view`]) instead.
pub fn read_file(path: &Path) -> Result<Trace, TraceError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Trace {
        Trace::from_bunches(
            "raid5-hdd6",
            vec![
                Bunch::new(0, vec![IoPackage::read(0, 4096)]),
                Bunch::new(1_000_000, vec![IoPackage::write(128, 512), IoPackage::read(9, 65536)]),
            ],
        )
    }

    #[test]
    fn round_trip_bytes() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn round_trip_file() {
        let dir = std::env::temp_dir().join("tracer_replay_fmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.replay");
        let t = sample();
        for bytes in [to_bytes(&t), crate::compact::to_bytes(&t), crate::v3::to_bytes(&t).into()] {
            write_bytes_atomic(&bytes, &path).unwrap();
            assert_eq!(read_file(&path).unwrap(), t);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty");
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(TraceError::BadMagic(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[4] = 0xFF;
        assert!(matches!(from_bytes(&bytes), Err(TraceError::UnsupportedVersion(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = to_bytes(&sample());
        for cut in 1..bytes.len() {
            let res = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_unsorted_timestamps() {
        let t = Trace {
            device: "d".into(),
            bunches: vec![
                Bunch::new(10, vec![IoPackage::read(0, 512)]),
                Bunch::new(5, vec![IoPackage::read(0, 512)]),
            ],
        };
        let bytes = to_bytes(&t);
        assert!(matches!(from_bytes(&bytes), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn rejects_unknown_op_kind() {
        let bytes = to_bytes(&sample()).to_vec();
        let mut mutated = bytes.clone();
        // Last byte of the stream is the kind of the final IO package.
        *mutated.last_mut().unwrap() = 7;
        assert!(matches!(from_bytes(&mutated), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn rejects_huge_bunch_count_without_allocating() {
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(1);
        buf.put_u8(b'd');
        buf.put_u64_le(u64::MAX); // absurd bunch count
        assert!(matches!(from_bytes(&buf), Err(TraceError::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            bunches in proptest::collection::vec(
                (0u64..1_000_000_000, proptest::collection::vec(
                    (0u64..1 << 40, 1u32..1 << 20, proptest::bool::ANY), 1..8)),
                0..64)
        ) {
            let bunches: Vec<Bunch> = bunches
                .into_iter()
                .map(|(ts, ios)| Bunch::new(
                    ts,
                    ios.into_iter()
                        .map(|(s, b, w)| IoPackage::new(s, b, if w { OpKind::Write } else { OpKind::Read }))
                        .collect(),
                ))
                .collect();
            let t = Trace::from_bunches("prop", bunches);
            let back = from_bytes(&to_bytes(&t)).unwrap();
            prop_assert_eq!(back, t);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Fuzzing the parser: must return Ok or Err, never panic/overflow.
            let _ = from_bytes(&data);
        }
    }
}
