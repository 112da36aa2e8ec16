//! Property tests for the v3 columnar codec: arbitrary traces round-trip
//! across formats, and a malicious or truncated byte stream can make the
//! decoder return [`TraceError`] but never panic.
//!
//! Every `codec_*` test here is pure in-memory slice work (no filesystem, no
//! mmap syscalls), so the whole filter runs under Miri's strict isolation:
//!
//! ```text
//! cargo +nightly miri test -p tracer-trace --test v3_codec codec_
//! ```

use proptest::prelude::*;
use tracer_trace::{
    compact, replay_format, v3, Bunch, BunchSource, IoPackage, Trace, TraceError, TraceView,
};

/// Arbitrary well-formed trace: non-decreasing bunch timestamps (a collection
/// invariant both encoders rely on), 0–40 bunches of 1–6 IOs each.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let io =
        (0u64..1 << 40, 1u32..1 << 20, proptest::bool::ANY).prop_map(|(sector, bytes, write)| {
            if write {
                IoPackage::write(sector, bytes)
            } else {
                IoPackage::read(sector, bytes)
            }
        });
    let bunch = (0u64..1 << 30, proptest::collection::vec(io, 1..6));
    proptest::collection::vec(bunch, 0..40).prop_map(|mut raw| {
        let mut ts = 0u64;
        let bunches = raw
            .drain(..)
            .map(|(delta, ios)| {
                ts += delta;
                Bunch::new(ts, ios)
            })
            .collect();
        Trace::from_bunches("prop", bunches)
    })
}

/// Decode a full v3 byte image back into a heap trace (the same path
/// `TraceRepository` and `TraceView::to_trace` use, minus the file).
fn decode_v3(bytes: &[u8]) -> Result<Trace, TraceError> {
    let (device, body) = v3::split_file(bytes)?;
    v3::decode_body(body, device.to_string())
}

proptest! {
    /// v3 encode → decode is the identity, and agrees bit-for-bit with the
    /// v2 round trip of the same trace (v2 ↔ v3 equivalence).
    #[test]
    fn codec_round_trips_arbitrary_traces(trace in arb_trace()) {
        let v3_bytes = v3::to_bytes(&trace);
        let from_v3 = decode_v3(&v3_bytes).expect("well-formed v3 must decode");
        prop_assert_eq!(&from_v3, &trace);

        let v2_bytes = replay_format::to_bytes(&trace);
        let from_v2 = replay_format::from_bytes(&v2_bytes).expect("well-formed v2 must decode");
        prop_assert_eq!(&from_v2, &trace);
        prop_assert_eq!(&from_v2, &from_v3);
    }

    /// The parsed metadata agrees with the source trace, and the structural
    /// `verify()` pass accepts an untampered image.
    #[test]
    fn codec_metadata_matches_the_source(trace in arb_trace()) {
        let bytes = v3::to_bytes(&trace);
        let (device, body) = v3::split_file(&bytes).expect("split");
        prop_assert_eq!(device, "prop");
        let meta = v3::V3Meta::parse(body).expect("parse");
        meta.verify(body).expect("column CRCs must hold");
        prop_assert_eq!(meta.bunch_count, trace.bunch_count() as u64);
        prop_assert_eq!(meta.io_count, trace.io_count() as u64);
    }

    /// Truncating the image anywhere — header, any column block, the index —
    /// yields a `TraceError`; it never panics and never decodes to Ok with
    /// fewer bytes than the full image requires.
    #[test]
    fn codec_truncation_is_an_error_not_a_panic(trace in arb_trace(), cut in 0usize..4096) {
        let bytes = v3::to_bytes(&trace);
        let cut = cut % bytes.len().max(1);
        prop_assert!(decode_v3(&bytes[..cut]).is_err());
    }

    /// Flipping any single bit anywhere in the image must not panic. The
    /// header CRC, column CRCs, and structural bounds catch essentially all
    /// of them as errors; a flip that decodes is still required to produce a
    /// trace without crashing.
    #[test]
    fn codec_bit_flips_never_panic(trace in arb_trace(), pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = v3::to_bytes(&trace).to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_v3(&bytes); // Err or Ok both fine; panics are not.
    }
}

/// Exhaustive truncation: every prefix length of a small trace's image is a
/// clean error. Proptest samples cut points; this pins all of them.
#[test]
fn codec_every_prefix_of_a_small_trace_errors() {
    let trace = Trace::from_bunches(
        "t",
        (0..12)
            .map(|i| {
                Bunch::new(
                    i * 1_000_000,
                    vec![IoPackage::read(i * 64, 4096), IoPackage::write(i * 64 + 8, 8192)],
                )
            })
            .collect(),
    );
    let bytes = v3::to_bytes(&trace);
    for cut in 0..bytes.len() {
        assert!(
            decode_v3(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
    assert_eq!(decode_v3(&bytes).unwrap(), trace);
}

/// Exhaustive single-bit corruption over the whole image of a small trace:
/// no flip may panic, and any flip that still decodes to *different* bunch
/// content must be caught by the opt-in column-CRC `verify()` pass (the
/// structural checks alone deliberately stay O(1) and cannot see payload
/// flips inside a varint).
#[test]
fn codec_every_bit_flip_in_a_small_image_is_safe() {
    let trace = Trace::from_bunches(
        "t",
        (0..6).map(|i| Bunch::new(i * 500_000, vec![IoPackage::read(i * 8, 4096)])).collect(),
    );
    let bytes = v3::to_bytes(&trace);
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 1 << bit;
            let Ok(decoded) = decode_v3(&corrupt) else { continue };
            if decoded.bunches != trace.bunches {
                let verified = v3::split_file(&corrupt)
                    .and_then(|(_, body)| v3::V3Meta::parse(body)?.verify(body));
                assert!(verified.is_err(), "undetected corruption at byte {pos} bit {bit}");
            }
        }
    }
}

/// Random resume points: `cursor_at` must land at an indexed bunch at or
/// before the target and stream the identical tail the full scan produces.
#[test]
fn codec_indexed_resume_matches_the_full_scan() {
    let trace = Trace::from_bunches(
        "t",
        (0..3000)
            .map(|i| Bunch::new(i * 77_000, vec![IoPackage::read((i * 131) % 65_536, 4096)]))
            .collect(),
    );
    let bytes = v3::to_bytes(&trace);
    let (_, body) = v3::split_file(&bytes).expect("split");
    let meta = v3::V3Meta::parse(body).expect("parse");
    for target in [0u64, 1, 1023, 1024, 1025, 2047, 2048, 2999] {
        let (mut cursor, start) = meta.cursor_at(body, target).expect("cursor_at");
        assert!(start <= target);
        let mut scratch = Vec::new();
        let mut at = start as usize;
        while let Some((ts, ios)) = {
            let step = cursor.next_into(&mut scratch).expect("resume decode");
            step.map(|ts| (ts, scratch.clone()))
        } {
            assert_eq!(ts, trace.bunches[at].timestamp, "resume from {start}");
            assert_eq!(ios, trace.bunches[at].ios);
            at += 1;
        }
        assert_eq!(at, trace.bunch_count());
    }
}

/// A zero-size IO is not a request the simulator can serve: every reader
/// rejects it as corruption (v1, v2 and the v3 cursor behind a view), even
/// though the v3 image's column CRCs hold.
#[test]
fn codec_a_zero_size_io_is_corrupt() {
    let trace = Trace::from_bunches(
        "t",
        vec![
            Bunch::new(0, vec![IoPackage::read(0, 4096)]),
            Bunch::new(1_000, vec![IoPackage::read(8, 0)]),
        ],
    );
    let zero_size = "corrupt trace file: zero-size io";
    let why = |r: Result<Trace, TraceError>| r.expect_err("must not decode").to_string();
    assert_eq!(why(replay_format::from_bytes(&replay_format::to_bytes(&trace))), zero_size);
    assert_eq!(why(replay_format::from_bytes(&compact::to_bytes(&trace))), zero_size);
    assert_eq!(why(decode_v3(&v3::to_bytes(&trace))), zero_size);

    let view = TraceView::from_bytes(v3::to_bytes(&trace)).expect("the header is intact");
    view.verify().expect("the column CRCs hold");
    let mut visited = 0;
    let scan = view.try_for_each_bunch(&mut |_, _| visited += 1);
    assert_eq!(scan.expect_err("must not scan").to_string(), zero_size);
    assert_eq!(visited, 1, "the intact first bunch is visited before the error");
}
