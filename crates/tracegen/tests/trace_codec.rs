//! Property tests of the versioned trace container: arbitrary
//! multi-thread record streams must round-trip bit-exactly through the
//! chunked varint/delta codec — in both the v1 (stored) and v2
//! (dict-compressed) containers — whatever the interleaving,
//! chunk-boundary alignment or value extremes.

use proptest::prelude::*;
use std::io::Cursor;
use tracegen::trace::{
    read_info, validate_path, Compression, TraceMeta, TraceReader, TraceWriter, CHUNK_RECORDS,
    MAX_CHUNK_PAYLOAD, TRACE_VERSION, TRACE_VERSION_V2,
};
use tracegen::{dict, MemRecord};

/// Records with extreme values well outside what the generator emits:
/// full-range addresses stress the zigzag deltas, full-range gaps the
/// varints.
fn arb_record() -> impl Strategy<Value = MemRecord> {
    (0u32..=u32::MAX, 0u64..=u64::MAX, any::<bool>()).prop_map(|(gap, addr, is_write)| MemRecord {
        gap,
        addr,
        is_write,
    })
}

/// Up to three threads of uneven stream lengths, spanning chunk
/// boundaries when the scale multiplier kicks in.
fn arb_streams() -> impl Strategy<Value = Vec<Vec<MemRecord>>> {
    prop::collection::vec(prop::collection::vec(arb_record(), 0..40), 1..4)
}

fn arb_compression() -> impl Strategy<Value = Compression> {
    any::<bool>().prop_map(|dict| {
        if dict {
            Compression::Dict
        } else {
            Compression::None
        }
    })
}

fn meta_for(threads: usize) -> TraceMeta {
    TraceMeta {
        workload: "prop".to_string(),
        benchmarks: (0..threads).map(|t| format!("bench{t}")).collect(),
        seed: 42,
        seed_salt: 7,
        insts: 0,
        scheme: None,
    }
}

/// Write the streams with a deterministic round-robin interleave (one
/// record from each non-exhausted thread per turn), so chunks of
/// different threads mix in the file.
fn encode_with(streams: &[Vec<MemRecord>], compression: Compression) -> Vec<u8> {
    let mut w = TraceWriter::create_with(
        Cursor::new(Vec::new()),
        &meta_for(streams.len()),
        compression,
    )
    .unwrap();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (t, s) in streams.iter().enumerate() {
            if let Some(rec) = s.get(i) {
                w.push(t, *rec).unwrap();
            }
        }
    }
    w.finish().unwrap().into_inner()
}

fn encode(streams: &[Vec<MemRecord>]) -> Vec<u8> {
    encode_with(streams, Compression::None)
}

fn decode_thread(bytes: &[u8], thread: usize) -> Vec<MemRecord> {
    let mut r = TraceReader::new(Cursor::new(bytes), thread).unwrap();
    let mut out = Vec::new();
    while let Some(rec) = r.try_next().unwrap() {
        out.push(rec);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every thread's stream survives the container bit-exactly, under
    /// either codec.
    #[test]
    fn streams_round_trip(streams in arb_streams(), compression in arb_compression()) {
        let bytes = encode_with(&streams, compression);
        for (t, expect) in streams.iter().enumerate() {
            prop_assert_eq!(&decode_thread(&bytes, t), expect, "thread {}", t);
        }
    }

    /// The header's per-thread counts equal the pushed lengths, and the
    /// version matches the compression choice.
    #[test]
    fn header_counts_are_exact(streams in arb_streams(), compression in arb_compression()) {
        let bytes = encode_with(&streams, compression);
        let info = read_info(&mut &bytes[..]).unwrap();
        let lens: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
        prop_assert_eq!(info.records, lens);
        prop_assert_eq!(info.version, match compression {
            Compression::None => TRACE_VERSION,
            Compression::Dict => TRACE_VERSION_V2,
        });
    }

    /// The chunk codec itself is the identity: compress → decompress
    /// returns the input for arbitrary payload bytes (the varint streams
    /// chunks hold are a subset of this).
    #[test]
    fn dict_codec_round_trips(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut comp = Vec::new();
        dict::compress(&payload, &mut comp);
        let mut back = Vec::new();
        dict::decompress(&comp, payload.len(), &mut back).unwrap();
        prop_assert_eq!(back, payload);
    }

    /// Truncating anywhere strictly inside the chunk area must never
    /// yield a silently-short stream: either validation fails or (when
    /// the cut lands between the chunks of a luckier thread) every
    /// surviving stream still matches the original prefix the header
    /// promises — it can never invent records. Holds under both codecs.
    #[test]
    fn truncation_never_fabricates_records(
        streams in arb_streams(),
        compression in arb_compression(),
        frac_pct in 10u64..99,
    ) {
        let bytes = encode_with(&streams, compression);
        // Only cut inside the chunk region (the header must stay whole
        // for readers to open at all).
        let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header_end = 12 + meta_len + 4 + 8 * streams.len();
        prop_assume!(header_end < bytes.len());
        let cut = header_end
            .max((bytes.len() as u64 * frac_pct / 100) as usize)
            .min(bytes.len() - 1);
        let cut_bytes = &bytes[..cut];
        for (t, stream) in streams.iter().enumerate() {
            let mut r = TraceReader::new(Cursor::new(cut_bytes), t).unwrap();
            let mut got = Vec::new();
            let outcome = loop {
                match r.try_next() {
                    Ok(Some(rec)) => got.push(rec),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            match outcome {
                // Clean end: the reader delivered the full recorded count.
                Ok(()) => prop_assert_eq!(
                    got.len(), stream.len(),
                    "thread {} ended cleanly but short", t
                ),
                // Error: whatever was delivered first must be a true prefix.
                Err(_) => prop_assert_eq!(
                    &got[..], &stream[..got.len()],
                    "thread {} corrupted before the cut", t
                ),
            }
        }
    }
}

/// Chunk boundaries are invisible: a stream crossing several chunk edges
/// decodes identically to its in-memory original (deterministic, not
/// proptest — the boundary sizes are what matters). Exercised under both
/// codecs.
#[test]
fn multi_chunk_streams_round_trip() {
    for compression in [Compression::None, Compression::Dict] {
        for n in [
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            3 * CHUNK_RECORDS + 17,
        ] {
            let stream: Vec<MemRecord> = (0..n)
                .map(|i| MemRecord {
                    gap: (i % 977) as u32,
                    addr: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    is_write: i % 3 == 0,
                })
                .collect();
            let bytes = encode_with(std::slice::from_ref(&stream), compression);
            assert_eq!(decode_thread(&bytes, 0), stream, "n = {n}, {compression:?}");
        }
    }
}

/// `validate_path` accepts every well-formed container the writer
/// produces and rejects a bit-flipped header count.
#[test]
fn validate_crosschecks_counts() {
    let streams = vec![
        (0..500u64)
            .map(|i| MemRecord {
                gap: i as u32,
                addr: i * 64,
                is_write: false,
            })
            .collect::<Vec<_>>(),
        (0..40u64)
            .map(|i| MemRecord {
                gap: 1,
                addr: i * 128,
                is_write: true,
            })
            .collect::<Vec<_>>(),
    ];
    let bytes = encode(&streams);
    let dir = std::env::temp_dir();
    let good = dir.join("plru_trace_codec_good.pltc");
    std::fs::write(&good, &bytes).unwrap();
    assert_eq!(validate_path(&good).unwrap().records, vec![500, 40]);

    // Flip one bit in thread 0's header count.
    let info = read_info(&mut &bytes[..]).unwrap();
    assert_eq!(info.records[0], 500);
    let mut corrupt = bytes.clone();
    // The count table sits right after the thread-count word.
    let meta_len = u32::from_le_bytes(corrupt[8..12].try_into().unwrap()) as usize;
    let counts_at = 12 + meta_len + 4;
    corrupt[counts_at] ^= 1;
    let bad = dir.join("plru_trace_codec_bad.pltc");
    std::fs::write(&bad, &corrupt).unwrap();
    assert!(validate_path(&bad).is_err(), "count mismatch must fail");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

/// A per-thread-empty stream is rejected at validation time (a replay
/// of it would have nothing to deliver).
#[test]
fn validate_rejects_zero_record_threads() {
    let streams = vec![
        (0..10u64)
            .map(|i| MemRecord {
                gap: 0,
                addr: i,
                is_write: false,
            })
            .collect::<Vec<_>>(),
        vec![],
    ];
    let bytes = encode(&streams);
    let path = std::env::temp_dir().join("plru_trace_codec_empty_thread.pltc");
    std::fs::write(&path, &bytes).unwrap();
    let err = validate_path(&path).unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(err.to_string().contains("no records"), "{err}");
}

/// Locate the first chunk header's offset in an encoded container.
fn first_chunk_at(bytes: &[u8], threads: usize) -> usize {
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    12 + meta_len + 4 + 8 * threads
}

/// An oversized payload length in a chunk header errors out instead of
/// attempting the multi-GiB allocation it advertises.
#[test]
fn oversized_chunk_payload_length_is_rejected() {
    let stream: Vec<MemRecord> = (0..100u64)
        .map(|i| MemRecord {
            gap: 1,
            addr: i * 64,
            is_write: false,
        })
        .collect();
    for compression in [Compression::None, Compression::Dict] {
        let mut bytes = encode_with(std::slice::from_ref(&stream), compression);
        let chunk = first_chunk_at(&bytes, 1);
        // payload_len is the last u32 of the chunk header in both
        // versions: v1 at +8, v2 at +13 (after codec u8 + raw_len u32).
        let len_at = match compression {
            Compression::None => chunk + 8,
            Compression::Dict => chunk + 13,
        };
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = TraceReader::new(Cursor::new(&bytes), 0).unwrap();
        let err = loop {
            match r.try_next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("oversized length must not read cleanly"),
                Err(e) => break e,
            }
        };
        assert!(
            err.to_string().contains("payload length"),
            "{compression:?}: {err}"
        );
    }
}

/// A chunk claiming more than `CHUNK_RECORDS` records is rejected (the
/// writer never emits one, so it can only be corruption).
#[test]
fn oversized_chunk_record_count_is_rejected() {
    let stream: Vec<MemRecord> = (0..10u64)
        .map(|i| MemRecord {
            gap: 0,
            addr: i,
            is_write: false,
        })
        .collect();
    let mut bytes = encode(std::slice::from_ref(&stream));
    let chunk = first_chunk_at(&bytes, 1);
    bytes[chunk + 4..chunk + 8].copy_from_slice(&(MAX_CHUNK_PAYLOAD + 1).to_le_bytes());
    let mut r = TraceReader::new(Cursor::new(&bytes), 0).unwrap();
    let err = loop {
        match r.try_next() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("oversized record count must not read cleanly"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("records"), "{err}");
}

/// An oversized metadata length in the file header errors out without
/// allocating what it claims.
#[test]
fn oversized_meta_length_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"PLTC");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = read_info(&mut &bytes[..]).unwrap_err();
    assert!(err.to_string().contains("metadata length"), "{err}");
}
