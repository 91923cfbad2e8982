//! FSST-style symbol-table compression for trace chunk payloads.
//!
//! The PLTC v2 container (see [`crate::trace`]) compresses each chunk's
//! varint/delta payload independently with a small per-chunk dictionary:
//! a table of up to [`MAX_SYMBOLS`] byte sequences (1 to
//! [`MAX_SYMBOL_LEN`] bytes each) is trained on the payload, then the
//! payload is re-emitted as one code byte per matched symbol. Bytes no
//! symbol covers are escaped as `0xFF` + the literal byte, so every
//! input is encodable and codes `>= table length` (other than the
//! escape) are unambiguous corruption.
//!
//! Training follows the FSST recipe in miniature: a few generations of
//! "tokenize with the current table, count adjacent-token
//! concatenations, keep the candidates with the highest `count × length`
//! gain". Varint gap/delta streams repeat a small set of byte patterns
//! heavily, which is exactly the regime where a 254-entry symbol table
//! pays for itself; chunks where it does not are stored raw by the
//! container (the codec never *forces* expansion on the file).
//!
//! Everything here is deterministic — candidate selection breaks ties by
//! symbol bytes, never by hash-map iteration order — so compressing the
//! same payload always produces the same bytes (the shipped-fixture pin
//! tests rely on this).
//!
//! Decompression is hardened for hostile input: the caller passes the
//! raw length the chunk header claims, and decoding fails on unknown
//! codes, truncated tables, dangling escapes, or any output-length
//! mismatch. It writes each code as one 8-byte store, so it allocates
//! that claimed length plus [`MAX_SYMBOL_LEN`] bytes of slack, and never
//! more.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum symbols per table: codes `0..=253`; `0xFF` is the escape and
/// `254..=0xFE` are never valid (corruption detection).
pub const MAX_SYMBOLS: usize = 254;
/// Maximum bytes per symbol.
pub const MAX_SYMBOL_LEN: usize = 8;
/// Escape code: the next byte of the stream is a literal.
const ESCAPE: u8 = 0xFF;
/// Training generations (tokenize → merge adjacent pairs → reselect).
const GENERATIONS: usize = 3;

/// One symbol packed into a `u128`: length in the high half, bytes
/// little-endian in the low 8. Packing keys the training hash map
/// without per-token `Vec` allocations.
#[inline]
fn pack(s: &[u8]) -> u128 {
    debug_assert!(!s.is_empty() && s.len() <= MAX_SYMBOL_LEN);
    let mut bytes = [0u8; 8];
    // repolint: allow(panic) — encoder-side; s.len() <= MAX_SYMBOL_LEN (8) is the caller's invariant, debug-asserted above
    bytes[..s.len()].copy_from_slice(s);
    ((s.len() as u128) << 64) | u128::from(u64::from_le_bytes(bytes))
}

#[inline]
fn unpack(key: u128) -> ([u8; 8], usize) {
    ((key as u64).to_le_bytes(), (key >> 64) as usize)
}

#[inline]
fn pack2(a: &[u8], b: &[u8]) -> u128 {
    debug_assert!(a.len() + b.len() <= MAX_SYMBOL_LEN);
    let mut bytes = [0u8; 8];
    // repolint: allow(panic) — encoder-side; a.len() + b.len() <= MAX_SYMBOL_LEN (8) is debug-asserted above
    bytes[..a.len()].copy_from_slice(a);
    // repolint: allow(panic) — same invariant as the line above
    bytes[a.len()..a.len() + b.len()].copy_from_slice(b);
    (((a.len() + b.len()) as u128) << 64) | u128::from(u64::from_le_bytes(bytes))
}

/// The training counts' hasher: one folded multiply of a packed symbol.
/// Selection never reads the map's order, so the hash only sets speed.
/// The keys come from chunk payloads the writer encoded from its own
/// records, never from outside input, so a fixed hash needs no defence
/// against keys crafted to collide.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write_u128(&mut self, key: u128) {
        let word = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let product = u128::from(word) * 0xA076_1D64_78BD_642F;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u128(u128::from(self.0) << 8 | u128::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Greedy longest-match lookup over a symbol table: 256 first-byte
/// buckets, each sorted longest symbol first (ties by code, so matching
/// is deterministic).
struct Lookup {
    /// `(symbol word, mask of its length, length, code)` per bucket: a
    /// symbol matches where the input's next 8 bytes, masked, equal its
    /// little-endian word.
    buckets: Vec<Vec<(u64, u64, usize, u8)>>,
}

impl Lookup {
    fn new(table: &[([u8; 8], usize)]) -> Self {
        let mut buckets: Vec<Vec<(u64, u64, usize, u8)>> = vec![Vec::new(); 256];
        for (code, &(bytes, len)) in table.iter().enumerate() {
            let mask = u64::MAX >> (64 - 8 * len);
            let word = u64::from_le_bytes(bytes) & mask;
            // repolint: allow(panic) — buckets has 256 entries; a u8 index cannot miss
            buckets[bytes[0] as usize].push((word, mask, len, code as u8));
        }
        for b in &mut buckets {
            b.sort_by(|x, y| y.2.cmp(&x.2).then(x.3.cmp(&y.3)));
        }
        Lookup { buckets }
    }

    /// Longest symbol matching a prefix of `input`, as `(code, length)`.
    #[inline]
    fn longest(&self, input: &[u8]) -> Option<(u8, usize)> {
        let &first = input.first()?;
        // The input's next 8 bytes, zero past its end: a symbol no longer
        // than the input compares only input bytes.
        let word = match input.first_chunk::<8>() {
            Some(head) => u64::from_le_bytes(*head),
            None => input.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)),
        };
        // repolint: allow(panic) — 256 buckets cover every u8 first byte
        for &(sym, mask, len, code) in &self.buckets[first as usize] {
            if len <= input.len() && word & mask == sym {
                return Some((code, len));
            }
        }
        None
    }
}

/// Train a symbol table on `input` (FSST-style generations).
fn train(input: &[u8]) -> Vec<([u8; 8], usize)> {
    let mut table: Vec<([u8; 8], usize)> = Vec::new();
    for _ in 0..GENERATIONS {
        let lookup = Lookup::new(&table);
        let mut counts: HashMap<u128, u64, BuildHasherDefault<FoldHasher>> = HashMap::default();
        let mut prev: Option<&[u8]> = None;
        let mut i = 0;
        while i < input.len() {
            // repolint: allow(panic) — i < input.len() is the loop condition
            let len = match lookup.longest(&input[i..]) {
                Some((_, l)) => l,
                None => 1,
            };
            // repolint: allow(panic) — longest() only matches within the suffix, so i + len <= input.len()
            let tok = &input[i..i + len];
            *counts.entry(pack(tok)).or_default() += 1;
            if let Some(p) = prev {
                if p.len() + tok.len() <= MAX_SYMBOL_LEN {
                    *counts.entry(pack2(p, tok)).or_default() += 1;
                }
            }
            prev = Some(tok);
            i += len;
        }
        // Gain heuristic: a symbol of length L used C times replaces
        // C·L stream bytes with C code bytes. Ties break on the packed
        // bytes so selection never depends on hash iteration order.
        let mut cands: Vec<(u64, u128)> = counts
            .into_iter()
            .map(|(key, count)| (count * (key >> 64) as u64, key))
            .collect();
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        table = cands
            .into_iter()
            .take(MAX_SYMBOLS)
            .map(|(_, key)| unpack(key))
            .collect();
    }
    table
}

/// Compress `input` into `out` (cleared first): symbol-table header
/// (`count u8`, then `len u8` + bytes per symbol) followed by the code
/// stream. Always succeeds; the caller compares lengths and stores the
/// chunk raw when compression did not win.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let table = train(input);
    out.push(table.len() as u8);
    for &(bytes, len) in &table {
        out.push(len as u8);
        // repolint: allow(panic) — encoder-side; train() never emits len > 8
        out.extend_from_slice(&bytes[..len]);
    }
    let lookup = Lookup::new(&table);
    let mut i = 0;
    while i < input.len() {
        // repolint: allow(panic) — i < input.len() is the loop condition
        match lookup.longest(&input[i..]) {
            Some((code, len)) => {
                out.push(code);
                i += len;
            }
            None => {
                out.push(ESCAPE);
                // repolint: allow(panic) — i < input.len() is the loop condition
                out.push(input[i]);
                i += 1;
            }
        }
    }
}

/// Decompress a [`compress`]-formatted `input` into `out` (cleared
/// first). `raw_len` is the expected output length from the chunk
/// header; output is capped at it throughout, so a corrupt or hostile
/// stream can never allocate more than the caller already vetted, plus
/// [`MAX_SYMBOL_LEN`] bytes of slack that are truncated away at the end.
///
/// Each code is one 8-byte store, as in FSST's own decoder. The table
/// is parsed into symbol words and lengths: the escape's word is zero
/// and its length 1, and a code past the table has length 0. An
/// escape's literal is masked into its word and the cursor steps over
/// it, so escapes take no data-dependent branch.
pub fn decompress(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    let (&n, mut rest) = input
        .split_first()
        .ok_or("compressed chunk is empty (no symbol table)")?;
    let n = n as usize;
    if n > MAX_SYMBOLS {
        return Err(format!(
            "symbol table claims {n} entries (max {MAX_SYMBOLS})"
        ));
    }
    let mut words = [0u64; 256];
    let mut lens = [0u8; 256];
    lens[ESCAPE as usize] = 1;
    for (i, (word, sym_len)) in words.iter_mut().zip(&mut lens).take(n).enumerate() {
        let (&len, after) = rest
            .split_first()
            .ok_or_else(|| format!("symbol table truncated at entry {i}"))?;
        if len == 0 || len as usize > MAX_SYMBOL_LEN {
            return Err(format!("symbol {i} has invalid length {len}"));
        }
        let (sym, after) = after
            .split_at_checked(len as usize)
            .ok_or_else(|| format!("symbol table truncated inside entry {i}"))?;
        *word = sym.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b));
        *sym_len = len;
        rest = after;
    }
    let codes = rest;
    out.resize(raw_len + MAX_SYMBOL_LEN, 0);
    let (mut at, mut end) = (0, 0);
    while let Some(&code) = codes.get(at) {
        let lit = codes.get(at + 1);
        let is_escape = code == ESCAPE;
        if is_escape & lit.is_none() {
            return Err("dangling escape at end of chunk".into());
        }
        // repolint: allow(panic) — a u8 code cannot index past a 256-entry table
        let (word, len) = (words[code as usize], lens[code as usize] as usize);
        if len == 0 {
            return Err(format!(
                "invalid symbol code {code} (table has {n} entries)"
            ));
        }
        if end + len > raw_len {
            return Err(format!(
                "chunk decompresses past its declared {raw_len} bytes"
            ));
        }
        let lit_mask = 0u64.wrapping_sub(u64::from(is_escape));
        let word = word | (u64::from(lit.copied().unwrap_or(0)) & lit_mask);
        // repolint: allow(panic) — end < raw_len was just checked, and out holds raw_len + MAX_SYMBOL_LEN bytes
        out[end..end + MAX_SYMBOL_LEN].copy_from_slice(&word.to_le_bytes());
        end += len;
        at += 1 + usize::from(is_escape);
    }
    if end != raw_len {
        return Err(format!(
            "chunk decompressed to {end} bytes, header claims {raw_len}"
        ));
    }
    out.truncate(raw_len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        compress(input, &mut comp);
        let mut back = Vec::new();
        decompress(&comp, input.len(), &mut back).unwrap();
        back
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(b""), b"");
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let input: Vec<u8> = (0..20_000u32)
            .flat_map(|i| [0x83, 0x01, (i % 7) as u8, 0x40])
            .collect();
        let mut comp = Vec::new();
        compress(&input, &mut comp);
        assert!(
            comp.len() * 2 < input.len(),
            "repetitive stream must compress at least 2x, got {} from {}",
            comp.len(),
            input.len()
        );
        let mut back = Vec::new();
        decompress(&comp, input.len(), &mut back).unwrap();
        assert_eq!(back, input);
    }

    #[test]
    fn all_byte_values_round_trip() {
        let input: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn compression_is_deterministic() {
        let input: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i % 300).to_le_bytes())
            .collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        compress(&input, &mut a);
        compress(&input, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_code_is_rejected() {
        // Table with one symbol; code 200 is out of range.
        let comp = vec![1u8, 1, b'x', 200];
        let mut out = Vec::new();
        let err = decompress(&comp, 1, &mut out).unwrap_err();
        assert!(err.contains("invalid symbol code"), "{err}");
    }

    #[test]
    fn dangling_escape_is_rejected() {
        let comp = vec![0u8, ESCAPE];
        let mut out = Vec::new();
        let err = decompress(&comp, 1, &mut out).unwrap_err();
        assert!(err.contains("dangling escape"), "{err}");
    }

    #[test]
    fn truncated_table_is_rejected() {
        let comp = vec![3u8, 2, b'a'];
        let mut out = Vec::new();
        assert!(decompress(&comp, 10, &mut out).is_err());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let input = b"abcabcabc";
        let mut comp = Vec::new();
        compress(input, &mut comp);
        let mut out = Vec::new();
        let long = decompress(&comp, input.len() + 1, &mut out).unwrap_err();
        assert!(long.contains("header claims"), "{long}");
        let short = decompress(&comp, input.len() - 1, &mut out).unwrap_err();
        assert!(short.contains("past its declared"), "{short}");
    }

    #[test]
    fn oversized_symbol_count_is_rejected() {
        let comp = vec![255u8];
        let mut out = Vec::new();
        let err = decompress(&comp, 0, &mut out).unwrap_err();
        assert!(err.contains("symbol table claims"), "{err}");
    }

    /// The code-at-a-time decoder, one `extend_from_slice` per code: the
    /// reference `decompress` is diffed against.
    fn decompress_reference(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), String> {
        out.clear();
        out.reserve(raw_len);
        let (&n, mut rest) = input
            .split_first()
            .ok_or("compressed chunk is empty (no symbol table)")?;
        let n = n as usize;
        if n > MAX_SYMBOLS {
            return Err(format!(
                "symbol table claims {n} entries (max {MAX_SYMBOLS})"
            ));
        }
        let mut table: Vec<&[u8]> = Vec::with_capacity(n);
        for i in 0..n {
            let (&len, after) = rest
                .split_first()
                .ok_or_else(|| format!("symbol table truncated at entry {i}"))?;
            let len = len as usize;
            if len == 0 || len > MAX_SYMBOL_LEN {
                return Err(format!("symbol {i} has invalid length {len}"));
            }
            if after.len() < len {
                return Err(format!("symbol table truncated inside entry {i}"));
            }
            table.push(&after[..len]);
            rest = &after[len..];
        }
        let mut codes = rest.iter();
        while let Some(&code) = codes.next() {
            let sym: &[u8] = if code == ESCAPE {
                let lit = codes.next().ok_or("dangling escape at end of chunk")?;
                std::slice::from_ref(lit)
            } else if (code as usize) < table.len() {
                table[code as usize]
            } else {
                return Err(format!(
                    "invalid symbol code {code} (table has {n} entries)"
                ));
            };
            if out.len() + sym.len() > raw_len {
                return Err(format!(
                    "chunk decompresses past its declared {raw_len} bytes"
                ));
            }
            out.extend_from_slice(sym);
        }
        if out.len() != raw_len {
            return Err(format!(
                "chunk decompressed to {} bytes, header claims {raw_len}",
                out.len()
            ));
        }
        Ok(())
    }

    /// `decompress` and the reference give the same bytes or the same
    /// error on `input`. The output buffer starts dirty, as a reused
    /// scratch buffer does.
    fn assert_same(input: &[u8], raw_len: usize) {
        let mut got = vec![0xA5; 3];
        let mut want = Vec::new();
        let got = decompress(input, raw_len, &mut got).map(|()| got);
        let want = decompress_reference(input, raw_len, &mut want).map(|()| want);
        assert_eq!(got, want, "{} input bytes, raw_len {raw_len}", input.len());
    }

    /// Compress `raw`, then diff both decoders on the valid payload, on
    /// `raw_len` off by one either way, cut short by 1–9 bytes, with one
    /// byte appended and with single bytes flipped.
    fn assert_same_under_corruption(raw: &[u8]) {
        let mut comp = Vec::new();
        compress(raw, &mut comp);
        let n = raw.len();
        assert_same(&comp, n);
        assert_same(&comp, n + 1);
        if n > 0 {
            assert_same(&comp, n - 1);
        }
        for cut in 1..=9.min(comp.len()) {
            assert_same(&comp[..comp.len() - cut], n);
        }
        for extra in [0x00, 0x01, 0x7f, 0xfe, ESCAPE] {
            comp.push(extra);
            assert_same(&comp, n);
            comp.pop();
        }
        // Every position of a small payload; ~64 spread over a large one.
        let step = (comp.len() / 64).max(1);
        for i in (0..comp.len()).step_by(step) {
            for mask in [0x01, 0x80, 0xff] {
                comp[i] ^= mask;
                assert_same(&comp, n);
                comp[i] ^= mask;
            }
        }
    }

    /// A deterministic xorshift byte stream over `alphabet` values (0: all
    /// 256).
    fn random_bytes(seed: u64, len: usize, alphabet: u8) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match alphabet {
                    0 => x as u8,
                    a => (x % u64::from(a)) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn decompress_matches_the_reference_on_random_payloads() {
        for (seed, len) in [(1, 0), (2, 1), (3, 7), (4, 8), (5, 9), (6, 63), (7, 600)] {
            for alphabet in [0, 3, 17] {
                assert_same_under_corruption(&random_bytes(seed, len, alphabet));
            }
        }
        assert_same_under_corruption(&random_bytes(8, 3000, 0));
        assert_same_under_corruption(&random_bytes(9, 3000, 40));
    }

    #[test]
    fn decompress_matches_the_reference_on_generator_payloads() {
        use crate::trace::{TraceMeta, TraceWriter};
        for (bench, seed) in [("mcf", 1), ("twolf", 2), ("gzip", 3)] {
            let meta = TraceMeta {
                workload: bench.into(),
                benchmarks: vec![bench.into()],
                seed,
                seed_salt: 0,
                insts: 0,
                scheme: None,
            };
            let mut w = TraceWriter::create(std::io::Cursor::new(Vec::new()), &meta).unwrap();
            let mut g = crate::TraceGenerator::new(crate::benchmark(bench).unwrap(), seed);
            for _ in 0..1000 {
                w.push(0, g.next_record()).unwrap();
            }
            // A v1 container is mostly the varint/delta stream a chunk
            // payload holds.
            let bytes = w.finish().unwrap().into_inner();
            assert_same_under_corruption(&bytes);
            for window in bytes.chunks(499).take(3) {
                assert_same_under_corruption(window);
            }
        }
    }

    #[test]
    fn decompress_matches_the_reference_on_hand_picked_payloads() {
        let full_table: Vec<u8> = std::iter::once(MAX_SYMBOLS as u8)
            .chain((0..MAX_SYMBOLS).flat_map(|i| [1, i as u8]))
            .collect();
        let with = |codes: &[u8]| [full_table.as_slice(), codes].concat();
        let cases: Vec<(Vec<u8>, usize)> = vec![
            // Code 0xFE: never a symbol, even under a full table.
            (vec![1, 1, b'x', 0xFE], 1),
            (with(&[253, 0xFE]), 2),
            (with(&[253, 0]), 2),
            // An escape as the last code.
            (vec![0, ESCAPE], 1),
            (vec![1, 2, b'a', b'b', 0, ESCAPE], 3),
            (vec![0, ESCAPE, b'q', ESCAPE], 2),
            // A table truncated at and inside an entry.
            (vec![3, 2, b'a'], 10),
            (vec![2, 1, b'a'], 10),
            (vec![1, 8, 1, 2, 3, 4, 5, 6, 7], 8),
            // Invalid symbol lengths.
            (vec![1, 0, 0], 0),
            (vec![1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0], 9),
            // Eight-byte symbols filling the output exactly, and one byte
            // past it.
            (vec![1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0], 16),
            (vec![1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0], 15),
            (vec![1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, ESCAPE, 9], 9),
            // Escaped literals of every kind, including the escape byte.
            (vec![0, ESCAPE, 0, ESCAPE, ESCAPE, ESCAPE, 0xFE], 3),
            // Codes with no table, and an empty stream.
            (vec![0, 0], 1),
            (vec![0], 0),
            (vec![0], 1),
            (vec![], 0),
        ];
        for (input, raw_len) in cases {
            assert_same(&input, raw_len);
            for delta in [1, 8] {
                assert_same(&input, raw_len + delta);
                assert_same(&input, raw_len.saturating_sub(delta));
            }
        }
    }
}
