//! Stream pins: a 64-bit FNV-1a digest of `(gap, addr, is_write)` over
//! the first [`RECORDS`] records of every benchmark stand-in at two seeds.
//!
//! The scenario goldens and the shipped `.pltc` fixtures run 20k
//! instructions per thread, short of every phase switch (the shortest
//! phase is 250k instructions). [`RECORDS`] records reach past the first
//! switch of every profile (checked below), including the `StackGeom`
//! stacks rebuilt when a phase changes their region size (gcc, galgel,
//! apsi, bzip2, gzip, perlbmk, applu). Any change to the generator's
//! sampling order or arithmetic shows here.

use tracegen::{benchmark, benchmark_names, TraceGenerator};

/// Records digested per stream.
const RECORDS: usize = 400_000;

/// `(benchmark, digest)` at seed 1.
const SEED_1: &[(&str, u64)] = &[
    ("apsi", 0x09c558dc411be696),
    ("bzip2", 0x19ffbcfe5c94cefd),
    ("mcf", 0x3aea06e5f6e9347b),
    ("parser", 0x2376799a9fe24888),
    ("twolf", 0x44bfe36beba6ada6),
    ("vortex", 0x633580c43f9d8a8f),
    ("vpr", 0x4f8dd600db3b41e1),
    ("art", 0xa6cd818eabd62790),
    ("crafty", 0x6b708275a73fbe91),
    ("eon", 0x24ce7cba6b1abca1),
    ("gcc", 0xe0883b390c1f937d),
    ("gzip", 0xd9cffec9d453af8d),
    ("applu", 0x7f9257956c8dd198),
    ("gap", 0x2c238b8d37b318e6),
    ("lucas", 0x1bcc38527ba0c020),
    ("sixtrack", 0x26dd7d3f5ca3ef0b),
    ("facerec", 0x4adcb8cb14324183),
    ("wupwise", 0x1c21a60d148214d2),
    ("galgel", 0x77a711dafbda897e),
    ("fma3d", 0xd2e4ccd289919926),
    ("swim", 0x327ab809034f33aa),
    ("mesa", 0xf24ee5a154455769),
    ("perlbmk", 0x4712d06b94890e80),
    ("equake", 0x1e9a8139df8dfce7),
    ("mgrid", 0xfbfa06840c930a2c),
];

/// `(benchmark, digest)` at seed 42.
const SEED_42: &[(&str, u64)] = &[
    ("apsi", 0x17f1ee5b10429a10),
    ("bzip2", 0x8a08afc89ce7aa46),
    ("mcf", 0x57336005192cde64),
    ("parser", 0xa150c51a44144db3),
    ("twolf", 0x3218e4f8e6bb9d7e),
    ("vortex", 0x37c98875036018e2),
    ("vpr", 0x6e07355bacc436eb),
    ("art", 0x812015c332ab987e),
    ("crafty", 0xf68fddf7877c05f0),
    ("eon", 0x7e6777acba8633c5),
    ("gcc", 0x52ffbe8e0e646a65),
    ("gzip", 0x870032afe987adcb),
    ("applu", 0x281194e044195e80),
    ("gap", 0x0cfce03518c95dac),
    ("lucas", 0xf5519e8cedb243ba),
    ("sixtrack", 0x5976cf603c84e44b),
    ("facerec", 0xf3a319723ac8ff20),
    ("wupwise", 0xbbb46cd19f2618d9),
    ("galgel", 0xf8b706a10cd86e5c),
    ("fma3d", 0x46caa483b86d54c9),
    ("swim", 0x66396c9ea1bccba5),
    ("mesa", 0xf4ebd117f9a9adb3),
    ("perlbmk", 0x89092ab857149cac),
    ("equake", 0xfb00d65936aacef5),
    ("mgrid", 0x469331aefb4b931b),
];

/// Digest of the first [`RECORDS`] records of `name` at `seed`, after
/// checking the stream crossed its first phase boundary.
fn stream_digest(name: &str, seed: u64) -> u64 {
    let profile = benchmark(name).unwrap();
    let first_phase = profile.phases[0].insts;
    let mut gen = TraceGenerator::new(profile, seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for _ in 0..RECORDS {
        let r = gen.next_record();
        eat(&r.gap.to_le_bytes());
        eat(&r.addr.to_le_bytes());
        eat(&[u8::from(r.is_write)]);
    }
    assert!(
        gen.instructions() > first_phase,
        "{name}: {} insts never left the first phase ({first_phase})",
        gen.instructions()
    );
    h
}

fn check(seed: u64, pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = benchmark_names()
        .into_iter()
        .map(|n| (n, stream_digest(n, seed)))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    ({n:?}, 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got, pinned,
        "stream digests at seed {seed} moved; got:\n{table}"
    );
}

#[test]
fn streams_match_pins_at_seed_1() {
    check(1, SEED_1);
}

#[test]
fn streams_match_pins_at_seed_42() {
    check(42, SEED_42);
}
