//! Seeded-violation fixtures: for every rule family, one snippet that
//! must fire, one clean counterpart that must not, and a pragma'd
//! exception that must be suppressed. These are the proof that the CI
//! gate actually gates — if a rule regresses into silence, these fail.

use repolint::config::Config;
use repolint::findings::Report;
use repolint::workspace::{CrateInfo, SourceFile, Workspace};
use repolint::Options;

/// A minimal two-crate workspace the fixtures decorate.
fn base_ws() -> Workspace {
    Workspace {
        crates: vec![
            CrateInfo {
                name: "rootpkg".into(),
                dir: String::new(),
                deps: vec!["lowcrate".into(), "serde".into()],
                dev_deps: vec![],
            },
            CrateInfo {
                name: "lowcrate".into(),
                dir: "crates/lowcrate".into(),
                deps: vec![],
                dev_deps: vec![],
            },
        ],
        ..Default::default()
    }
}

fn base_cfg() -> Config {
    Config::parse(
        r#"
[external]
crates = ["serde"]
forbidden = ["serde_derive"]
[layers]
rootpkg = ["lowcrate"]
lowcrate = []
[modules]
order = ["service", "engine"]
[hardened]
files = ["crates/lowcrate/src/decode.rs"]
[error-contract]
files = ["src/**"]
[drift]
bench-baselines = "BENCH_"
bench-sources = "benches"
scenarios-doc = "docs/SCENARIOS.md"
spec-source = "src/engine/spec.rs"
cap-source = "crates/lowcrate/src/decode.rs:MAX_IN"
cap-mirror = "src/service/wire.rs:MAX_WIRE"
"#,
    )
    .unwrap()
}

fn add(ws: &mut Workspace, path: &str, krate: &str, src: &str) {
    ws.files.push(SourceFile::from_source(path, krate, src));
}

/// Run and return (findings, report) with the standard fixture config.
fn run(ws: &Workspace) -> Report {
    repolint::run(ws, &base_cfg(), Options::default())
}

/// Baseline files every fixture needs so config validation stays quiet.
fn scaffold(ws: &mut Workspace) {
    add(
        ws,
        "crates/lowcrate/src/decode.rs",
        "lowcrate",
        "pub const MAX_IN: u32 = 64;\npub fn ok() {}\n",
    );
    add(
        ws,
        "src/service/wire.rs",
        "rootpkg",
        "pub const MAX_WIRE: u32 = lowcrate::decode::MAX_IN;\n",
    );
    add(
        ws,
        "src/engine/spec.rs",
        "rootpkg",
        "pub struct Spec { pub widgets: u32 }\n",
    );
    add(
        ws,
        "benches/speed.rs",
        "rootpkg",
        "fn main() { c.bench(\"grp\", format!(\"leaf-{n}\")); }\n",
    );
    ws.texts
        .push(("docs/SCENARIOS.md".into(), "- **`widgets`** axis\n".into()));
    ws.texts.push((
        "BENCH_0.json".into(),
        r#"{"results":[{"id":"grp/leaf"}]}"#.into(),
    ));
}

fn rules_fired(report: &Report, rule: &str) -> Vec<(String, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

#[test]
fn clean_scaffold_is_clean() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    let report = run(&ws);
    assert!(
        report.findings.is_empty(),
        "scaffold should be clean, got: {:?}",
        report.findings
    );
}

#[test]
fn layering_fires_on_upward_and_forbidden_imports() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    // Violation: the low crate reaching up into the root package, plus a
    // forbidden stub-internal path.
    add(
        &mut ws,
        "crates/lowcrate/src/bad.rs",
        "lowcrate",
        "use rootpkg::thing;\nuse serde_derive::Serialize;\n",
    );
    // Violation: a root module reaching up the module order.
    add(
        &mut ws,
        "src/engine/up.rs",
        "rootpkg",
        "use crate::service::wire;\n",
    );
    // Clean: root reaching down into the low crate and into serde.
    add(
        &mut ws,
        "src/service/fine.rs",
        "rootpkg",
        "use lowcrate::decode;\nuse serde::Serialize;\nuse crate::engine;\n",
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "layering");
    assert!(
        hits.contains(&("crates/lowcrate/src/bad.rs".into(), 1)),
        "{hits:?}"
    );
    assert!(
        hits.contains(&("crates/lowcrate/src/bad.rs".into(), 2)),
        "{hits:?}"
    );
    assert!(hits.contains(&("src/engine/up.rs".into(), 1)), "{hits:?}");
    assert!(
        !hits.iter().any(|(f, _)| f == "src/service/fine.rs"),
        "{hits:?}"
    );
}

#[test]
fn layering_fires_on_manifest_edges() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    ws.crates[1].deps.push("rootpkg".into()); // low crate depending on root
    let report = run(&ws);
    let hits = rules_fired(&report, "layering");
    assert!(
        hits.contains(&("crates/lowcrate/Cargo.toml".into(), 0)),
        "{hits:?}"
    );
}

#[test]
fn panic_rule_fires_in_hardened_files_only() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    // The hardened file gains violations: unwrap, panic!, computed index.
    let hardened = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/lowcrate/src/decode.rs")
        .unwrap();
    *hardened = SourceFile::from_source(
        "crates/lowcrate/src/decode.rs",
        "lowcrate",
        concat!(
            "pub const MAX_IN: u32 = 64;\n",
            "pub fn bad(v: &[u8], i: usize) -> u8 {\n",
            "    let x = v.first().unwrap();\n",
            "    if *x > 9 { panic!(\"boom\") }\n",
            "    v[i]\n",
            "}\n",
            "pub fn fine(v: &[u8], i: usize) -> Option<u8> {\n",
            "    v.get(i).copied()\n",
            "}\n",
            "pub fn excused(v: &[u8], i: usize) -> u8 {\n",
            "    // repolint: allow(panic) — fixture: caller bounds i\n",
            "    v[i]\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { assert!(super::fine(&[1], 0).unwrap() == 1); }\n",
            "}\n",
        ),
    );
    // Same code outside the hardened list: must not fire.
    add(
        &mut ws,
        "crates/lowcrate/src/other.rs",
        "lowcrate",
        "pub fn f(v: &[u8], i: usize) -> u8 { v[i] }\n",
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "panic");
    assert_eq!(
        hits,
        vec![
            ("crates/lowcrate/src/decode.rs".into(), 3),
            ("crates/lowcrate/src/decode.rs".into(), 4),
            ("crates/lowcrate/src/decode.rs".into(), 5),
        ],
        "unwrap, panic! and v[i] should fire; test mod, .get and pragma'd site should not"
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].1, "fixture: caller bounds i");
}

#[test]
fn cap_alloc_fires_without_a_dominating_cap() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    let hardened = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/lowcrate/src/decode.rs")
        .unwrap();
    *hardened = SourceFile::from_source(
        "crates/lowcrate/src/decode.rs",
        "lowcrate",
        concat!(
            "pub const MAX_IN: u32 = 64;\n",
            "pub fn bad(n: usize) -> Vec<u8> {\n",
            "    Vec::with_capacity(n)\n",
            "}\n",
            "pub fn capped_inline(n: usize) -> Vec<u8> {\n",
            "    Vec::with_capacity(n.min(MAX_IN as usize))\n",
            "}\n",
            "pub fn guarded(n: u32) -> Option<Vec<u8>> {\n",
            "    if n > MAX_IN { return None; }\n",
            "    Some(vec![0u8; n as usize])\n",
            "}\n",
        ),
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "cap-alloc");
    assert_eq!(
        hits,
        vec![("crates/lowcrate/src/decode.rs".into(), 3)],
        "only the uncapped with_capacity should fire"
    );
}

#[test]
fn cap_alloc_wants_the_cap_on_the_allocated_value() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    let hardened = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/lowcrate/src/decode.rs")
        .unwrap();
    *hardened = SourceFile::from_source(
        "crates/lowcrate/src/decode.rs",
        "lowcrate",
        concat!(
            "pub const MAX_IN: u32 = 64;\n",
            "pub fn other_value(n: u32, m: u32) -> Option<Vec<u8>> {\n",
            "    if n > MAX_IN { return None; }\n",
            "    Some(vec![0u8; m as usize])\n",
            "}\n",
            "pub fn capped_binding(len: u32) -> Vec<u8> {\n",
            "    let n = len.min(MAX_IN);\n",
            "    Vec::with_capacity(n as usize)\n",
            "}\n",
            "pub fn field(h: Header) -> Option<Vec<u8>> {\n",
            "    if h.len > MAX_IN { return None; }\n",
            "    Some(vec![0u8; h.len as usize])\n",
            "}\n",
        ),
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "cap-alloc");
    assert_eq!(
        hits,
        vec![("crates/lowcrate/src/decode.rs".into(), 4)],
        "a cap on `n` does not cap an allocation sized by `m`"
    );
}

#[test]
fn error_style_fires_on_uppercase_and_multiline() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    add(
        &mut ws,
        "src/service/errs.rs",
        "rootpkg",
        concat!(
            "pub fn bad() -> Result<(), String> {\n",
            "    Err(\"Bad things happened\".to_string())\n",
            "}\n",
            "pub fn worse() -> Result<(), String> {\n",
            "    Err(\"line one\\nline two\".to_string())\n",
            "}\n",
            "pub fn fine() -> Result<(), String> {\n",
            "    Err(\"bad things happened\".to_string())\n",
            "}\n",
            "pub fn acronym() -> Result<(), String> {\n",
            "    Err(\"NRU scale out of range\".to_string())\n",
            "}\n",
            "pub fn wrapped() -> Result<(), String> {\n",
            "    Err(\"one logical line \\\n",
            "         continued in source\".to_string())\n",
            "}\n",
        ),
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "error-style");
    assert_eq!(
        hits,
        vec![
            ("src/service/errs.rs".into(), 2),
            ("src/service/errs.rs".into(), 5),
        ],
        "uppercase and real-\\n fire; lowercase, acronym and continuation do not"
    );
}

#[test]
fn drift_fires_on_stale_bench_id_axis_and_cap_fork() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    // Stale bench id, unknown doc axis, and a cap mirror that forked.
    ws.texts
        .retain(|(p, _)| p != "BENCH_0.json" && p != "docs/SCENARIOS.md");
    ws.texts.push((
        "BENCH_0.json".into(),
        r#"{"results":[{"id":"grp/leaf"},{"id":"gone/one"}]}"#.into(),
    ));
    ws.texts.push((
        "docs/SCENARIOS.md".into(),
        "- **`widgets`** axis\n- **`gadgets`** axis\n".into(),
    ));
    let wire = ws
        .files
        .iter_mut()
        .find(|f| f.path == "src/service/wire.rs")
        .unwrap();
    *wire = SourceFile::from_source(
        "src/service/wire.rs",
        "rootpkg",
        "pub const MAX_WIRE: u32 = 128;\n",
    );
    let report = run(&ws);
    let hits = rules_fired(&report, "drift");
    assert!(hits.contains(&("BENCH_0.json".into(), 0)), "{hits:?}");
    assert!(hits.contains(&("docs/SCENARIOS.md".into(), 2)), "{hits:?}");
    assert!(
        hits.contains(&("src/service/wire.rs".into(), 1)),
        "{hits:?}"
    );
    assert_eq!(hits.len(), 3, "{hits:?}");
}

#[test]
fn config_rule_fires_on_nonexistent_targets() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    let mut cfg = base_cfg();
    cfg.layers.insert("ghostcrate".into(), vec![]);
    cfg.hardened.push("src/ghost.rs".into());
    // An external crate no manifest depends on is stale config too.
    cfg.external_crates.push("unusedstub".into());
    let report = repolint::run(&ws, &cfg, Options::default());
    let hits = rules_fired(&report, "config");
    assert_eq!(hits.len(), 3, "{:?}", report.findings);
    assert!(hits.iter().all(|(f, _)| f == "repolint.toml"));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "config" && f.message.contains("`unusedstub`")),
        "{:?}",
        report.findings
    );
}

#[test]
fn pragma_rule_fires_on_typos_and_deny_promotes_unused() {
    let mut ws = base_ws();
    scaffold(&mut ws);
    add(
        &mut ws,
        "src/service/pragmas.rs",
        "rootpkg",
        concat!(
            "// repolint: alow(panic) — typo in the verb\n",
            "pub fn a() {}\n",
            "// repolint: allow(panic)\n",
            "pub fn b() {}\n",
            "// repolint: allow(panic) — suppresses nothing here\n",
            "pub fn c() {}\n",
        ),
    );
    let lax = run(&ws);
    let hits = rules_fired(&lax, "pragma");
    // The typo and the missing reason are findings; the unused-but-valid
    // pragma is a warning until --deny.
    assert_eq!(hits.len(), 2, "{:?}", lax.findings);
    assert_eq!(lax.warnings.len(), 1, "{:?}", lax.warnings);

    let deny = repolint::run(&ws, &base_cfg(), Options { deny: true });
    assert_eq!(rules_fired(&deny, "pragma").len(), 3, "{:?}", deny.findings);
    assert!(deny.warnings.is_empty());
}
