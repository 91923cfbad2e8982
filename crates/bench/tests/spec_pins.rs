//! The shipped quick-figure specs under `scenarios/` must stay in sync
//! with the spec builders the figure binaries run, so that
//! `cargo run --bin sweep -- scenarios/fig8_quick.json` reproduces the
//! `fig8 --quick` binary's underlying numbers.
//!
//! To regenerate the shipped files after changing a builder:
//!
//! ```sh
//! UPDATE_SPECS=1 cargo test -p plru-bench --test spec_pins
//! ```

use plru_bench::{fig6_spec, fig8_spec, Options};
use plru_repro::scenario::ScenarioSpec;

/// The options the shipped quick specs encode: `--quick` with the default
/// seed (`Options::parse(["--quick"])`, which also caps the instruction
/// budget at 300k).
fn quick_options() -> Options {
    Options::parse(["--quick".to_string()]).unwrap()
}

fn pin(file: &str, built: &ScenarioSpec) {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_SPECS").as_deref() == Ok("1") {
        std::fs::write(&path, built.to_json_pretty() + "\n").expect("write spec");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}; regenerate with UPDATE_SPECS=1"));
    let shipped = ScenarioSpec::from_json(&text).expect("shipped spec parses");
    assert_eq!(
        &shipped, built,
        "scenarios/{file} is out of sync with its builder; \
         regenerate with UPDATE_SPECS=1 cargo test -p plru-bench --test spec_pins"
    );
}

#[test]
fn shipped_fig6_quick_spec_matches_builder() {
    pin("fig6_quick.json", &fig6_spec(&quick_options()));
}

#[test]
fn shipped_fig8_quick_spec_matches_builder() {
    pin("fig8_quick.json", &fig8_spec(&quick_options()));
}
