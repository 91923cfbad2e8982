//! repolint — the repo's conventions, enforced as a dependency-free
//! static-analysis pass.
//!
//! The architecture docs state invariants (layering, panic-freedom on
//! untrusted paths, cap-before-allocate, the one-line stderr contract);
//! this crate makes them fail the build instead of a review comment.
//! Everything is hand-rolled — lexer, TOML-subset config reader, JSON
//! reader — because the lint tool must sit *outside* the dependency
//! graph it polices, and the no-network build rules out real parser
//! crates.
//!
//! Flow: [`workspace::Workspace::load`] lexes the tree into a pure
//! in-memory model, each rule family in [`rules`] maps that model to
//! findings, and the engine here layers on config validation, pragma
//! suppression and reporting. See `docs/LINTS.md` for the rule catalog
//! and `repolint.toml` for the machine-readable layer graph.

pub mod config;
pub mod findings;
pub mod jsonmini;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod workspace;

use config::Config;
use findings::{known_rule, Finding, Report};
use workspace::Workspace;

/// Engine knobs (the CLI surface, minus paths).
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Promote warnings (unused pragmas) to findings — the CI gate.
    pub deny: bool,
}

/// Run every rule family over an already-loaded workspace.
pub fn run(ws: &Workspace, cfg: &Config, opts: Options) -> Report {
    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Default::default()
    };

    // Config drift first: a config describing a tree that no longer
    // exists would silently stop enforcing — that is itself a finding.
    report.findings.extend(validate_config(ws, cfg));

    report.findings.extend(rules::layering::check(ws, cfg));
    report.findings.extend(rules::panic_freedom::check(ws, cfg));
    report.findings.extend(rules::cap_alloc::check(ws, cfg));
    report
        .findings
        .extend(rules::error_contract::check(ws, cfg));
    report.findings.extend(rules::drift::check(ws, cfg));

    for file in &ws.files {
        // Malformed `repolint:` comments and unknown rule names are
        // findings — a typo must never silently disable a lint.
        for err in &file.pragma_errors {
            report.findings.push(Finding {
                rule: "pragma".into(),
                file: file.path.clone(),
                line: err.line,
                message: err.message.clone(),
            });
        }
        for p in &file.pragmas {
            for r in &p.rules {
                if !known_rule(r) {
                    report.findings.push(Finding {
                        rule: "pragma".into(),
                        file: file.path.clone(),
                        line: p.line,
                        message: format!("pragma names unknown rule `{r}`"),
                    });
                }
            }
        }
        for p in report.apply_pragmas(&file.path, &file.pragmas) {
            if p.rules.iter().all(|r| known_rule(r)) {
                report.warnings.push(Finding {
                    rule: "pragma".into(),
                    file: file.path.clone(),
                    line: p.line,
                    message: format!(
                        "pragma `allow({})` suppresses nothing — remove it or move it \
                         next to the finding",
                        p.rules.join(", ")
                    ),
                });
            }
        }
    }

    if opts.deny {
        let promoted = std::mem::take(&mut report.warnings);
        report.findings.extend(promoted);
    }
    report.sort();
    report
}

/// The `config` rule: repolint.toml must describe the tree that exists.
fn validate_config(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |message: String| Finding {
        rule: "config".into(),
        file: "repolint.toml".into(),
        line: 0,
        message,
    };
    let crate_names: Vec<&str> = ws.crates.iter().map(|c| c.name.as_str()).collect();
    let known_pkg =
        |name: &str| crate_names.contains(&name) || cfg.external_crates.iter().any(|e| e == name);

    for (layer, deps) in cfg.layers.iter().chain(cfg.dev_layers.iter()) {
        if !crate_names.contains(&layer.as_str()) {
            out.push(finding(format!(
                "layer graph names `{layer}`, which is not a workspace crate"
            )));
        }
        for dep in deps {
            if !known_pkg(dep) {
                out.push(finding(format!(
                    "layer `{layer}` allows `{dep}`, which is neither a workspace \
                     crate nor an [external] crate"
                )));
            }
        }
    }
    for ext in &cfg.external_crates {
        let used = ws
            .crates
            .iter()
            .any(|c| c.deps.contains(ext) || c.dev_deps.contains(ext));
        if !used {
            out.push(finding(format!(
                "[external] crate `{ext}` is not a dependency of any workspace crate"
            )));
        }
    }
    for m in &cfg.module_order {
        let exists = ws
            .files
            .iter()
            .any(|f| f.path.starts_with(&format!("src/{m}/")) || f.path == format!("src/{m}.rs"));
        if !exists {
            out.push(finding(format!(
                "[modules] order names `{m}`, but src/{m}.rs and src/{m}/ do not exist"
            )));
        }
    }
    for path in &cfg.hardened {
        if ws.file(path).is_none() {
            out.push(finding(format!("[hardened] file `{path}` does not exist")));
        }
    }
    for glob in &cfg.error_files {
        if !ws.files.iter().any(|f| {
            cfg.error_contract_covers(&f.path) && {
                // Attribute the miss to the specific glob, not the set.
                match glob.strip_suffix("/**") {
                    Some(prefix) => f.path.starts_with(prefix),
                    None => f.path == *glob,
                }
            }
        }) {
            out.push(finding(format!(
                "[error-contract] pattern `{glob}` matches no files"
            )));
        }
    }

    let d = &cfg.drift;
    if !d.bench_sources.is_empty()
        && !ws
            .files
            .iter()
            .any(|f| f.path.starts_with(&d.bench_sources))
    {
        out.push(finding(format!(
            "[drift] bench-sources `{}` matches no source files",
            d.bench_sources
        )));
    }
    if !d.scenarios_doc.is_empty() && ws.text(&d.scenarios_doc).is_none() {
        out.push(finding(format!(
            "[drift] scenarios-doc `{}` does not exist",
            d.scenarios_doc
        )));
    }
    if !d.spec_source.is_empty() && ws.file(&d.spec_source).is_none() {
        out.push(finding(format!(
            "[drift] spec-source `{}` does not exist",
            d.spec_source
        )));
    }
    for (key, site) in [("cap-source", &d.cap_source), ("cap-mirror", &d.cap_mirror)] {
        if site.is_empty() {
            continue;
        }
        let Some((path, name)) = site.split_once(':') else {
            out.push(finding(format!(
                "[drift] {key} `{site}` is not `path:CONST`"
            )));
            continue;
        };
        match ws.file(path) {
            None => out.push(finding(format!(
                "[drift] {key} file `{path}` does not exist"
            ))),
            Some(f) => {
                let has = lexer::code(&f.toks).any(|t| t.text == name);
                if !has {
                    out.push(finding(format!(
                        "[drift] {key} const `{name}` not found in `{path}`"
                    )));
                }
            }
        }
    }
    out
}
