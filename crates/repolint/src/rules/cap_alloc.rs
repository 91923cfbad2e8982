//! Rule `cap-alloc` — cap every untrusted size before allocating from
//! it (the PR-8 hardening convention).
//!
//! Inside `[hardened] files`, any `with_capacity(n)`, `vec![x; n]` or
//! `.take(n)` whose `n` involves a runtime value must be *dominated* by
//! a named cap: either the argument itself is capped in place
//! (`n.min(MAX_X)`, or the argument is a SCREAMING_CASE constant), or
//! an earlier statement of the enclosing function compares one of the
//! argument's identifiers against a SCREAMING_CASE cap constant
//! (`if n > MAX_X { return Err(..) }`, `let n = len.min(MAX_X);`).
//!
//! This is a token-level dominance check, not dataflow: the guarding
//! statement must name an identifier of the size argument, but the
//! check cannot see reassignments in between. It exists to catch the
//! regression that actually happened (a decoded length allocated with
//! no cap in sight) and a cap on one value standing in for another;
//! `// repolint: allow(cap-alloc) — …` covers the cases it cannot
//! reason about.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::{code, Kind, Tok};
use crate::workspace::Workspace;

pub fn check(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !cfg.hardened.contains(&file.path) {
            continue;
        }
        let toks: Vec<&Tok> = code(&file.toks).collect();
        for i in 0..toks.len() {
            if file.in_test(toks[i].line) {
                continue;
            }
            if let Some((what, args_start)) = alloc_site(&toks, i) {
                check_alloc(&toks, i, args_start, what, &file.path, &mut out);
            }
        }
    }
    out
}

/// Is token `i` the head of an allocation/consumption site? Returns the
/// human label and the index of the opening `(` / `;` of the size args.
fn alloc_site(toks: &[&Tok], i: usize) -> Option<(&'static str, usize)> {
    let t = toks[i];
    if t.kind != Kind::Ident {
        return None;
    }
    match t.text.as_str() {
        "with_capacity" if toks.get(i + 1).is_some_and(|n| n.text == "(") => {
            Some(("with_capacity", i + 1))
        }
        "take"
            if i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
        {
            Some(("take", i + 1))
        }
        // `vec![elem; n]`: report the repeat-count expression.
        "vec"
            if toks.get(i + 1).is_some_and(|n| n.text == "!")
                && toks.get(i + 2).is_some_and(|n| n.text == "[") =>
        {
            let mut depth = 1;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" | "(" | "{" => depth += 1,
                    "]" | ")" | "}" => depth -= 1,
                    ";" if depth == 1 => return Some(("vec![_; n]", j)),
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => None,
    }
}

fn check_alloc(
    toks: &[&Tok],
    site: usize,
    args_start: usize,
    what: &'static str,
    path: &str,
    out: &mut Vec<Finding>,
) {
    // Collect the size-argument tokens (to the matching close bracket).
    let (open, close) = match toks[args_start].text.as_str() {
        "(" => ("(", ")"),
        _ => ("[", "]"), // the `;` of vec![_; n] — scan to the `]`
    };
    let mut depth = 1;
    let mut j = args_start + 1;
    let mut args: Vec<&Tok> = Vec::new();
    while j < toks.len() && depth > 0 {
        let text = toks[j].text.as_str();
        if text == open || (open == "[" && text == "[") {
            depth += 1;
        } else if text == close {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        args.push(toks[j]);
        j += 1;
    }

    // A size with no runtime inputs (literals, SCREAMING consts, casts)
    // cannot be hostile; a SCREAMING const anywhere in the argument also
    // passes (`len.min(MAX_X)`, `with_capacity(CHUNK_RECORDS)`).
    let runtime_inputs = args
        .iter()
        .any(|t| t.kind == Kind::Ident && !is_benign_ident(&t.text));
    let self_capped = args.iter().any(|t| is_cap_const(&t.text));
    if !runtime_inputs || self_capped {
        return;
    }

    // Dominance: from the enclosing `fn` head to the site, some token
    // must be a SCREAMING cap const next to a comparison or `.min(`, in
    // a statement that names one of the size argument's identifiers.
    let sized_by: Vec<&str> = args
        .iter()
        .filter(|t| t.kind == Kind::Ident && !is_benign_ident(&t.text) && t.text != "self")
        .map(|t| t.text.as_str())
        .collect();
    let fn_start = (0..site)
        .rev()
        .find(|&k| toks[k].kind == Kind::Ident && toks[k].text == "fn")
        .unwrap_or(0);
    let window = &toks[fn_start..site];
    let guarded = window.iter().enumerate().any(|(k, t)| {
        is_cap_const(&t.text)
            && window
                .iter()
                .skip(k.saturating_sub(3))
                .take(7)
                .any(|n| matches!(n.text.as_str(), ">" | "<" | ">=" | "<=" | "min" | "clamp"))
            && statement(window, k)
                .iter()
                .any(|n| n.kind == Kind::Ident && sized_by.contains(&n.text.as_str()))
    });
    if !guarded {
        out.push(Finding {
            rule: "cap-alloc".into(),
            file: path.to_string(),
            line: toks[site].line,
            message: format!(
                "`{what}` sized from a runtime value with no dominating \
                 MAX_* cap check in this function — cap the size before \
                 allocating (see docs/LINTS.md)"
            ),
        });
    }
}

/// The tokens of the statement around `toks[k]`: out to the nearest `;`,
/// `{` or `}` on either side, so an `if` condition ends at its block.
fn statement<'a>(toks: &'a [&'a Tok], k: usize) -> &'a [&'a Tok] {
    let bound = |t: &&Tok| matches!(t.text.as_str(), ";" | "{" | "}");
    let start = toks[..k].iter().rposition(bound).map_or(0, |i| i + 1);
    let end = toks[k..]
        .iter()
        .position(bound)
        .map_or(toks.len(), |i| k + i);
    &toks[start..end]
}

/// SCREAMING_CASE ident — a named cap (or other compile-time constant).
fn is_cap_const(ident: &str) -> bool {
    ident.len() >= 2
        && ident
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && ident.chars().any(|c| c.is_ascii_uppercase())
}

/// Idents in a size expression that are not runtime data.
fn is_benign_ident(ident: &str) -> bool {
    is_cap_const(ident)
        || matches!(
            ident,
            "as" | "usize"
                | "u8"
                | "u16"
                | "u32"
                | "u64"
                | "isize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "f32"
                | "f64"
                | "min"
                | "max"
                | "len"
                | "size_of"
                | "mem"
                | "std"
        )
}
