//! Contract tests for the first-class `Scheme` API: the parse ↔ display
//! round trip over the whole registry (property-tested), one-line parse
//! errors for invalid policy/enforcement combinations, and compatibility
//! with the acronyms already baked into shipped artifacts (trace
//! containers and golden sweep reports).

use plru_repro::plru_core::scheme::{self, registry};
use plru_repro::plru_core::{EnforcementStyle, NruUpdateMode, ProfilerFidelity};
use plru_repro::prelude::*;
use proptest::prelude::*;

/// Any valid scheme, built from registry components: a bare policy, or a
/// CPA pairing a partitionable policy with either enforcement style (NRU
/// additionally drawing its eSDH scale from (0, 1]).
fn arb_scheme() -> impl Strategy<Value = Scheme> {
    // One template pool covering both shapes: bare acronyms verbatim, CPA
    // acronyms with a `{}` slot for the scale of scaled policies.
    let mut templates: Vec<(String, bool)> = registry()
        .iter()
        .map(|e| (e.acronym.to_string(), false))
        .collect();
    for e in registry().iter().filter(|e| e.partitionable) {
        for enf in ["C", "M"] {
            templates.push((format!("{enf}-{{}}{}", e.acronym), e.scaled));
        }
    }
    (prop::sample::select(templates), 1u32..=100).prop_map(|((template, scaled), scale_pct)| {
        let scale = if scaled {
            format!("{}", scale_pct as f64 / 100.0)
        } else {
            String::new()
        };
        template
            .replace("{}", &scale)
            .parse::<Scheme>()
            .expect("registry-derived schemes always parse")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(display(s)) == s` for every scheme the registry can express,
    /// including arbitrary NRU scales — full structural equality, not just
    /// acronym equality.
    #[test]
    fn parse_display_round_trips(scheme in arb_scheme()) {
        let printed = scheme.to_string();
        let reparsed: Scheme = printed.parse().unwrap();
        prop_assert_eq!(&reparsed, &scheme, "`{}` did not round-trip", printed);
        prop_assert_eq!(reparsed.to_string(), printed, "display must be canonical");
    }

    /// Serde round trip: the full-fidelity wire form rebuilds the scheme
    /// exactly (the golden reports depend on this shape staying stable).
    #[test]
    fn serde_round_trips(scheme in arb_scheme()) {
        let json = serde_json::to_string(&scheme).unwrap();
        let back: Scheme = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, scheme);
    }
}

#[test]
fn every_baseline_scheme_round_trips() {
    let all = Scheme::all_baseline();
    assert_eq!(
        all.len(),
        registry().len() + 6,
        "every policy bare + the paper's six CPA configurations"
    );
    for s in &all {
        assert_eq!(&s.to_string().parse::<Scheme>().unwrap(), s);
    }
}

#[test]
fn invalid_combos_fail_at_parse_with_one_line_errors() {
    // Every non-partitionable policy rejects both enforcement styles.
    for e in registry().iter().filter(|e| !e.partitionable) {
        for enf in ["C", "M"] {
            let bad = format!("{enf}-{}", e.acronym);
            let err = bad.parse::<Scheme>().unwrap_err().to_string();
            assert!(!err.contains('\n'), "`{bad}`: error must be one line");
            assert!(err.contains("cannot be partitioned"), "`{bad}`: {err}");
            assert!(
                err.contains(e.acronym),
                "`{bad}` error names the policy: {err}"
            );
        }
    }
    // Unknown acronyms, enforcements and out-of-range scales.
    for bad in [
        "Q", "X-L", "M-2.0N", "M-0N", "M-", "M-N", "M-0.75L", "m-l", "",
    ] {
        let err = bad.parse::<Scheme>().unwrap_err().to_string();
        assert!(
            !err.contains('\n'),
            "`{bad}`: error must be one line: {err}"
        );
        assert!(!err.is_empty());
    }
}

#[test]
fn scale_spelling_variants_collapse_to_the_canonical_form() {
    for (variant, canonical) in [
        ("M-.75N", "M-0.75N"),
        ("M-1N", "M-1.0N"),
        ("C-0.50N", "C-0.5N"),
    ] {
        let s: Scheme = variant.parse().unwrap();
        assert_eq!(s.to_string(), canonical);
    }
}

#[test]
fn capability_queries_match_the_simulator() {
    // The profilable policies take both enforcement styles; the reference
    // policies take neither — exactly the policies a `Profiler` exists for.
    let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap();
    for e in registry() {
        let profiled = Profiler::new(
            e.kind,
            geom,
            32,
            0.75,
            NruUpdateMode::Scaled,
            ProfilerFidelity::Exact,
        )
        .is_ok();
        assert_eq!(e.partitionable, profiled, "{}", e.acronym);
        for enforcement in [EnforcementStyle::OwnerCounters, EnforcementStyle::Masks] {
            let cpa = CpaConfig {
                policy: e.kind,
                enforcement,
                ..CpaConfig::m_nru(0.75)
            };
            assert_eq!(
                Scheme::partitioned(cpa).is_ok(),
                profiled,
                "{} {enforcement:?}",
                e.acronym
            );
        }
    }
    assert_eq!(scheme::policy_entry(PolicyKind::Fifo).acronym, "F");
    assert!(scheme::policy_by_acronym("ZZ").is_none());
}

/// The scheme acronym recorded in the shipped trace container parses
/// through the registry grammar to its canonical form — compatibility
/// with artifacts recorded before the `Scheme` API existed.
#[test]
fn shipped_trace_scheme_parses_canonically() {
    let path = format!(
        "{}/scenarios/traces/smoke_2T_06.pltc",
        env!("CARGO_MANIFEST_DIR")
    );
    let info = plru_repro::tracegen::trace::load_info(&path).expect("shipped trace loads");
    let recorded = info
        .meta
        .scheme
        .as_deref()
        .expect("capture traces record a scheme");
    let parsed: Scheme = recorded.parse().expect("recorded acronym parses");
    assert_eq!(
        parsed.to_string(),
        recorded,
        "shipped metadata already stores the canonical form"
    );
}

/// Every scheme stored in the shipped golden reports deserializes through
/// `Scheme`'s serde and agrees with the acronym column next to it.
#[test]
fn shipped_golden_schemes_deserialize_and_match_their_acronyms() {
    for golden in ["smoke_2t.report.json", "smoke_seeds.report.json"] {
        let path = format!("{}/tests/goldens/{golden}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("golden readable");
        let report: SweepReport = serde_json::from_str(&text).expect("golden parses");
        assert!(!report.cases.is_empty());
        for case in &report.cases {
            assert_eq!(
                case.case.scheme.acronym(),
                case.scheme,
                "{golden}: scheme object and acronym column must agree"
            );
            // And the acronym alone rebuilds an equivalent scheme modulo
            // the spec's interval override (carried only by the object).
            let from_acronym: Scheme = case.scheme.parse().unwrap();
            assert_eq!(from_acronym.policy(), case.case.scheme.policy());
        }
    }
}
