//! The first-class `Scheme` type and the policy registry behind it.
//!
//! The paper's whole subject is the cross-product of replacement policies
//! with partitioning algorithms adapted to them, and a [`Scheme`] names
//! exactly one point of that cross-product: a replacement policy plus an
//! optional dynamic-CPA configuration whose profiling policy matches it.
//! It is **the** configuration currency of the workspace — the engine
//! builder takes one, scenario specs expand into them, trace metadata
//! records their canonical string, and the `trace`/`sweep` binaries parse
//! nothing else.
//!
//! ## Naming grammar
//!
//! One canonical acronym grammar (`FromStr` parses it, `Display` prints
//! it):
//!
//! ```text
//! scheme     := policy | cpa
//! policy     := "L" | "N" | "BT" | "R" | "F"          (bare, unpartitioned)
//! cpa        := enforcement "-" profiled
//! enforcement:= "C" | "M"                             (owner counters | masks)
//! profiled   := "L" | "BT" | scale "N"                (policies with a profiler)
//! scale      := float in (0, 1]                       (canonical: "1.0", "0.75", ...)
//! ```
//!
//! Parsing is forgiving about scale spellings (`M-.75N` == `M-0.75N`);
//! printing always emits the canonical form, which is what shipped trace
//! containers and golden reports store.
//!
//! ## The registry
//!
//! [`registry`] enumerates every replacement policy together with its
//! capability flags: whether a CPA can partition it (with either
//! [`EnforcementStyle`]; the reference policies have no profiling logic
//! and are therefore bare-only), and whether its acronym carries an eSDH
//! scale. Invalid combinations — `M-R`, `C-F`, an NRU scale outside
//! `(0, 1]` — are rejected **at parse time** (and by
//! [`Scheme::partitioned`], which deserialization also goes through) with
//! a one-line error instead of panicking deep inside the controller.
//!
//! ```
//! use plru_core::{CpaConfig, Scheme};
//!
//! // Parse, inspect, and print the canonical form.
//! let m075n: Scheme = "M-.75N".parse().unwrap();
//! assert_eq!(m075n.to_string(), "M-0.75N");
//! assert_eq!(m075n.cpa().unwrap().nru_scale, 0.75);
//!
//! // Construct programmatically; the policy is implied by the CPA.
//! let same = Scheme::partitioned(CpaConfig::m_nru(0.75)).unwrap();
//! assert_eq!(same, m075n);
//!
//! // Invalid combinations fail with a readable one-line error.
//! let err = "M-R".parse::<Scheme>().unwrap_err().to_string();
//! assert!(err.contains("cannot be partitioned"));
//!
//! // Enumerate the baseline sweep set (`"schemes": "all"` in specs).
//! let all: Vec<String> = Scheme::all_baseline().iter().map(|s| s.to_string()).collect();
//! assert!(all.contains(&"L".to_string()) && all.contains(&"M-BT".to_string()));
//! ```

use crate::config::{CpaConfig, EnforcementStyle};
use crate::sketch::ProfilerFidelity;
use cachesim::PolicyKind;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// One registered replacement policy with its scheme capabilities.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEntry {
    /// The policy.
    pub kind: PolicyKind,
    /// Acronym used in scheme strings (`"L"`, `"BT"`, ...).
    pub acronym: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Can a dynamic CPA partition this policy (with either enforcement
    /// style)? `false` means the policy has no profiling logic and runs
    /// bare only.
    pub partitionable: bool,
    /// Does the CPA acronym carry an eSDH scaling factor (NRU only)?
    pub scaled: bool,
    /// One-line description (shown by `sweep --list-schemes`).
    pub summary: &'static str,
}

/// The policy registry, in canonical order. Adding a policy here (plus
/// its `cachesim` kernel) is all the scheme layer needs to parse, print,
/// validate and enumerate it everywhere.
const REGISTRY: &[PolicyEntry] = &[
    PolicyEntry {
        kind: PolicyKind::Lru,
        acronym: "L",
        name: "true LRU",
        partitionable: true,
        scaled: false,
        summary: "exact stack ranks; the classical CPA baseline",
    },
    PolicyEntry {
        kind: PolicyKind::Nru,
        acronym: "N",
        name: "NRU",
        partitionable: true,
        scaled: true,
        summary: "used bits + global pointer (UltraSPARC T2); eSDH scaled by S",
    },
    PolicyEntry {
        kind: PolicyKind::Bt,
        acronym: "BT",
        name: "binary-tree pseudo-LRU",
        partitionable: true,
        scaled: false,
        summary: "A-1 tree bits (IBM); eSDH from path XOR, up/down vectors",
    },
    PolicyEntry {
        kind: PolicyKind::Random,
        acronym: "R",
        name: "random",
        partitionable: false,
        scaled: false,
        summary: "seeded uniform victim; reference, no profiling logic",
    },
    PolicyEntry {
        kind: PolicyKind::Fifo,
        acronym: "F",
        name: "FIFO",
        partitionable: false,
        scaled: false,
        summary: "per-set fill pointer; recency-blind reference, no profiling logic",
    },
];

/// Every registered policy with its capability flags, in canonical order.
pub fn registry() -> &'static [PolicyEntry] {
    REGISTRY
}

/// The registry entry of a policy.
pub fn policy_entry(kind: PolicyKind) -> &'static PolicyEntry {
    REGISTRY
        .iter()
        .find(|e| e.kind == kind)
        .expect("every PolicyKind is registered")
}

/// Look a policy up by its scheme acronym.
pub fn policy_by_acronym(acronym: &str) -> Option<&'static PolicyEntry> {
    REGISTRY.iter().find(|e| e.acronym == acronym)
}

/// Why a scheme string or combination was rejected. Always renders as a
/// single readable line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeError {
    msg: String,
}

impl SchemeError {
    fn new(msg: impl Into<String>) -> Self {
        SchemeError { msg: msg.into() }
    }
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SchemeError {}

fn bare_acronyms() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.acronym).collect();
    names.join("/")
}

/// A replacement policy plus an optional dynamic-CPA configuration — one
/// point of the paper's policy × partitioning cross-product.
///
/// The invariant `cpa.policy == policy` (and "the policy is
/// partitionable", and an NRU scale in `(0, 1]`) holds by construction:
/// the parser and deserialization both go through [`Scheme::partitioned`],
/// which validates against the [`registry`], so an invalid combination
/// can never reach the controller.
///
/// `Scheme` serializes with full fidelity (the embedded [`CpaConfig`]
/// keeps overrides like `interval_cycles` that the acronym cannot carry),
/// and deserializes from either that form or a bare acronym string.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    policy: PolicyKind,
    cpa: Option<CpaConfig>,
}

impl Scheme {
    /// A bare (unpartitioned) policy.
    pub fn bare(policy: PolicyKind) -> Self {
        Scheme { policy, cpa: None }
    }

    /// A dynamically partitioned scheme; the L2 policy is the CPA's
    /// profiling policy (the paper always pairs them).
    ///
    /// Errors when the registry says the policy has no profiling logic,
    /// or when a scaled policy's eSDH scale lies outside `(0, 1]`.
    pub fn partitioned(cpa: CpaConfig) -> Result<Self, SchemeError> {
        let entry = policy_entry(cpa.policy);
        if !entry.partitionable {
            return Err(SchemeError::new(format!(
                "policy {} ({}) has no profiling logic and cannot be partitioned",
                entry.acronym, entry.name
            )));
        }
        if entry.scaled && !(cpa.nru_scale > 0.0 && cpa.nru_scale <= 1.0) {
            return Err(SchemeError::new(format!(
                "{} eSDH scale {} outside (0, 1]",
                entry.name, cpa.nru_scale
            )));
        }
        Ok(Scheme {
            policy: cpa.policy,
            cpa: Some(cpa),
        })
    }

    /// The L2 replacement policy (for partitioned schemes, also the
    /// profiling policy).
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The dynamic-CPA configuration, if the scheme partitions.
    pub fn cpa(&self) -> Option<&CpaConfig> {
        self.cpa.as_ref()
    }

    /// Does the scheme run the dynamic partitioning controller?
    pub fn is_partitioned(&self) -> bool {
        self.cpa.is_some()
    }

    /// The canonical acronym (`"L"`, `"M-0.75N"`, ...); same as `Display`.
    pub fn acronym(&self) -> String {
        self.to_string()
    }

    /// This scheme's registry entry (capability flags, summary).
    pub fn policy_entry(&self) -> &'static PolicyEntry {
        policy_entry(self.policy)
    }

    /// Fold a repartition-interval override into a CPA scheme (no-op for
    /// bare policies) — how scenario specs apply `interval_cycles`.
    pub fn with_interval_cycles(mut self, interval_cycles: Option<u64>) -> Self {
        if let (Some(cpa), Some(iv)) = (self.cpa.as_mut(), interval_cycles) {
            cpa.interval_cycles = iv;
        }
        self
    }

    /// Fold a profiler tag-store fidelity into a CPA scheme (no-op for
    /// bare policies, which run no profilers) — how the engine builder
    /// and the scenario `profilers` axis apply sketch fidelities.
    pub fn with_fidelity(mut self, fidelity: Option<ProfilerFidelity>) -> Self {
        if let (Some(cpa), Some(f)) = (self.cpa.as_mut(), fidelity) {
            cpa.fidelity = Some(f);
        }
        self
    }

    /// The baseline scheme enumeration sweeps use (`"schemes": "all"`):
    /// every registered policy bare, in registry order, followed by the
    /// paper's six evaluated CPA configurations in Figure 7 order.
    pub fn all_baseline() -> Vec<Scheme> {
        REGISTRY
            .iter()
            .map(|e| Scheme::bare(e.kind))
            .chain(CpaConfig::figure7_set().into_iter().map(|c| {
                Scheme::partitioned(c).expect("the paper's configurations are always valid")
            }))
            .collect()
    }
}

impl From<PolicyKind> for Scheme {
    fn from(policy: PolicyKind) -> Self {
        Scheme::bare(policy)
    }
}

impl TryFrom<CpaConfig> for Scheme {
    type Error = SchemeError;

    fn try_from(cpa: CpaConfig) -> Result<Self, SchemeError> {
        Scheme::partitioned(cpa)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cpa {
            Some(cpa) => write!(f, "{}", cpa.acronym()),
            None => f.write_str(policy_entry(self.policy).acronym),
        }
    }
}

impl FromStr for Scheme {
    type Err = SchemeError;

    /// Parse the canonical grammar (see the module docs). This is the
    /// single scheme parser of the workspace — scenario specs, trace
    /// metadata and both binaries all come through here.
    fn from_str(s: &str) -> Result<Self, SchemeError> {
        if let Some(entry) = policy_by_acronym(s) {
            return Ok(Scheme::bare(entry.kind));
        }
        let Some((enf_s, rest)) = s.split_once('-') else {
            return Err(SchemeError::new(format!(
                "unknown scheme `{s}` (expected a bare policy {} or a CPA acronym \
                 like C-L, M-L, M-0.75N, M-BT)",
                bare_acronyms()
            )));
        };
        let enforcement = match enf_s {
            "C" => EnforcementStyle::OwnerCounters,
            "M" => EnforcementStyle::Masks,
            other => {
                return Err(SchemeError::new(format!(
                    "unknown enforcement `{other}` in scheme `{s}` \
                     (expected C = owner counters or M = masks)"
                )))
            }
        };
        if rest.is_empty() {
            return Err(SchemeError::new(format!(
                "scheme `{s}` names no policy after the enforcement \
                 (expected e.g. {enf_s}-L)"
            )));
        }

        // Exact policy acronym (L, BT, ... — also R/F, rejected below), or
        // a scale-prefixed acronym of a scaled policy (0.75N).
        let (entry, scale) = if let Some(entry) = policy_by_acronym(rest) {
            (entry, None)
        } else if let Some((entry, scale_s)) = REGISTRY
            .iter()
            .filter(|e| e.scaled)
            .find_map(|e| rest.strip_suffix(e.acronym).map(|p| (e, p)))
        {
            let scale: f64 = scale_s.parse().map_err(|_| {
                SchemeError::new(format!(
                    "scheme `{s}`: bad {} scale `{scale_s}` (expected a number in (0, 1])",
                    entry.name
                ))
            })?;
            (entry, Some(scale))
        } else {
            return Err(SchemeError::new(format!(
                "scheme `{s}`: unknown policy `{rest}` (expected {} — \
                 N takes a scale prefix, e.g. 0.75N)",
                bare_acronyms()
            )));
        };

        if !entry.partitionable {
            return Err(SchemeError::new(format!(
                "scheme `{s}`: policy {} ({}) has no profiling logic and cannot \
                 be partitioned — run it bare as `{}`",
                entry.acronym, entry.name, entry.acronym
            )));
        }
        if entry.scaled && scale.is_none() {
            return Err(SchemeError::new(format!(
                "scheme `{s}`: {} needs an eSDH scale prefix (e.g. {enf_s}-0.75{})",
                entry.name, entry.acronym
            )));
        }

        let mut cpa = match entry.kind {
            PolicyKind::Lru => CpaConfig::c_l(),
            PolicyKind::Nru => CpaConfig::m_nru(0.75),
            PolicyKind::Bt => CpaConfig::m_bt(),
            PolicyKind::Random | PolicyKind::Fifo => unreachable!("rejected above"),
        };
        cpa.enforcement = enforcement;
        if let Some(scale) = scale {
            cpa.nru_scale = scale;
        }
        // The scale's range is checked once, by `partitioned`.
        Scheme::partitioned(cpa).map_err(|e| SchemeError::new(format!("scheme `{s}`: {e}")))
    }
}

// Wire format: the externally-tagged shape the golden sweep reports
// already store — `{"Policy": <kind>}` for bare schemes, `{"Cpa":
// <config>}` for partitioned ones (full fidelity: the embedded config
// keeps interval overrides the acronym cannot express). Deserialization
// additionally accepts a plain acronym string.
impl Serialize for Scheme {
    fn to_value(&self) -> Value {
        match &self.cpa {
            Some(cpa) => Value::Object(vec![("Cpa".to_string(), cpa.to_value())]),
            None => Value::Object(vec![("Policy".to_string(), self.policy.to_value())]),
        }
    }
}

impl Deserialize for Scheme {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|e: SchemeError| SerdeError::new(e.to_string())),
            Value::Object(entries) => match entries.as_slice() {
                [(k, inner)] if k == "Policy" => Ok(Scheme::bare(PolicyKind::from_value(inner)?)),
                [(k, inner)] if k == "Cpa" => Scheme::partitioned(CpaConfig::from_value(inner)?)
                    .map_err(|e| SerdeError::new(e.to_string())),
                _ => Err(SerdeError::new(
                    "scheme object must be {\"Policy\": ...} or {\"Cpa\": ...}",
                )),
            },
            other => Err(SerdeError::new(format!(
                "scheme must be an acronym string or a {{\"Policy\"/\"Cpa\"}} object, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_acronyms_are_unique_and_parse_bare() {
        for e in registry() {
            assert_eq!(
                policy_by_acronym(e.acronym).unwrap().kind,
                e.kind,
                "acronym {} must be unique",
                e.acronym
            );
            let s: Scheme = e.acronym.parse().unwrap();
            assert_eq!(s, Scheme::bare(e.kind));
            assert_eq!(s.to_string(), e.acronym);
        }
    }

    #[test]
    fn paper_schemes_parse_and_round_trip() {
        for acr in ["C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT"] {
            let s: Scheme = acr.parse().unwrap();
            assert!(s.is_partitioned());
            assert_eq!(s.to_string(), acr);
        }
    }

    #[test]
    fn scale_spellings_normalize() {
        let a: Scheme = "M-.75N".parse().unwrap();
        let b: Scheme = "M-0.75N".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "M-0.75N");
        assert_eq!("C-1N".parse::<Scheme>().unwrap().to_string(), "C-1.0N");
    }

    #[test]
    fn invalid_schemes_fail_with_one_line_errors() {
        for bad in [
            "Q", "X-L", "M-R", "C-F", "M-2.0N", "M-0N", "M-xN", "M-", "M-N", "M-0.75L", "",
        ] {
            let err = bad.parse::<Scheme>().unwrap_err().to_string();
            assert!(!err.contains('\n'), "`{bad}` error must be one line: {err}");
            assert!(!err.is_empty());
        }
        assert!("M-R"
            .parse::<Scheme>()
            .unwrap_err()
            .to_string()
            .contains("cannot be partitioned"));
        assert!("M-N"
            .parse::<Scheme>()
            .unwrap_err()
            .to_string()
            .contains("scale"));
    }

    #[test]
    fn partitioned_rejects_unprofiled_policies() {
        let bad = CpaConfig {
            policy: PolicyKind::Random,
            ..CpaConfig::c_l()
        };
        assert!(Scheme::partitioned(bad).is_err());
        let bad = CpaConfig {
            policy: PolicyKind::Fifo,
            ..CpaConfig::m_l()
        };
        assert!(Scheme::partitioned(bad).is_err());
    }

    #[test]
    fn bad_nru_scales_are_one_line_errors_from_every_constructor() {
        for scale in [1.5, 0.0, f64::NAN] {
            let cpa = CpaConfig {
                nru_scale: scale,
                ..CpaConfig::m_nru(0.75)
            };
            let direct = Scheme::partitioned(cpa.clone()).unwrap_err().to_string();
            let wire = Value::Object(vec![("Cpa".to_string(), cpa.to_value())]);
            let deserialized = Scheme::from_value(&wire).unwrap_err().to_string();
            for msg in [direct, deserialized] {
                assert!(msg.contains("outside (0, 1]"), "{scale}: {msg}");
                assert!(!msg.contains('\n'), "{scale}: error must be one line");
            }
        }
        for bad in ["1.5", "0.0"] {
            let json = serde_json::to_string(&Scheme::partitioned(CpaConfig::m_nru(0.75)).unwrap())
                .unwrap()
                .replace("\"nru_scale\":0.75", &format!("\"nru_scale\":{bad}"));
            let msg = serde_json::from_str::<Scheme>(&json)
                .unwrap_err()
                .to_string();
            assert!(msg.contains("outside (0, 1]"), "{bad}: {msg}");
            assert!(!msg.contains('\n'), "{bad}: error must be one line");
        }
    }

    #[test]
    fn all_baseline_round_trips_through_the_parser() {
        let all = Scheme::all_baseline();
        assert_eq!(all.len(), registry().len() + 6);
        for s in &all {
            assert_eq!(&s.to_string().parse::<Scheme>().unwrap(), s);
        }
    }

    #[test]
    fn interval_override_touches_only_cpa_schemes() {
        let s: Scheme = "M-L".parse().unwrap();
        let s = s.with_interval_cycles(Some(250_000));
        assert_eq!(s.cpa().unwrap().interval_cycles, 250_000);
        let bare: Scheme = "L".parse().unwrap();
        assert!(bare.with_interval_cycles(Some(250_000)).cpa().is_none());
    }

    #[test]
    fn serde_keeps_the_legacy_wire_shape_and_accepts_strings() {
        let bare = Scheme::bare(PolicyKind::Lru);
        assert_eq!(serde_json::to_string(&bare).unwrap(), r#"{"Policy":"Lru"}"#);
        let back: Scheme = serde_json::from_str(r#"{"Policy":"Lru"}"#).unwrap();
        assert_eq!(back, bare);

        let cpa = Scheme::partitioned(CpaConfig::m_bt()).unwrap();
        let json = serde_json::to_string(&cpa).unwrap();
        assert!(json.starts_with(r#"{"Cpa":"#), "{json}");
        assert_eq!(serde_json::from_str::<Scheme>(&json).unwrap(), cpa);

        let from_str: Scheme = serde_json::from_str(r#""M-0.75N""#).unwrap();
        assert_eq!(from_str.to_string(), "M-0.75N");
        assert!(serde_json::from_str::<Scheme>(r#""M-R""#).is_err());
        assert!(serde_json::from_str::<Scheme>("42").is_err());
    }
}
