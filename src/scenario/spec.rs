//! Serde-backed sweep specifications.
//!
//! A [`ScenarioSpec`] declares the axes of a cartesian sweep; expansion
//! into concrete cases lives in [`super::expand`]. Every axis except
//! `workloads` and `schemes` is optional and falls back to the paper
//! baseline, so the smallest useful spec is a workload list and a scheme
//! list. The JSON schema is deliberately flat:
//!
//! ```json
//! {
//!   "name": "smoke-2t",
//!   "insts": 20000,
//!   "workloads": ["2T_06", ["galgel", "eon"]],
//!   "schemes": ["L", "M-0.75N"],
//!   "l2_sizes": [524288, 2097152],
//!   "seed_salts": [0, 1]
//! }
//! ```

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// One entry of the workload axis: a Table II name (`"2T_05"`), an
/// explicit benchmark mix, one per core (`["galgel", "eon"]`), or a
/// recorded trace container (`{"recorded": "scenarios/traces/x.pltc"}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSel {
    /// A Table II workload by name.
    Named(String),
    /// An ad-hoc mix of benchmark names, one per core.
    Profiles(Vec<String>),
    /// A trace container recorded by the `trace` bin (or
    /// [`SimEngine::record_trace`](crate::engine::SimEngine::record_trace));
    /// the path is resolved relative to the sweep's working directory.
    Recorded(String),
}

/// The scheme axis of a spec: an explicit list of scheme acronyms, or the
/// `"all"` shorthand expanding to every registered baseline scheme
/// ([`Scheme::all_baseline`](plru_core::Scheme::all_baseline) — each
/// policy bare plus the paper's six CPA configurations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeAxis {
    /// `"schemes": "all"` — the whole registry baseline.
    All,
    /// `"schemes": ["L", "M-0.75N", ...]` — explicit acronyms, parsed and
    /// validated by the scheme registry at expansion.
    List(Vec<String>),
}

impl SchemeAxis {
    /// The explicit acronym list, if this axis is one.
    pub fn as_list(&self) -> Option<&[String]> {
        match self {
            SchemeAxis::All => None,
            SchemeAxis::List(xs) => Some(xs),
        }
    }

    /// The acronym strings the axis stands for: the list itself, or every
    /// baseline scheme's canonical acronym for `"all"` (a display/test
    /// convenience — expansion resolves through [`SchemeAxis::resolve`]).
    pub fn entries(&self) -> Vec<String> {
        match self {
            SchemeAxis::All => plru_core::Scheme::all_baseline()
                .iter()
                .map(ToString::to_string)
                .collect(),
            SchemeAxis::List(xs) => xs.clone(),
        }
    }

    /// Resolve the axis into [`Scheme`](plru_core::Scheme)s: `"all"`
    /// yields the baseline enumeration directly (no string round trip, so
    /// configuration the acronym cannot express survives), an explicit
    /// list parses each entry through the registry grammar.
    pub fn resolve(&self) -> Result<Vec<plru_core::Scheme>, plru_core::SchemeError> {
        match self {
            SchemeAxis::All => Ok(plru_core::Scheme::all_baseline()),
            SchemeAxis::List(xs) => xs.iter().map(|s| s.parse()).collect(),
        }
    }
}

impl Default for SchemeAxis {
    fn default() -> Self {
        SchemeAxis::List(Vec::new())
    }
}

impl From<Vec<String>> for SchemeAxis {
    fn from(xs: Vec<String>) -> Self {
        SchemeAxis::List(xs)
    }
}

impl FromIterator<String> for SchemeAxis {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        SchemeAxis::List(iter.into_iter().collect())
    }
}

impl Serialize for SchemeAxis {
    fn to_value(&self) -> Value {
        match self {
            SchemeAxis::All => Value::Str("all".to_string()),
            SchemeAxis::List(xs) => Value::Array(xs.iter().cloned().map(Value::Str).collect()),
        }
    }
}

impl Deserialize for SchemeAxis {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) if s == "all" => Ok(SchemeAxis::All),
            Value::Str(other) => Err(SerdeError::new(format!(
                "schemes must be \"all\" or a list of scheme acronyms, found \"{other}\""
            ))),
            Value::Array(_) => Vec::<String>::from_value(v).map(SchemeAxis::List),
            other => Err(SerdeError::new(format!(
                "schemes must be \"all\" or a list of scheme acronyms, found {}",
                other.kind()
            ))),
        }
    }
}

// Manual serde impls: the stub derive has no `untagged` support, and the
// JSON shape (string vs array vs {"recorded": ...} object) is the whole
// point of the enum.
impl Serialize for WorkloadSel {
    fn to_value(&self) -> Value {
        match self {
            WorkloadSel::Named(n) => Value::Str(n.clone()),
            WorkloadSel::Profiles(bs) => {
                Value::Array(bs.iter().map(|b| Value::Str(b.clone())).collect())
            }
            WorkloadSel::Recorded(path) => {
                Value::Object(vec![("recorded".to_string(), Value::Str(path.clone()))])
            }
        }
    }
}

impl Deserialize for WorkloadSel {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => Ok(WorkloadSel::Named(s.clone())),
            Value::Array(_) => Vec::<String>::from_value(v).map(WorkloadSel::Profiles),
            Value::Object(_) => match v.field("recorded")? {
                Value::Str(path) => Ok(WorkloadSel::Recorded(path.clone())),
                other => Err(SerdeError::new(format!(
                    "workload object must be {{\"recorded\": \"<path>\"}}, \
                     found `recorded` of kind {}",
                    other.kind()
                ))),
            },
            other => Err(SerdeError::new(format!(
                "workload must be a name, a benchmark list or {{\"recorded\": path}}, found {}",
                other.kind()
            ))),
        }
    }
}

/// A declarative cartesian sweep over simulation cases.
///
/// Expansion order is fixed and documented: `workloads` (outermost) ×
/// `schemes` × `l2_sizes` × `l2_assocs` × `seed_salts` × `profilers`
/// (innermost), with
/// duplicate axis entries removed (first occurrence wins). See
/// [`ScenarioSpec::expand`](crate::scenario::expand) for the rules.
///
/// ```
/// use plru_repro::prelude::*;
///
/// let spec = ScenarioSpec::from_json(
///     r#"{
///         "name": "doc",
///         "insts": 20000,
///         "workloads": ["2T_06", ["gzip", "eon"]],
///         "schemes": ["L", "M-0.75N", "L"],
///         "seed_salts": [0, 1]
///     }"#,
/// )
/// .unwrap();
/// let cases = spec.expand().unwrap();
/// // 2 workloads x 2 schemes (the duplicate "L" dedupes) x 2 salts.
/// assert_eq!(cases.len(), 8);
/// assert_eq!(cases[0].workload, "2T_06");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Spec identifier (echoed into reports and golden files).
    pub name: String,
    /// Optional human description.
    pub description: Option<String>,
    /// Committed instructions per thread (default: the paper baseline's
    /// target).
    pub insts: Option<u64>,
    /// Base RNG seed (default: the paper baseline's seed).
    pub seed: Option<u64>,
    /// Repartition interval override in cycles, applied to every CPA
    /// scheme of the sweep (default: each configuration's own interval).
    pub interval_cycles: Option<u64>,
    /// Record the controller's per-interval allocation history in each
    /// case report (default: off; only meaningful for CPA schemes).
    pub capture_history: Option<bool>,
    /// Workload axis: Table II names, explicit benchmark mixes, and/or
    /// recorded trace containers (`{"recorded": "<path>"}`).
    pub workloads: Vec<WorkloadSel>,
    /// Scheme axis: bare replacement policies (`"L"`, `"N"`, `"BT"`,
    /// `"R"`, `"F"`) run unpartitioned; CPA acronyms (`"C-L"`, `"M-L"`,
    /// `"M-0.75N"`, `"M-BT"`, ...) run under the dynamic controller; the
    /// string `"all"` expands to every registered baseline scheme. All
    /// acronyms are parsed by the single registry grammar
    /// ([`plru_core::Scheme`]).
    pub schemes: SchemeAxis,
    /// Shared-L2 capacity axis in bytes (default: the baseline 2 MB).
    pub l2_sizes: Option<Vec<u64>>,
    /// Shared-L2 associativity axis (default: the baseline 16 ways).
    pub l2_assocs: Option<Vec<usize>>,
    /// Seed-salt axis perturbing per-core trace seeds (default: `[0]`).
    pub seed_salts: Option<Vec<u64>>,
    /// Profiler tag-store fidelity axis: `"exact"` (full ATD tag rows,
    /// the default) and/or `"sketch8"` / `"sketch12"` / `"sketch16"`
    /// (cuckoo-filter membership at that fingerprint width). Applied to
    /// every CPA scheme of the sweep; bare schemes ignore it (default:
    /// `["exact"]`).
    pub profilers: Option<Vec<String>>,
}

impl ScenarioSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SerdeError> {
        serde_json::from_str(text)
    }

    /// Render the spec as pretty JSON (the format shipped under
    /// `scenarios/`).
    pub fn to_json_pretty(&self) -> String {
        // repolint: allow(panic) — serialize-side: rendering a spec we hold, not parsing input
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }
}

/// A declarative miss-curve comparison: feed one benchmark's L1-filtered
/// L2 access stream to the exact LRU profiler and the estimated-SDH
/// profilers side by side (the paper's core idea, Section III).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MissCurveSpec {
    /// Spec identifier.
    pub name: String,
    /// Benchmark whose access stream is profiled.
    pub benchmark: String,
    /// Trace records to generate (default 400 000).
    pub records: Option<u64>,
    /// Trace generator seed (default 42).
    pub trace_seed: Option<u64>,
    /// Profilers to compare: `"L"` (exact SDH), `"<scale>N"` (NRU eSDH at
    /// a scaling factor, e.g. `"0.75N"`), `"BT"` (binary-tree eSDH).
    pub profilers: Vec<String>,
    /// ATD set-sampling ratio for every profiler (default 1 = full ATD).
    pub sample_ratio: Option<usize>,
    /// Tag-store fidelity for every profiler: `"exact"` (default) or
    /// `"sketch8"` / `"sketch12"` / `"sketch16"`.
    pub fidelity: Option<String>,
}

impl MissCurveSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SerdeError> {
        serde_json::from_str(text)
    }

    /// Render the spec as pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        // repolint: allow(panic) — serialize-side: rendering a spec we hold, not parsing input
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sel_round_trips_all_shapes() {
        let named = WorkloadSel::Named("2T_05".into());
        let mix = WorkloadSel::Profiles(vec!["galgel".into(), "eon".into()]);
        let rec = WorkloadSel::Recorded("scenarios/traces/x.pltc".into());
        for sel in [&named, &mix, &rec] {
            let json = serde_json::to_string(sel).unwrap();
            assert_eq!(&serde_json::from_str::<WorkloadSel>(&json).unwrap(), sel);
        }
    }

    #[test]
    fn recorded_workload_parses_from_object_shape() {
        let sel: WorkloadSel =
            serde_json::from_str(r#"{"recorded": "traces/smoke.pltc"}"#).unwrap();
        assert_eq!(sel, WorkloadSel::Recorded("traces/smoke.pltc".into()));
    }

    #[test]
    fn workload_sel_rejects_bad_shapes() {
        assert!(serde_json::from_str::<WorkloadSel>("42").is_err());
        assert!(serde_json::from_str::<WorkloadSel>("[1, 2]").is_err());
        assert!(serde_json::from_str::<WorkloadSel>(r#"{"recorded": 3}"#).is_err());
        assert!(serde_json::from_str::<WorkloadSel>(r#"{"other": "x"}"#).is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            name: "rt".into(),
            description: Some("round trip".into()),
            insts: Some(50_000),
            seed: Some(7),
            interval_cycles: Some(250_000),
            capture_history: Some(true),
            workloads: vec![
                WorkloadSel::Named("2T_05".into()),
                WorkloadSel::Profiles(vec!["gzip".into()]),
            ],
            schemes: vec!["L".into(), "M-BT".into()].into(),
            l2_sizes: Some(vec![512 * 1024]),
            l2_assocs: Some(vec![8, 16]),
            seed_salts: Some(vec![0, 3]),
            profilers: Some(vec!["exact".into(), "sketch8".into()]),
        };
        let json = spec.to_json_pretty();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn missing_optional_fields_parse_as_none() {
        let spec =
            ScenarioSpec::from_json(r#"{"name": "min", "workloads": ["2T_01"], "schemes": ["L"]}"#)
                .unwrap();
        assert_eq!(spec.insts, None);
        assert_eq!(spec.l2_sizes, None);
        assert_eq!(spec.seed_salts, None);
        assert_eq!(spec.capture_history, None);
        assert_eq!(spec.profilers, None);
    }

    #[test]
    fn scheme_axis_parses_all_and_lists() {
        let spec =
            ScenarioSpec::from_json(r#"{"name": "a", "workloads": ["2T_01"], "schemes": "all"}"#)
                .unwrap();
        assert!(spec.schemes.as_list().is_none());
        assert!(
            spec.schemes.entries().len() > 6,
            "all = every bare policy + the paper's six CPA configurations"
        );
        // Round trip keeps the shorthand.
        assert_eq!(
            ScenarioSpec::from_json(&spec.to_json_pretty()).unwrap(),
            spec
        );
        // Anything but "all" or a list is a readable error.
        assert!(ScenarioSpec::from_json(
            r#"{"name": "a", "workloads": ["2T_01"], "schemes": "some"}"#
        )
        .is_err());
        assert!(
            ScenarioSpec::from_json(r#"{"name": "a", "workloads": ["2T_01"], "schemes": 3}"#)
                .is_err()
        );
    }

    #[test]
    fn miss_curve_spec_round_trips() {
        let spec = MissCurveSpec {
            name: "mc".into(),
            benchmark: "twolf".into(),
            records: Some(1000),
            trace_seed: None,
            profilers: vec!["L".into(), "0.75N".into(), "BT".into()],
            sample_ratio: Some(32),
            fidelity: Some("sketch12".into()),
        };
        let json = spec.to_json_pretty();
        assert_eq!(MissCurveSpec::from_json(&json).unwrap(), spec);
    }
}
