//! Sweep cells and sweep requests.
//!
//! A **cell** is one point of a sweep: a workload under a scenario at a core
//! count, instruction budget, and seed. Its identity is
//! [`cell_key`](autorfm::snapshot::store::cell_key) over exactly those five
//! axes, which is also the file name in the content-addressed store — so two
//! campaigns (or a campaign and a `run_all` batch) asking for the same cell
//! land on the same record.
//!
//! A **sweep request** is the client-facing description: lists of workloads,
//! scenario names, tracker names, and thresholds that expand into the cross
//! product of cells. Its canonical JSON form doubles as the campaign
//! identity (a digest of the compact encoding), so resubmitting the same
//! request is idempotent.

use autorfm::experiments::Scenario;
use autorfm::sim_core::ConfigError;
use autorfm::snapshot::digest64;
use autorfm::snapshot::store::cell_key;
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;
use autorfm::workloads::WorkloadSpec;
use autorfm::SimConfig;
use std::collections::HashSet;

/// One sweep point: everything that determines a simulation's result bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The workload every core runs (rate mode).
    pub workload: &'static WorkloadSpec,
    /// The mitigation scenario.
    pub scenario: Scenario,
    /// Number of cores.
    pub cores: u8,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload-generator seed.
    pub seed: u64,
}

impl CellSpec {
    /// The cell's content-address in the store.
    pub fn key(&self) -> u64 {
        cell_key(
            self.workload.name,
            &self.scenario.to_string(),
            self.cores,
            self.instructions,
            self.seed,
        )
    }

    /// Builds the runnable configuration for this cell.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the combination is invalid (e.g. a tracker
    /// rejecting the threshold).
    pub fn config(&self) -> Result<SimConfig, ConfigError> {
        SimConfig::builder(self.workload)
            .scenario(self.scenario)
            .cores(self.cores)
            .instructions(self.instructions)
            .seed(self.seed)
            .build()
    }

    /// The cell as a JSON object (the manifest row shape).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("key", Json::Str(format!("{:016x}", self.key()))),
            ("workload", Json::Str(self.workload.name.to_string())),
            ("scenario", Json::Str(self.scenario.to_string())),
            ("cores", Json::Num(f64::from(self.cores))),
            ("instructions", Json::Num(self.instructions as f64)),
            ("seed", seed_to_json(self.seed)),
        ])
    }

    /// Rebuilds a cell from [`CellSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on a missing field, an unknown workload, an
    /// unparsable scenario name, or a seed that is present but unreadable.
    pub fn from_json(json: &Json) -> Result<Self, ConfigError> {
        let workload_name = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError::new("cell is missing 'workload'"))?;
        let workload = WorkloadSpec::by_name(workload_name)
            .ok_or_else(|| ConfigError::new(format!("unknown workload '{workload_name}'")))?;
        let scenario: Scenario = json
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError::new("cell is missing 'scenario'"))?
            .parse()?;
        Ok(CellSpec {
            workload,
            scenario,
            cores: json.get("cores").and_then(Json::as_u64).unwrap_or(8) as u8,
            instructions: json
                .get("instructions")
                .and_then(Json::as_u64)
                .unwrap_or(100_000),
            seed: seed_from_json(json, 42)?,
        })
    }
}

/// Largest seed written as a JSON number: every integer up to 2^53 is exact
/// in an `f64`, and keeping those seeds numeric leaves existing campaign ids
/// and persisted specs byte-identical.
const MAX_NUMERIC_SEED: u64 = 1 << 53;

/// A seed as JSON: a number up to 2^53, a decimal string above (an `f64`
/// would round it).
fn seed_to_json(seed: u64) -> Json {
    if seed <= MAX_NUMERIC_SEED {
        Json::Num(seed as f64)
    } else {
        Json::Str(seed.to_string())
    }
}

/// Reads `json`'s `"seed"` in either form [`seed_to_json`] writes;
/// `default` when the field is absent.
///
/// # Errors
///
/// A seed that is present but neither an exact integer nor a decimal
/// string is an error, never silently replaced by the default.
fn seed_from_json(json: &Json, default: u64) -> Result<u64, ConfigError> {
    let Some(value) = json.get("seed") else {
        return Ok(default);
    };
    value
        .as_u64()
        .or_else(|| value.as_str().and_then(|s| s.parse().ok()))
        .ok_or_else(|| ConfigError::new(format!("unreadable seed {}", value.to_compact())))
}

/// A client-submitted sweep: the cross product of workloads and scenarios.
///
/// Scenarios come from two axes that are unioned:
///
/// * `scenarios` — explicit scenario names (`"AutoRFM-4"`, `"baseline-zen"`,
///   any form [`Scenario`]'s `Display` prints);
/// * `trackers` × `thresholds` — every named tracker paired with every
///   threshold as `AutoRFM-{th}-{tracker}`. With `trackers` empty,
///   `thresholds` alone expand to plain `AutoRFM-{th}`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Human-readable campaign name (not part of cell identity).
    pub name: String,
    /// Workload names ([`WorkloadSpec::by_name`]).
    pub workloads: Vec<String>,
    /// Explicit scenario names.
    pub scenarios: Vec<String>,
    /// Tracker names to cross with `thresholds`.
    pub trackers: Vec<String>,
    /// AutoRFM thresholds.
    pub thresholds: Vec<u32>,
    /// Cores per cell.
    pub cores: u8,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload-generator seed.
    pub seed: u64,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            name: "sweep".to_string(),
            workloads: Vec::new(),
            scenarios: Vec::new(),
            trackers: Vec::new(),
            thresholds: Vec::new(),
            cores: 8,
            instructions: 100_000,
            seed: 42,
        }
    }
}

impl SweepRequest {
    /// The campaign identity: a digest of the canonical (compact JSON)
    /// encoding, as 16 hex digits. Two textually different but semantically
    /// identical requests get the same id, so resubmission is idempotent.
    pub fn id(&self) -> String {
        format!("{:016x}", digest64(self.to_json().to_compact().as_bytes()))
    }

    /// Expands the request into its distinct cells, in deterministic
    /// (workload-major, then scenario) order. Cells that repeat within the
    /// request (e.g. `AutoRFM-4` listed explicitly *and* produced by the
    /// tracker × threshold cross) are emitted once.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an unknown workload, scenario, or tracker
    /// name, or when the request expands to no cells at all.
    pub fn expand(&self) -> Result<Vec<CellSpec>, ConfigError> {
        let mut scenarios: Vec<Scenario> = Vec::new();
        for name in &self.scenarios {
            scenarios.push(name.parse()?);
        }
        for tracker_name in &self.trackers {
            let tracker: TrackerKind = tracker_name.parse()?;
            for &th in &self.thresholds {
                scenarios.push(Scenario::AutoRfmWith { th, tracker });
            }
        }
        if self.trackers.is_empty() {
            for &th in &self.thresholds {
                scenarios.push(Scenario::AutoRfm { th });
            }
        }
        if scenarios.is_empty() {
            return Err(ConfigError::new(
                "sweep expands to no scenarios (give 'scenarios', 'thresholds', \
                 or 'trackers' + 'thresholds')",
            ));
        }
        if self.workloads.is_empty() {
            return Err(ConfigError::new("sweep names no workloads"));
        }
        let mut seen = HashSet::new();
        let mut cells = Vec::new();
        for workload_name in &self.workloads {
            let workload = WorkloadSpec::by_name(workload_name)
                .ok_or_else(|| ConfigError::new(format!("unknown workload '{workload_name}'")))?;
            for &scenario in &scenarios {
                let cell = CellSpec {
                    workload,
                    scenario,
                    cores: self.cores,
                    instructions: self.instructions,
                    seed: self.seed,
                };
                if seen.insert(cell.key()) {
                    cells.push(cell);
                }
            }
        }
        Ok(cells)
    }

    /// The canonical JSON form (fixed field order — the bytes [`Self::id`]
    /// digests).
    pub fn to_json(&self) -> Json {
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("workloads", strs(&self.workloads)),
            ("scenarios", strs(&self.scenarios)),
            ("trackers", strs(&self.trackers)),
            (
                "thresholds",
                Json::Arr(
                    self.thresholds
                        .iter()
                        .map(|&t| Json::Num(f64::from(t)))
                        .collect(),
                ),
            ),
            ("cores", Json::Num(f64::from(self.cores))),
            ("instructions", Json::Num(self.instructions as f64)),
            ("seed", seed_to_json(self.seed)),
        ])
    }

    /// Parses a request from JSON; absent fields take the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `json` is not an object or carries a seed
    /// that is present but unreadable. (Name resolution errors surface
    /// later, from [`SweepRequest::expand`].)
    pub fn from_json(json: &Json) -> Result<Self, ConfigError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(ConfigError::new("sweep request must be a JSON object"));
        }
        let strings = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(|xs| {
                    xs.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        let defaults = SweepRequest::default();
        Ok(SweepRequest {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or(&defaults.name)
                .to_string(),
            workloads: strings("workloads"),
            scenarios: strings("scenarios"),
            trackers: strings("trackers"),
            thresholds: json
                .get("thresholds")
                .and_then(Json::as_arr)
                .map(|xs| {
                    xs.iter()
                        .filter_map(Json::as_u64)
                        .map(|t| t as u32)
                        .collect()
                })
                .unwrap_or_default(),
            cores: json
                .get("cores")
                .and_then(Json::as_u64)
                .unwrap_or(u64::from(defaults.cores)) as u8,
            instructions: json
                .get("instructions")
                .and_then(Json::as_u64)
                .unwrap_or(defaults.instructions),
            seed: seed_from_json(json, defaults.seed)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SweepRequest {
        SweepRequest {
            name: "t".into(),
            workloads: vec!["mcf".into(), "wrf".into()],
            scenarios: vec!["baseline-zen".into()],
            trackers: vec!["pride".into()],
            thresholds: vec![4, 8],
            cores: 2,
            instructions: 5_000,
            seed: 42,
        }
    }

    #[test]
    fn expansion_is_the_cross_product() {
        // 2 workloads × (1 explicit + 1 tracker × 2 thresholds) = 6 cells.
        let cells = request().expand().unwrap();
        assert_eq!(cells.len(), 6);
        let names: Vec<String> = cells.iter().map(|c| c.scenario.to_string()).collect();
        assert!(names.contains(&"AutoRFM-4-pride".to_string()));
        assert!(names.contains(&"baseline-zen".to_string()));
    }

    #[test]
    fn zoo_trackers_expand_via_the_registry() {
        // Sweep requests resolve tracker names through the plugin registry,
        // so the zoo trackers (and any future registration) are sweepable
        // with no campaign-side edit — case-insensitively, like the CLI.
        let mut req = request();
        req.workloads = vec!["mcf".into()];
        req.scenarios.clear();
        req.trackers = vec!["graphene".into(), "ABACUS".into(), "oracle".into()];
        req.thresholds = vec![4];
        let names: Vec<String> = req
            .expand()
            .unwrap()
            .iter()
            .map(|c| c.scenario.to_string())
            .collect();
        assert_eq!(
            names,
            ["AutoRFM-4-graphene", "AutoRFM-4-abacus", "AutoRFM-4-oracle"]
        );
    }

    #[test]
    fn thresholds_without_trackers_mean_plain_autorfm() {
        let mut req = request();
        req.trackers.clear();
        req.scenarios.clear();
        let cells = req.expand().unwrap();
        assert_eq!(cells.len(), 4); // 2 workloads × 2 thresholds
        assert!(cells
            .iter()
            .all(|c| matches!(c.scenario, Scenario::AutoRfm { .. })));
    }

    #[test]
    fn duplicate_cells_collapse() {
        let mut req = request();
        req.workloads = vec!["mcf".into(), "mcf".into()];
        req.trackers.clear();
        req.thresholds.clear();
        assert_eq!(req.expand().unwrap().len(), 1);
    }

    #[test]
    fn empty_requests_are_rejected() {
        let mut req = request();
        req.workloads.clear();
        assert!(req.expand().is_err());
        let mut req = request();
        req.scenarios.clear();
        req.trackers.clear();
        req.thresholds.clear();
        assert!(req.expand().is_err());
    }

    #[test]
    fn request_round_trips_and_id_is_stable() {
        let req = request();
        let back =
            SweepRequest::from_json(&Json::parse(&req.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.id(), req.id());
        let mut other = request();
        other.seed = 43;
        assert_ne!(other.id(), req.id());
    }

    #[test]
    fn cell_round_trips() {
        let cell = request().expand().unwrap()[3];
        let back = CellSpec::from_json(&cell.to_json()).unwrap();
        assert_eq!(back, cell);
        assert_eq!(back.key(), cell.key());
    }

    #[test]
    fn seeds_above_two_pow_53_round_trip() {
        let mut req = request();
        req.seed = u64::MAX;
        let json = req.to_json();
        assert_eq!(
            json.get("seed").and_then(Json::as_str),
            Some("18446744073709551615")
        );
        let back = SweepRequest::from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.id(), req.id());
        let cell = req.expand().unwrap()[0];
        let back = CellSpec::from_json(&Json::parse(&cell.to_json().to_compact()).unwrap());
        assert_eq!(back.unwrap().seed, u64::MAX);
        // At 2^53 and below the seed stays a number: ids are unchanged.
        req.seed = 1 << 53;
        assert!(matches!(req.to_json().get("seed"), Some(Json::Num(_))));
        let back = SweepRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.seed, 1 << 53);
    }

    #[test]
    fn unreadable_seeds_are_errors() {
        for bad in [
            r#"{"seed":-1}"#,
            r#"{"seed":1.5}"#,
            r#"{"seed":"x"}"#,
            r#"{"seed":null}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(SweepRequest::from_json(&json).is_err(), "{bad}");
        }
        let cell = Json::parse(r#"{"workload":"mcf","scenario":"baseline-zen","seed":"1e3"}"#);
        assert!(CellSpec::from_json(&cell.unwrap()).is_err());
        // An absent seed still takes the default.
        assert_eq!(
            SweepRequest::from_json(&Json::parse("{}").unwrap())
                .unwrap()
                .seed,
            42
        );
    }

    #[test]
    fn cell_key_matches_store_keying() {
        let cell = request().expand().unwrap()[0];
        assert_eq!(
            cell.key(),
            cell_key(
                cell.workload.name,
                &cell.scenario.to_string(),
                cell.cores,
                cell.instructions,
                cell.seed
            )
        );
    }
}
