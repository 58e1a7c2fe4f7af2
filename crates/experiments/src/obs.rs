//! Shared observability plumbing for the experiment studies.
//!
//! Every study of `all` accepts a common `--stats <path>` flag (or the
//! `RENUCA_STATS` environment variable) and, when it is given, writes a *run
//! manifest* next to its normal stdout output: a single JSON document that
//! echoes the configuration, the instruction budget, a full
//! [`StatsRegistry`] snapshot and a per-bank wear heatmap. The schema is
//! documented in `EXPERIMENTS.md` ("Observability") and carries the id
//! [`MANIFEST_SCHEMA`].
//!
//! The module is deliberately cheap when unused: [`StatsSink::emit_with`]
//! only invokes its builder closure when a destination is configured, so the
//! no-`--stats` path allocates nothing.

use std::fs;
use std::path::{Path, PathBuf};

use cmp_sim::config::SystemConfig;
use sim_stats::json::{f64_array, raw_array, JsonObject};
use sim_stats::StatsRegistry;

use crate::budget::Budget;
use crate::figures::criticality;
use crate::figures::lifetime::MainStudy;
use crate::figures::predictor_study::PredictorStudy;
use crate::figures::table2::Table2Row;
use crate::runner::SchemeStudy;

/// Schema identifier stamped into every manifest (`"schema"` key).
pub const MANIFEST_SCHEMA: &str = "renuca-manifest-v1";

/// The manifest's fixed top-level key order, in emission order. Exposed so
/// schema tests and the CI smoke check share one source of truth.
pub const MANIFEST_KEYS: [&str; 8] = [
    "schema",
    "binary",
    "label",
    "version",
    "budget",
    "config",
    "stats",
    "wear_heatmap",
];

/// Write `contents` to `path` atomically: the bytes go to a temporary
/// sibling file first (same directory, so the rename cannot cross a
/// filesystem), are fsync'd, and the temp file is renamed over `path`.
/// A reader — in particular the campaign resume path, which *trusts*
/// completed-job manifests — can therefore never observe a torn or
/// half-written document: it sees either the old file or the new one.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("manifest");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(contents)?;
        // Durability, not just atomicity: flush the bytes before the
        // rename publishes the file, so a crash right after the rename
        // cannot leave a published-but-empty manifest.
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The default 16-core machine for the experiment binaries, honouring
/// the `RENUCA_SYMMETRIC_LLC` escape hatch: set it to `1` (or `true`) to
/// map the L3 banks back to the legacy flat-latency model
/// ([`SystemConfig::with_symmetric_llc`]). The symmetric mapping is
/// cycle-exact and the config echo drops the asymmetric-only keys, so a
/// run under the hatch — manifest included — is byte-identical to the
/// pre-bank-service-model simulator (see DESIGN.md §12). Unset, `0` and
/// `false` keep the asymmetric model; any other value prints an error
/// naming the variable and exits with status 2.
pub fn default_config() -> SystemConfig {
    let on = match std::env::var("RENUCA_SYMMETRIC_LLC") {
        Ok(v) => symmetric_llc(Some(&v)),
        Err(std::env::VarError::NotPresent) => symmetric_llc(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("RENUCA_SYMMETRIC_LLC={v:?} is not UTF-8"))
        }
    };
    match on {
        Ok(true) => SystemConfig::default().with_symmetric_llc(),
        Ok(false) => SystemConfig::default(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    }
}

/// Whether a `RENUCA_SYMMETRIC_LLC` value (`None` = unset) turns the
/// escape hatch on: `1`/`true` on, `0`/`false` or unset off (either case),
/// anything else an error naming the variable and its value.
fn symmetric_llc(value: Option<&str>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some(v) if v == "1" || v.eq_ignore_ascii_case("true") => Ok(true),
        Some(v) if v == "0" || v.eq_ignore_ascii_case("false") => Ok(false),
        Some(v) => Err(format!(
            "RENUCA_SYMMETRIC_LLC={v:?} is not a switch (use 1/true or 0/false)"
        )),
    }
}

/// Where (if anywhere) a study should write its run manifest.
///
/// `all` resolves one at startup from `--stats` or `RENUCA_STATS`; the
/// campaign runner builds one per job with [`StatsSink::to`]. Every
/// manifest goes through [`StatsSink::emit_with`], a no-op for the
/// default sink.
#[derive(Clone, Debug, Default)]
pub struct StatsSink {
    path: Option<PathBuf>,
}

impl StatsSink {
    /// A sink that writes to `path`.
    pub fn to(path: impl Into<PathBuf>) -> Self {
        StatsSink {
            path: Some(path.into()),
        }
    }

    /// Build and write a manifest — but only when a destination is
    /// configured. `build` receives a [`Manifest`] pre-filled with the
    /// study name (the `binary` field), run label, version, budget and
    /// config echo; it fills in the stats registry and wear-heatmap rows.
    /// Parent directories are created as needed; a one-line note goes to
    /// stderr so the manifest path never pollutes the figure text on
    /// stdout.
    pub fn emit_with(
        &self,
        binary: &str,
        label: &str,
        cfg: Option<&SystemConfig>,
        budget: Budget,
        build: impl FnOnce(&mut Manifest),
    ) {
        let Some(path) = &self.path else { return };
        let mut m = Manifest::new(binary, label, cfg, budget);
        build(&mut m);
        // Atomic (temp + rename): a crash mid-write can never leave a torn
        // manifest for a later resume or verify step to trust.
        if let Err(e) = atomic_write(path, m.to_json().as_bytes()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("stats: wrote manifest to {}", path.display());
    }
}

/// One run manifest, serialized by [`Manifest::to_json`] with the key order
/// fixed by [`MANIFEST_KEYS`].
#[derive(Clone, Debug)]
pub struct Manifest {
    binary: String,
    label: String,
    budget: Budget,
    config: Option<StatsRegistry>,
    stats: StatsRegistry,
    wear_unit: String,
    wear_rows: Vec<(String, Vec<f64>)>,
}

impl Manifest {
    /// Start a manifest for `binary` with run label `label`. When the run
    /// uses a single [`SystemConfig`], pass it for the `config` echo;
    /// multi-config studies (sweeps, ablations) pass `None` and the
    /// `config` key is emitted as JSON `null`.
    pub fn new(binary: &str, label: &str, cfg: Option<&SystemConfig>, budget: Budget) -> Self {
        let config = cfg.map(|c| {
            let mut reg = StatsRegistry::new();
            c.register(&mut reg, "config");
            reg
        });
        Manifest {
            binary: binary.to_string(),
            label: label.to_string(),
            budget,
            config,
            stats: StatsRegistry::new(),
            wear_unit: "years".to_string(),
            wear_rows: Vec::new(),
        }
    }

    /// Mutable access to the stats registry (dotted-path keys).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// Set the unit tag of the wear heatmap (default `"years"`).
    pub fn set_wear_unit(&mut self, unit: &str) {
        self.wear_unit = unit.to_string();
    }

    /// Append one heatmap row: a label (scheme or workload name) and one
    /// value per LLC bank.
    pub fn push_wear_row(&mut self, label: &str, per_bank: &[f64]) {
        self.wear_rows.push((label.to_string(), per_bank.to_vec()));
    }

    /// Serialize the manifest. Keys appear exactly in [`MANIFEST_KEYS`]
    /// order; non-finite floats become JSON `null` (see
    /// [`sim_stats::json::fmt_f64`]); registry objects preserve insertion
    /// order, so identical runs produce byte-identical manifests.
    pub fn to_json(&self) -> String {
        let mut budget = JsonObject::new();
        budget
            .field_u64("warmup", self.budget.warmup)
            .field_u64("measure", self.budget.measure);
        let rows: Vec<String> = self
            .wear_rows
            .iter()
            .map(|(label, per_bank)| {
                let mut r = JsonObject::new();
                r.field_str("label", label)
                    .field_raw("per_bank", &f64_array(per_bank));
                r.finish()
            })
            .collect();
        let mut heatmap = JsonObject::new();
        heatmap
            .field_str("unit", &self.wear_unit)
            .field_raw("rows", &raw_array(&rows));
        let mut o = JsonObject::new();
        o.field_str("schema", MANIFEST_SCHEMA)
            .field_str("binary", &self.binary)
            .field_str("label", &self.label)
            .field_str("version", env!("CARGO_PKG_VERSION"))
            .field_raw("budget", &budget.finish());
        match &self.config {
            Some(reg) => o.field_raw("config", &reg.to_json()),
            None => o.field_raw("config", "null"),
        };
        o.field_raw("stats", &self.stats.to_json())
            .field_raw("wear_heatmap", &heatmap.finish());
        o.finish()
    }
}

/// Register a scheme's four aggregate keys under `<p>.`: `raw_min_years`,
/// `hmean_lifetime_years`, `variation`, `mean_ipc`.
fn register_aggregate(reg: &mut StatsRegistry, p: &str, s: &SchemeStudy) {
    reg.set(format!("{p}.raw_min_years"), s.raw_min);
    reg.set(format!("{p}.hmean_lifetime_years"), s.hmean_lifetime());
    reg.set(format!("{p}.variation"), s.variation);
    reg.set(format!("{p}.mean_ipc"), s.mean_ipc());
}

/// Fill a manifest from a [`MainStudy`]: each scheme's four aggregate keys
/// and per-workload `ipc.wl[i]` (1-based, matching WL1–WL10 naming) under
/// `scheme.<name>.*`, plus one wear-heatmap row per scheme (harmonic-mean
/// per-bank lifetime in years). This is the shared body of every
/// single-configuration lifetime study (fig3, fig4b, fig11–fig18,
/// capacity).
pub fn register_study(m: &mut Manifest, study: &MainStudy) {
    let reg = m.stats_mut();
    for s in &study.studies {
        let p = format!("scheme.{}", s.scheme.name());
        register_aggregate(reg, &p, s);
        for (i, ipc) in s.per_wl_ipc.iter().enumerate() {
            reg.set(format!("{p}.ipc.wl[{}]", i + 1), *ipc);
        }
    }
    for s in &study.studies {
        m.push_wear_row(s.scheme.name(), &s.hmean_per_bank);
    }
}

/// Fill a manifest from several [`MainStudy`]s under different
/// configurations (table3, the `all` run): metrics go under
/// `cfg.<label>.scheme.<name>.*` and the heatmap gets one row per
/// (config, scheme) pair labelled `<label>/<scheme>`.
pub fn register_multi_study(m: &mut Manifest, studies: &[MainStudy]) {
    for st in studies {
        for s in &st.studies {
            let p = format!("cfg.{}.scheme.{}", st.label, s.scheme.name());
            register_aggregate(m.stats_mut(), &p, s);
        }
    }
    for st in studies {
        for s in &st.studies {
            let label = format!("{}/{}", st.label, s.scheme.name());
            m.push_wear_row(&label, &s.hmean_per_bank);
        }
    }
}

/// Register Table II rows under `app.<name>.*`: measured
/// `wpki`/`mpki`/`hit_rate`/`ipc` and the paper's reference values as
/// `paper_*`.
pub fn register_table2(reg: &mut StatsRegistry, rows: &[Table2Row]) {
    for r in rows {
        let p = format!("app.{}", r.name);
        reg.set(format!("{p}.wpki"), r.wpki);
        reg.set(format!("{p}.mpki"), r.mpki);
        reg.set(format!("{p}.hit_rate"), r.hitrate);
        reg.set(format!("{p}.ipc"), r.ipc);
        reg.set(format!("{p}.paper_wpki"), r.paper_wpki);
        reg.set(format!("{p}.paper_mpki"), r.paper_mpki);
        reg.set(format!("{p}.paper_hit_rate"), r.paper_hitrate);
        reg.set(format!("{p}.paper_ipc"), r.paper_ipc);
    }
}

/// Register Figure 5 rows: `app.<name>.noncritical_load_pct` per
/// application plus the cross-application `average.noncritical_load_pct`.
pub fn register_fig5(reg: &mut StatsRegistry, rows: &[Table2Row]) {
    for r in rows {
        reg.set(
            format!("app.{}.noncritical_load_pct", r.name),
            r.noncritical_pct,
        );
    }
    reg.set(
        "average.noncritical_load_pct",
        criticality::average_noncritical(rows),
    );
}

/// Register a predictor study (Figures 7–9). The threshold sweep is echoed
/// as `threshold[k].pct`; per-application curves and cross-application
/// averages are indexed by the same `k`.
pub fn register_predictor(reg: &mut StatsRegistry, s: &PredictorStudy) {
    for (k, t) in s.thresholds.iter().enumerate() {
        reg.set(format!("threshold[{k}].pct"), *t);
    }
    for (a, app) in s.apps.iter().enumerate() {
        for k in 0..s.thresholds.len() {
            let p = format!("app.{app}");
            reg.set(format!("{p}.recall_pct[{k}]"), s.recall[a][k]);
            reg.set(
                format!("{p}.noncritical_blocks_pct[{k}]"),
                s.noncritical_blocks[a][k],
            );
            reg.set(
                format!("{p}.noncritical_writes_pct[{k}]"),
                s.noncritical_writes[a][k],
            );
        }
    }
    for (name, avg) in [
        ("avg.recall_pct", s.avg_recall()),
        ("avg.noncritical_blocks_pct", s.avg_noncritical_blocks()),
        ("avg.noncritical_writes_pct", s.avg_noncritical_writes()),
    ] {
        for (k, v) in avg.iter().enumerate() {
            reg.set(format!("{name}[{k}]"), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_key_skeleton_matches_schema() {
        let cfg = SystemConfig::default();
        let m = Manifest::new("fig3", "Actual Results", Some(&cfg), Budget::test());
        let json = m.to_json();
        // Every documented key appears, in order.
        let mut pos = 0;
        for key in MANIFEST_KEYS {
            let needle = format!("\"{key}\":");
            let at = json[pos..]
                .find(&needle)
                .unwrap_or_else(|| panic!("manifest missing key {key:?} after byte {pos}"));
            pos += at + needle.len();
        }
        assert!(json.starts_with(&format!("{{\"schema\":\"{MANIFEST_SCHEMA}\"")));
    }

    #[test]
    fn symmetric_llc_switch_rejects_malformed_values() {
        for (value, on) in [
            (None, false),
            (Some("1"), true),
            (Some("true"), true),
            (Some("TRUE"), true),
            (Some("0"), false),
            (Some("false"), false),
            (Some("False"), false),
        ] {
            assert_eq!(symmetric_llc(value), Ok(on), "{value:?}");
        }
        for bad in ["yes", "2", "", " 1", "on"] {
            let err = symmetric_llc(Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("RENUCA_SYMMETRIC_LLC={bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_config_is_null() {
        let m = Manifest::new("ablations", "all", None, Budget::test());
        assert!(m.to_json().contains("\"config\":null"));
    }

    #[test]
    fn non_finite_wear_values_become_null() {
        let mut m = Manifest::new("x", "y", None, Budget::test());
        m.push_wear_row("S-NUCA", &[1.0, f64::INFINITY, f64::NAN]);
        let json = m.to_json();
        assert!(json.contains("\"per_bank\":[1,null,null]"));
    }

    #[test]
    fn identical_manifests_are_byte_identical() {
        let build = || {
            let cfg = SystemConfig::default();
            let mut m = Manifest::new("fig12", "Actual Results", Some(&cfg), Budget::test());
            m.stats_mut().set("scheme.S-NUCA.raw_min_years", 1.25_f64);
            m.push_wear_row("S-NUCA", &[1.0, 2.0]);
            m.to_json()
        };
        assert_eq!(build(), build());
    }
}
