//! Campaign aggregation: merge per-job `renuca-manifest-v1` files into one
//! `renuca-campaign-report-v2` document, and verify a finished campaign.
//!
//! The report is a pure function of the spec and the job manifests, walked
//! in grid order. It carries no timestamps or run history, so the same
//! completed campaign renders byte-identical bytes no matter how many
//! crashes and resumes produced it — that invariant is what the
//! crash-recovery tests pin down.

use std::fs;
use std::path::Path;

use experiments::SchemeStudy;
use sim_stats::json::{f64_array, parse, raw_array, u64_array, JsonObject, JsonValue};

use crate::spec::{CampaignSpec, Job};

/// Schema id of the aggregate report.
pub const REPORT_SCHEMA: &str = "renuca-campaign-report-v2";

/// What one completed job contributes to the aggregate.
pub(crate) struct JobData {
    ipc: f64,
    per_bank: Vec<f64>,
}

/// Read job `job`'s manifest, `jobs/<id>.json`.
///
/// The outer `Err` is a hard error: the manifest parses but carries another
/// spec fingerprint or budget (a spec without a `budget` line takes it from
/// the environment), so it belongs to a different campaign or spec
/// revision. The inner `Err` means the job is pending, with the reason: the
/// manifest is missing, does not parse, or is not this job's.
pub(crate) fn read_job(
    spec: &CampaignSpec,
    dir: &Path,
    job: &Job,
) -> Result<Result<JobData, String>, String> {
    let path = dir.join(job.manifest_rel(&spec.name));
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return Ok(Err(format!("read {}: {e}", path.display()))),
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => return Ok(Err(format!("parse {}: {e}", path.display()))),
    };
    let fingerprint = format!("{:016x}", spec.fingerprint);
    let fp = doc
        .get("stats")
        .and_then(|s| s.get("job.spec_fingerprint"))
        .and_then(JsonValue::as_str);
    let budget = |key| {
        doc.get("budget")
            .and_then(|b| b.get(key))
            .and_then(JsonValue::as_u64)
    };
    let (warmup, measure) = (budget("warmup"), budget("measure"));
    let malformed = |what| {
        Ok(Err(format!(
            "{}: missing or malformed {what}",
            path.display()
        )))
    };
    match fp {
        None => return malformed("stats.job.spec_fingerprint"),
        Some(fp)
            if fp != fingerprint
                || warmup != Some(spec.budget.warmup)
                || measure != Some(spec.budget.measure) =>
        {
            return Err(format!(
                "{}: manifest belongs to a different campaign or spec revision \
                 (manifest: fp={fp} warmup={warmup:?} measure={measure:?}; \
                 spec: name={} fp={fingerprint} warmup={} measure={})",
                path.display(),
                spec.name,
                spec.budget.warmup,
                spec.budget.measure,
            ));
        }
        Some(_) => {}
    }
    match job_data(&doc, job) {
        Ok(data) => Ok(Ok(data)),
        Err(what) => malformed(what),
    }
}

/// Pull the aggregate inputs out of a parsed job manifest; `Err` names the
/// first field that is missing or does not match `job`.
fn job_data(doc: &JsonValue, job: &Job) -> Result<JobData, &'static str> {
    if doc.get("label").and_then(JsonValue::as_str) != Some(job.key().as_str()) {
        return Err("label");
    }
    let stats = doc.get("stats").ok_or("stats")?;
    let ipc = stats
        .get("job.ipc")
        .and_then(JsonValue::as_f64)
        .ok_or("stats.job.ipc")?;
    let per_bank = doc
        .get("wear_heatmap")
        .and_then(|h| h.get("rows"))
        .and_then(JsonValue::as_array)
        .and_then(|rows| rows.first())
        .and_then(|r| r.get("per_bank"))
        .and_then(JsonValue::as_array)
        .ok_or("wear_heatmap.rows[0].per_bank")?
        .iter()
        // `fmt_f64` writes non-finite lifetimes (a bank with zero writes
        // never wears out) as JSON null; read them back as +inf.
        .map(|v| v.as_f64().unwrap_or(f64::INFINITY))
        .collect();
    Ok(JobData { ipc, per_bank })
}

/// Render the aggregate report. Fails unless every job of the grid has a
/// valid manifest.
pub fn render(spec: &CampaignSpec, dir: &Path) -> Result<Vec<u8>, String> {
    let jobs = spec.jobs();
    // Group jobs by (threshold, scheme) in spec order.
    let mut groups: Vec<String> = Vec::new();
    for &threshold_pct in &spec.thresholds {
        for &scheme in &spec.schemes {
            let mut workloads: Vec<u64> = Vec::new();
            let mut ipcs: Vec<f64> = Vec::new();
            let mut per_wl: Vec<Vec<f64>> = Vec::new();
            for job in jobs
                .iter()
                .filter(|j| j.threshold_pct == threshold_pct && j.scheme == scheme)
            {
                let data = read_job(spec, dir, job)?.map_err(|e| {
                    format!(
                        "campaign incomplete: job {} ({}): {e}",
                        job.id(&spec.name),
                        job.key()
                    )
                })?;
                workloads.push(job.workload as u64);
                ipcs.push(data.ipc);
                per_wl.push(data.per_bank);
            }

            let study = SchemeStudy::new(scheme, per_wl, ipcs);
            let mut g = JsonObject::new();
            g.field_f64("threshold_pct", threshold_pct)
                .field_str("scheme", scheme.name())
                .field_raw("workloads", &u64_array(&workloads))
                .field_f64("mean_ipc", study.mean_ipc())
                .field_raw("per_workload_ipc", &f64_array(&study.per_wl_ipc))
                .field_f64("raw_min_years", study.raw_min)
                .field_f64("hmean_lifetime_years", study.hmean_lifetime())
                .field_f64("variation", study.variation)
                .field_raw("hmean_per_bank", &f64_array(&study.hmean_per_bank));
            groups.push(g.finish());
        }
    }

    let mut budget = JsonObject::new();
    budget
        .field_u64("warmup", spec.budget.warmup)
        .field_u64("measure", spec.budget.measure);
    let mut o = JsonObject::new();
    o.field_str("schema", REPORT_SCHEMA)
        .field_str("campaign", &spec.name)
        .field_str("fingerprint", &format!("{:016x}", spec.fingerprint))
        .field_str("config", &spec.config_desc)
        .field_raw("budget", &budget.finish())
        .field_u64("grid", jobs.len() as u64)
        .field_raw("groups", &raw_array(&groups));
    let mut text = o.finish();
    text.push('\n');
    Ok(text.into_bytes())
}

/// End-to-end integrity check of a finished campaign: every job manifest
/// parses and carries its job's key and the spec's fingerprint, and
/// re-aggregating reproduces `report.json` byte-for-byte. Returns the
/// number of manifests checked.
pub fn verify(spec: &CampaignSpec, dir: &Path) -> Result<usize, String> {
    let rendered = render(spec, dir)?;
    let report_path = dir.join("report.json");
    let on_disk =
        fs::read(&report_path).map_err(|e| format!("read {}: {e}", report_path.display()))?;
    if rendered != on_disk {
        return Err(format!(
            "{} does not match re-aggregation ({} vs {} bytes)",
            report_path.display(),
            on_disk.len(),
            rendered.len()
        ));
    }
    Ok(spec.jobs().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::SystemConfig;
    use experiments::runner::{lifetime_model, Points};
    use experiments::Budget;

    /// A campaign's report groups and the memoised grid path of `all` agree
    /// bit for bit on the same grid: both go through `SchemeStudy::new`,
    /// and `fmt_f64` round-trips every f64 the manifests and the report
    /// carry. The grid runs the default CPT, so the spec's threshold is
    /// the default 3%.
    #[test]
    fn report_groups_equal_in_process_studies() {
        let spec = CampaignSpec::parse(
            "renuca-campaign-v1\nname agree\nconfig small 4\n\
             budget warmup=2000 measure=20000\nschemes S-NUCA Re-NUCA\n\
             workloads 1 2\nthresholds 3\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-agree-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let outcome = crate::scheduler::run(&spec, &dir, 2).unwrap();
        let doc = parse(&fs::read_to_string(outcome.report).unwrap()).unwrap();
        let groups = doc.get("groups").and_then(JsonValue::as_array).unwrap();
        assert_eq!(groups.len(), 2);

        let cfg = SystemConfig::small(4);
        let budget = Budget {
            warmup: 2000,
            measure: 20000,
        };
        let grid = Points::default().grid(&spec.schemes, &[1, 2], cfg, budget);
        for ((g, &scheme), points) in groups.iter().zip(&spec.schemes).zip(&grid) {
            let study = SchemeStudy::from_points(scheme, points, &lifetime_model(&cfg));
            let num = |k| g.get(k).and_then(JsonValue::as_f64).unwrap();
            let nums = |k| -> Vec<f64> {
                let xs = g.get(k).and_then(JsonValue::as_array).unwrap();
                xs.iter().map(|x| x.as_f64().unwrap()).collect()
            };
            assert_eq!(
                g.get("scheme").and_then(JsonValue::as_str),
                Some(scheme.name())
            );
            assert_eq!(num("mean_ipc"), study.mean_ipc());
            assert_eq!(num("raw_min_years"), study.raw_min);
            assert_eq!(num("hmean_lifetime_years"), study.hmean_lifetime());
            assert_eq!(num("variation"), study.variation);
            assert_eq!(nums("hmean_per_bank"), study.hmean_per_bank);
            // A capped lifetime (an unwritten bank) would make the
            // comparison vacuous; this budget wears every bank.
            assert!(study.raw_min < lifetime_model(&cfg).cap_years);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
