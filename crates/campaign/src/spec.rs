//! The `renuca-campaign-v1` spec: a hermetic text declaration of an
//! experiment grid, and its deterministic expansion into jobs.
//!
//! A spec is line-oriented. Blank lines and `#` comments are ignored; the
//! first significant line must be the schema id `renuca-campaign-v1`.
//! Directives (one per line, space-separated):
//!
//! ```text
//! renuca-campaign-v1
//! name fig3                      # required; campaign identity
//! config default                 # default | small <1|4|16> | mesh <cols> <rows> (≤ 32 tiles)
//! budget warmup=500000 measure=300000   # optional; default: RENUCA_WARMUP/MEASURE
//! schemes S-NUCA R-NUCA Private Naive   # or: all | baselines
//! workloads 1..10                # inclusive range, or an explicit list
//! thresholds 3                   # CPT x% sweep axis; optional, default 3
//! set l2.size_bytes 131072       # config overrides (see OVERRIDES)
//! ```
//!
//! **Job-ID determinism.** The grid expands in a fixed nesting order —
//! thresholds, then schemes, then workloads, each in spec order — so a
//! job's `index` is a pure function of the spec. Its canonical key is
//! `x=<threshold>/scheme=<name>/wl=<id>` and its id is `j` followed by the
//! 16-hex-digit FNV-1a of `<campaign name>|<key>`: two hosts or two
//! resumes of the same spec always agree on every id, so a job's manifest
//! path `jobs/<id>.json` is its completion record. Duplicate schemes,
//! workloads and thresholds are errors, so the ids of a grid are distinct.

use std::fmt::Write as _;

use cmp_sim::config::MAX_CORES;
use cmp_sim::SystemConfig;
use experiments::Budget;
use renuca_core::Scheme;

/// Schema id on the first significant line of every campaign spec.
pub const SPEC_SCHEMA: &str = "renuca-campaign-v1";

/// The `set`-able configuration overrides, with their target fields.
/// Kept to knobs the paper's evaluation actually sweeps; anything else in
/// a `set` line is a parse error, not a silent no-op.
pub const OVERRIDES: [&str; 6] = [
    "l2.size_bytes",
    "l3_bank.size_bytes",
    "rob_entries",
    "naive_dir_latency",
    "prefetch.streams",
    "intra_bank_rotation_writes",
];

/// A parsed, validated campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name (job-id namespace and report header).
    pub name: String,
    /// The machine every job simulates (base config + `set` overrides).
    pub config: SystemConfig,
    /// Human-readable description of the config line + overrides.
    pub config_desc: String,
    /// Instruction budget per job (spec line, else `RENUCA_*` env).
    pub budget: Budget,
    /// Placement schemes, in spec order.
    pub schemes: Vec<Scheme>,
    /// Workload mix ids (1-based), in spec order.
    pub workloads: Vec<usize>,
    /// CPT threshold sweep values (percent), in spec order.
    pub thresholds: Vec<f64>,
    /// FNV-1a fingerprint of the raw spec text — job manifests and reports
    /// carry it so a resume against an edited spec is refused.
    pub fingerprint: u64,
}

/// One cell of the campaign grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in grid order.
    pub index: usize,
    /// Placement scheme.
    pub scheme: Scheme,
    /// Workload mix id (1-based).
    pub workload: usize,
    /// CPT criticality threshold x%.
    pub threshold_pct: f64,
}

impl Job {
    /// Canonical key: `x=<threshold>/scheme=<name>/wl=<id>`.
    pub fn key(&self) -> String {
        format!(
            "x={}/scheme={}/wl={}",
            self.threshold_pct,
            self.scheme.name(),
            self.workload
        )
    }

    /// Deterministic job id: `j` + 16 hex digits of
    /// `fnv1a64("<campaign>|<key>")`.
    pub fn id(&self, campaign: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{campaign}|{}", self.key());
        format!("j{:016x}", fnv1a64(s.as_bytes()))
    }

    /// Relative path (under the campaign out dir) of this job's manifest.
    pub fn manifest_rel(&self, campaign: &str) -> String {
        format!("jobs/{}.json", self.id(campaign))
    }
}

impl CampaignSpec {
    /// Parse and validate a spec document.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());

        match lines.next() {
            Some((_, first)) if first == SPEC_SCHEMA => {}
            Some((n, first)) => {
                return Err(format!(
                    "line {n}: expected schema id {SPEC_SCHEMA:?}, found {first:?}"
                ))
            }
            None => return Err("empty spec".into()),
        }

        let mut name: Option<String> = None;
        let mut config = SystemConfig::default();
        let mut config_desc = String::from("default");
        let mut budget: Option<Budget> = None;
        let mut schemes: Option<Vec<Scheme>> = None;
        let mut workloads: Option<Vec<usize>> = None;
        let mut thresholds = vec![3.0];
        let mut overrides: Vec<(usize, &str, &str)> = Vec::new();

        for (n, line) in lines {
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap();
            let rest: Vec<&str> = words.collect();
            let err = |msg: &str| format!("line {n}: {msg}");
            match directive {
                "name" => {
                    if rest.len() != 1 {
                        return Err(err("name takes exactly one word"));
                    }
                    name = Some(rest[0].to_string());
                }
                "config" => {
                    let (cfg, desc) = parse_config(&rest).map_err(|e| err(&e))?;
                    config = cfg;
                    config_desc = desc;
                }
                "budget" => {
                    budget = Some(parse_budget(&rest).map_err(|e| err(&e))?);
                }
                "schemes" => {
                    schemes = Some(parse_schemes(&rest).map_err(|e| err(&e))?);
                }
                "workloads" => {
                    workloads = Some(parse_workloads(&rest).map_err(|e| err(&e))?);
                }
                "thresholds" => {
                    thresholds = parse_thresholds(&rest).map_err(|e| err(&e))?;
                }
                "set" => {
                    if rest.len() != 2 {
                        return Err(err("set takes <field> <value>"));
                    }
                    overrides.push((n, rest[0], rest[1]));
                }
                other => return Err(err(&format!("unknown directive {other:?}"))),
            }
        }

        let name = name.ok_or("spec is missing a `name` line")?;
        let schemes = schemes.ok_or("spec is missing a `schemes` line")?;
        let workloads = workloads.ok_or("spec is missing a `workloads` line")?;
        // Overrides apply on top of the final `config` line, wherever they
        // appear; each must leave a machine the simulator accepts.
        for (n, field, value) in overrides {
            apply_override(&mut config, field, value)
                .and_then(|()| config.check())
                .map_err(|e| format!("line {n}: set {field} {value}: {e}"))?;
            config_desc.push_str(&format!(" {field}={value}"));
        }
        let budget = match budget {
            Some(b) => b,
            None => Budget::from_env()?,
        };

        Ok(CampaignSpec {
            name,
            config,
            config_desc,
            budget,
            schemes,
            workloads,
            thresholds,
            fingerprint: fnv1a64(text.as_bytes()),
        })
    }

    /// Expand the grid in its fixed nesting order (thresholds → schemes →
    /// workloads). `jobs()[i].index == i` always holds.
    pub fn jobs(&self) -> Vec<Job> {
        let mut out =
            Vec::with_capacity(self.thresholds.len() * self.schemes.len() * self.workloads.len());
        for &threshold_pct in &self.thresholds {
            for &scheme in &self.schemes {
                for &workload in &self.workloads {
                    out.push(Job {
                        index: out.len(),
                        scheme,
                        workload,
                        threshold_pct,
                    });
                }
            }
        }
        out
    }
}

/// 64-bit FNV-1a over a byte string: a stable, host-independent
/// fingerprint for spec texts and job ids. Not cryptographic — it guards
/// against accidents (editing a spec mid-campaign), not adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_config(rest: &[&str]) -> Result<(SystemConfig, String), String> {
    match rest {
        ["default"] => Ok((SystemConfig::default(), "default".into())),
        ["small", n] => {
            let n: usize = n.parse().map_err(|_| format!("bad core count {n:?}"))?;
            if !matches!(n, 1 | 4 | 16) {
                return Err("small supports 1, 4 or 16 cores".into());
            }
            Ok((SystemConfig::small(n), format!("small {n}")))
        }
        ["mesh", c, r] => {
            let cols: usize = c.parse().map_err(|_| format!("bad mesh cols {c:?}"))?;
            let rows: usize = r.parse().map_err(|_| format!("bad mesh rows {r:?}"))?;
            if cols == 0 || rows == 0 {
                return Err("mesh needs at least one tile".into());
            }
            if cols.checked_mul(rows).is_none_or(|n| n > MAX_CORES) {
                return Err(format!(
                    "mesh {cols} {rows} exceeds the {MAX_CORES}-tile limit"
                ));
            }
            Ok((
                SystemConfig::mesh(cols, rows),
                format!("mesh {cols} {rows}"),
            ))
        }
        _ => Err("config takes: default | small <n> | mesh <cols> <rows>".into()),
    }
}

/// `budget warmup=<n> measure=<n>`: both keys required, each value read
/// by the same rule as `RENUCA_WARMUP` / `RENUCA_MEASURE`.
fn parse_budget(rest: &[&str]) -> Result<Budget, String> {
    let mut warmup = None;
    let mut measure = None;
    for w in rest {
        if let Some(v) = w.strip_prefix("warmup=") {
            warmup = Some(v);
        } else if let Some(v) = w.strip_prefix("measure=") {
            measure = Some(v);
        } else {
            return Err(format!("budget takes warmup=<n> measure=<n>, got {w:?}"));
        }
    }
    if warmup.is_none() || measure.is_none() {
        return Err("budget needs both warmup= and measure=".into());
    }
    Budget::from_vars(("warmup", warmup), ("measure", measure))
}

fn parse_thresholds(rest: &[&str]) -> Result<Vec<f64>, String> {
    if rest.is_empty() {
        return Err("thresholds needs at least one value".into());
    }
    let mut out: Vec<f64> = Vec::new();
    for w in rest {
        let x = w
            .parse::<f64>()
            .ok()
            .filter(|x| *x > 0.0 && *x <= 100.0)
            .ok_or_else(|| format!("bad threshold {w:?} (percent in (0, 100])"))?;
        // `3` and `3.0` are one value, one job key and one job id.
        if out.contains(&x) {
            return Err(format!("duplicate threshold {x}"));
        }
        out.push(x);
    }
    Ok(out)
}

fn parse_schemes(rest: &[&str]) -> Result<Vec<Scheme>, String> {
    let out: Vec<Scheme> = match rest {
        [] => return Err("schemes needs at least one name".into()),
        ["all"] => Scheme::ALL.to_vec(),
        ["baselines"] => Scheme::BASELINES.to_vec(),
        names => names
            .iter()
            .map(|name| {
                Scheme::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
                    format!("unknown scheme {name:?} (known: {known:?})")
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let mut seen = Vec::new();
    for s in &out {
        if seen.contains(s) {
            return Err(format!("duplicate scheme {}", s.name()));
        }
        seen.push(*s);
    }
    Ok(out)
}

fn parse_workloads(rest: &[&str]) -> Result<Vec<usize>, String> {
    let out_of_range =
        |id: usize| format!("workload {id} out of range ({})", workloads::workload_ids());
    let mut out = Vec::new();
    for w in rest {
        if let Some((a, b)) = w.split_once("..") {
            let a: usize = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
            let b: usize = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
            if a == 0 || b < a {
                return Err(format!("bad workload range {w:?}"));
            }
            // Bound the range before expanding it: `1..<u64::MAX>` must
            // be an error, not an attempt to allocate the whole range.
            if !workloads::is_workload_id(b) {
                return Err(out_of_range(b));
            }
            out.extend(a..=b);
        } else {
            let id: usize = w.parse().map_err(|_| format!("bad workload id {w:?}"))?;
            if id == 0 {
                return Err("workload ids are 1-based".into());
            }
            out.push(id);
        }
    }
    for id in &out {
        if !workloads::is_workload_id(*id) {
            return Err(out_of_range(*id));
        }
    }
    if out.is_empty() {
        return Err("workloads needs at least one id".into());
    }
    let mut seen = Vec::new();
    for id in &out {
        if seen.contains(id) {
            return Err(format!("duplicate workload {id}"));
        }
        seen.push(*id);
    }
    Ok(out)
}

fn apply_override(cfg: &mut SystemConfig, field: &str, value: &str) -> Result<(), String> {
    let num = || {
        value
            .parse::<u64>()
            .map_err(|_| format!("bad value {value:?} for {field}"))
    };
    match field {
        "l2.size_bytes" => cfg.l2.size_bytes = num()?,
        "l3_bank.size_bytes" => cfg.l3_bank.size_bytes = num()?,
        "rob_entries" => cfg.rob_entries = num()? as usize,
        "naive_dir_latency" => cfg.naive_dir_latency = num()?,
        "prefetch.streams" => cfg.prefetch.streams = num()? as usize,
        "intra_bank_rotation_writes" => {
            let v = num()?;
            cfg.intra_bank_rotation_writes = if v == 0 { None } else { Some(v) };
        }
        _ => {
            return Err(format!(
                "unknown override {field:?} (supported: {OVERRIDES:?})"
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
renuca-campaign-v1
name tiny           # comment after directive
config small 4

schemes S-NUCA Re-NUCA
workloads 1..3
budget warmup=100 measure=500
thresholds 3 25
";

    #[test]
    fn parses_and_expands_in_grid_order() {
        let spec = CampaignSpec::parse(TINY).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.schemes, vec![Scheme::SNuca, Scheme::ReNuca]);
        assert_eq!(spec.workloads, vec![1, 2, 3]);
        assert_eq!(spec.thresholds, vec![3.0, 25.0]);
        assert_eq!(
            spec.budget,
            Budget {
                warmup: 100,
                measure: 500
            }
        );
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
        assert_eq!(jobs[0].key(), "x=3/scheme=S-NUCA/wl=1");
        assert_eq!(jobs[3].key(), "x=3/scheme=Re-NUCA/wl=1");
        assert_eq!(jobs[6].key(), "x=25/scheme=S-NUCA/wl=1");
    }

    #[test]
    fn job_ids_are_stable_and_distinct() {
        let spec = CampaignSpec::parse(TINY).unwrap();
        let jobs = spec.jobs();
        let ids: Vec<String> = jobs.iter().map(|j| j.id(&spec.name)).collect();
        let again: Vec<String> = spec.jobs().iter().map(|j| j.id(&spec.name)).collect();
        assert_eq!(ids, again, "ids are a pure function of the spec");
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "no id collisions");
        for id in &ids {
            assert!(id.len() == 17 && id.starts_with('j'), "{id}");
        }
    }

    #[test]
    fn fingerprint_tracks_text() {
        let a = CampaignSpec::parse(TINY).unwrap();
        let b = CampaignSpec::parse(&TINY.replace("thresholds 3 25", "thresholds 3 5")).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.fingerprint,
            CampaignSpec::parse(TINY).unwrap().fingerprint
        );
    }

    #[test]
    fn overrides_apply_and_unknowns_are_errors() {
        let spec = CampaignSpec::parse(
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\n\
             set l2.size_bytes 131072\nset rob_entries 168\nset prefetch.streams 0\n",
        )
        .unwrap();
        assert_eq!(spec.config.l2.size_bytes, 131072);
        assert_eq!(spec.config.rob_entries, 168);
        assert_eq!(spec.config.prefetch.streams, 0);
        assert!(spec.config_desc.contains("l2.size_bytes=131072"));
        // An override applies on top of the `config` line even above it.
        let spec = CampaignSpec::parse(
            "renuca-campaign-v1\nname o\nset rob_entries 168\nconfig small 4\n\
             schemes all\nworkloads 1\n",
        )
        .unwrap();
        assert_eq!(spec.config.rob_entries, 168);
        assert_eq!(spec.config.n_cores, 4);

        for bad in [
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\nset l1.size 1\n",
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\nset prefetch.streams yes\n",
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\nset prefetch.enabled 0\n",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "renuca-campaign-v2\nname x\nschemes all\nworkloads 1\n",
            "renuca-campaign-v1\nschemes all\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all\n",
            "renuca-campaign-v1\nname x\nschemes Bogus\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all all\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 0\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 99\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1 1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nbudget warmup=1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nfrobnicate 7\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nthresholds -1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nthresholds 0\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nthresholds 101\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1..18446744073709551615\n",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
        // An override that gives an invalid machine, a repeated threshold
        // (one job id twice), a directive the format no longer has, or a
        // budget value the `RENUCA_MEASURE` rule rejects is an error naming
        // its own line.
        for bad in [
            "set rob_entries 1",
            "set l2.size_bytes 3",
            "set l3_bank.size_bytes 0",
            "thresholds 3 3",
            "thresholds 3 3.0",
            "retries 2",
            "budget warmup=1 measure=0",
            "budget warmup=1 measure=3e5",
        ] {
            let spec = format!("renuca-campaign-v1\nname x\nschemes all\nworkloads 1\n{bad}\n");
            let err = CampaignSpec::parse(&spec).unwrap_err();
            assert!(err.starts_with("line 5: "), "{bad}: {err}");
        }
    }

    #[test]
    fn fnv_known_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn oversized_mesh_is_an_error_not_a_panic() {
        let spec = |mesh: &str| {
            CampaignSpec::parse(&format!(
                "renuca-campaign-v1\nname x\nconfig mesh {mesh}\nschemes all\nworkloads 1\n"
            ))
        };
        let err = spec("8 8").unwrap_err();
        assert!(err.contains("32-tile limit"), "{err}");
        assert!(spec(&format!("{} 2", usize::MAX)).is_err());
        assert_eq!(spec("8 4").unwrap().config.n_cores, 32);
    }

    #[test]
    fn scheme_roundtrip() {
        for s in Scheme::ALL {
            assert_eq!(parse_schemes(&[s.name()]).unwrap(), vec![s]);
        }
        let err = parse_schemes(&["s-nuca"]).unwrap_err();
        assert!(err.contains("unknown scheme \"s-nuca\""), "{err}");
        assert!(
            err.contains("\"Re-NUCA-C2\""),
            "error lists the known names: {err}"
        );
    }
}
