//! Campaign driver: `campaign <run|status|verify> <spec> --out <dir>`.
//!
//! * `run` — execute (or continue) a campaign. Idempotent: jobs whose
//!   manifest is on disk are skipped, the rest run on `RENUCA_THREADS`
//!   workers, and `report.json` is written from the manifests.
//! * `status` — print progress and the key of every pending job without
//!   running anything.
//! * `verify` — check every job manifest against the spec and
//!   re-aggregate; fails unless `report.json` matches byte-for-byte.

use std::path::PathBuf;
use std::process::ExitCode;

use campaign::{report, scheduler, CampaignSpec};

const USAGE: &str = "usage: campaign <run|status|verify> <spec.campaign> --out <dir>";

struct Cli {
    command: String,
    spec_path: PathBuf,
    out: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    if !matches!(command.as_str(), "run" | "status" | "verify") {
        return Err(format!("unknown command {command:?}"));
    }
    let spec_path = PathBuf::from(args.next().ok_or("missing spec path")?);
    let mut out: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out requires a value")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        command,
        spec_path,
        out: out.ok_or("missing --out <dir>")?,
    })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&cli.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", cli.spec_path.display());
            return ExitCode::from(2);
        }
    };
    let spec = match CampaignSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", cli.spec_path.display());
            return ExitCode::from(2);
        }
    };

    let result = match cli.command.as_str() {
        "run" => run(&spec, &cli),
        "status" => status(&spec, &cli),
        "verify" => verify(&spec, &cli),
        _ => unreachable!(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &CampaignSpec, cli: &Cli) -> Result<(), String> {
    let threads = experiments::pool::default_threads();
    let outcome = scheduler::run(spec, &cli.out, threads)?;
    println!(
        "campaign {}: {} executed, {} already done",
        spec.name, outcome.executed, outcome.skipped
    );
    println!("report: {}", outcome.report.display());
    Ok(())
}

fn status(spec: &CampaignSpec, cli: &Cli) -> Result<(), String> {
    let s = scheduler::status(spec, &cli.out)?;
    println!(
        "campaign {}: {}/{} done, report {}",
        spec.name,
        s.done,
        s.grid,
        if s.report_exists { "written" } else { "absent" }
    );
    for key in &s.pending {
        println!("  pending {key}");
    }
    Ok(())
}

fn verify(spec: &CampaignSpec, cli: &Cli) -> Result<(), String> {
    let checked = report::verify(spec, &cli.out)?;
    println!(
        "campaign {}: verified {checked} manifests + report.json byte-identical re-aggregation",
        spec.name
    );
    Ok(())
}
