//! `renuca` — command-line front end to the simulator.
//!
//! ```text
//! renuca run   [--scheme S] [--workload N] [--warmup I] [--measure I]
//!              [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]
//! renuca apps                       # Table II style characterization
//! renuca schemes [--workload N] ... # compare all nine schemes on one mix
//! ```
//!
//! A thin, dependency-free argument parser: this binary exists so users can
//! poke at configurations without writing Rust.

use renuca::experiments::run_workload;
use renuca::prelude::*;
use renuca::wear::lifetime_variation;
use renuca::workloads::{is_workload_id, workload_ids};

fn usage() -> ! {
    eprintln!(
        "usage:\n  renuca run     [--scheme snuca|rnuca|private|naive|renuca|wec|coloring|mac|renuca-c2]\n                 [--workload 1..10|101..105] [--warmup N] [--measure N]\n                 [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]\n  renuca apps    [--measure N]\n  renuca schemes [--workload 1..10|101..105] [--warmup N] [--measure N]"
    );
    std::process::exit(2)
}

/// The scheme a `--scheme` value names: any display name compared
/// case-insensitively with `-` removed, so `S-NUCA`, `s-nuca` and `snuca`
/// all select S-NUCA.
fn scheme_arg(value: &str) -> Option<Scheme> {
    let fold = |s: &str| s.replace('-', "").to_lowercase();
    let want = fold(value);
    Scheme::ALL.into_iter().find(|s| fold(s.name()) == want)
}

struct Args {
    scheme: Scheme,
    workload: usize,
    budget: Budget,
    cfg: SystemConfig,
}

/// Report a malformed input and exit 2.
fn fail(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        scheme: Scheme::ReNuca,
        workload: 1,
        budget: Budget::from_env().unwrap_or_else(|e| fail(e)),
        cfg: SystemConfig::default(),
    };
    let (mut warmup, mut measure) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match a.as_str() {
            "--scheme" => {
                let name = value("--scheme");
                out.scheme = scheme_arg(&name).unwrap_or_else(|| {
                    eprintln!("unknown scheme {name}");
                    usage()
                })
            }
            "--workload" => {
                let id = value("--workload");
                // Any id `workload_mix` builds; it panics on the rest.
                out.workload = id
                    .parse()
                    .ok()
                    .filter(|&n| is_workload_id(n))
                    .unwrap_or_else(|| {
                        eprintln!("unknown workload {id} (valid ids: {})", workload_ids());
                        std::process::exit(2)
                    })
            }
            "--warmup" => warmup = Some(value("--warmup")),
            "--measure" => measure = Some(value("--measure")),
            "--l2-128k" => out.cfg = out.cfg.with_l2_128k(),
            "--l3-1m" => out.cfg = out.cfg.with_l3_1m(),
            "--rob-168" => out.cfg = out.cfg.with_rob_168(),
            "--no-prefetch" => out.cfg.prefetch.streams = 0,
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    // The flags override the environment, under the same rules.
    let warmup = warmup.unwrap_or_else(|| out.budget.warmup.to_string());
    let measure = measure.unwrap_or_else(|| out.budget.measure.to_string());
    out.budget = Budget::from_vars(
        ("--warmup", Some(warmup.as_str())),
        ("--measure", Some(measure.as_str())),
    )
    .unwrap_or_else(|e| fail(e));
    out
}

fn print_result(r: &SimResult) {
    let model = LifetimeModel::default();
    let lifetimes = model.all_bank_lifetimes(&r.wear, r.cycles);
    let min = lifetimes.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "{:10}  IPC {:6.2}   min-lifetime {:6.2}y   wear-CV {:5.3}   L3 writes {}",
        r.scheme,
        r.total_ipc(),
        min,
        lifetime_variation(&lifetimes),
        r.wear.total_writes()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "run" => {
            let a = parse(rest);
            let wl = workload_mix(a.workload, a.cfg.n_cores);
            println!(
                "scheme={} workload={} warmup={} measure={}",
                a.scheme,
                wl.name(),
                a.budget.warmup,
                a.budget.measure
            );
            let r = run_workload(&wl, a.scheme, a.cfg, CptConfig::default(), a.budget);
            print_result(&r);
            for c in &r.per_core {
                println!(
                    "  core {:>2} {:12} ipc {:5.2}  mpki {:7.2}  wpki {:7.2}  l3hit {:4.2}",
                    c.label, "", c.ipc, c.mpki, c.wpki, c.l3_hit_rate
                );
            }
        }
        "apps" => {
            let a = parse(rest);
            let rows = renuca::experiments::figures::table2::run(a.budget);
            println!(
                "{}",
                renuca::experiments::figures::table2::format_table2(&rows)
            );
        }
        "schemes" => {
            let a = parse(rest);
            let wl = workload_mix(a.workload, a.cfg.n_cores);
            println!("workload {}:", wl.name());
            for scheme in Scheme::ALL {
                let r = run_workload(&wl, scheme, a.cfg, CptConfig::default(), a.budget);
                print_result(&r);
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_arg_accepts_every_alias() {
        for (alias, scheme) in [
            ("snuca", Scheme::SNuca),
            ("s-nuca", Scheme::SNuca),
            ("S-NUCA", Scheme::SNuca),
            ("rnuca", Scheme::RNuca),
            ("r-nuca", Scheme::RNuca),
            ("private", Scheme::Private),
            ("naive", Scheme::Naive),
            ("renuca", Scheme::ReNuca),
            ("re-nuca", Scheme::ReNuca),
            ("wec", Scheme::Wec),
            ("coloring", Scheme::Coloring),
            ("mac", Scheme::Mac),
            ("re-nuca-c2", Scheme::ReNucaC2),
            ("renucac2", Scheme::ReNucaC2),
        ] {
            assert_eq!(scheme_arg(alias), Some(scheme), "{alias}");
        }
        for s in Scheme::ALL {
            assert_eq!(scheme_arg(s.name()), Some(s));
        }
    }

    #[test]
    fn scheme_arg_rejects_unknown_names() {
        for bad in ["", "nuca", "re-nuca-c3", "s_nuca", "dnuca"] {
            assert_eq!(scheme_arg(bad), None, "{bad:?}");
        }
    }
}
