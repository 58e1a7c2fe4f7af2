//! Determinism regression: a figure run must produce a byte-identical
//! `renuca-manifest-v1` regardless of the worker-pool width. The check
//! runs the real `all fig3` study in subprocesses (one per thread count, each
//! with its own `RENUCA_THREADS`) so the comparison covers the whole
//! pipeline: workload models, all five schemes, stats registry and
//! manifest serialization. A second check holds the instruction supply to
//! the same standard: a generator thread and inline filling must give the
//! same registry.

use std::path::PathBuf;
use std::process::Command;

use cmp_sim::{Instr, InstrSource, System, SystemConfig};
use renuca_core::{CptConfig, Scheme};
use workloads::workload_mix;

fn run_fig3(threads: &str, out: &PathBuf) {
    let status = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["fig3", "--stats", out.to_str().unwrap()])
        .env("RENUCA_THREADS", threads)
        // A small budget keeps the full five-scheme study under a few
        // seconds while still exercising every simulator component.
        .env("RENUCA_WARMUP", "20000")
        .env("RENUCA_MEASURE", "10000")
        .status()
        .expect("spawn all fig3");
    assert!(
        status.success(),
        "all fig3 with RENUCA_THREADS={threads} failed"
    );
}

#[test]
fn fig3_manifest_is_identical_across_pool_widths() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = dir.join("fig3-threads1.json");
    let pooled = dir.join("fig3-threads4.json");

    run_fig3("1", &serial);
    run_fig3("4", &pooled);

    let a = std::fs::read(&serial).unwrap();
    let b = std::fs::read(&pooled).unwrap();
    assert!(!a.is_empty(), "manifest must not be empty");
    if a != b {
        // Byte-level divergence: report the first differing line so the
        // failure names the counter, not just an offset.
        let (sa, sb) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
        for (la, lb) in sa.lines().zip(sb.lines()) {
            assert_eq!(la, lb, "first differing manifest line");
        }
        panic!(
            "manifests differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
}

/// Forwards every call but `fork`, so `System::new` fills this source's
/// blocks on the simulating thread.
struct Inline(Box<dyn InstrSource>);

impl InstrSource for Inline {
    fn next_instr(&mut self) -> Instr {
        self.0.next_instr()
    }
    fn next_alu_run(&mut self, max: u32) -> u32 {
        self.0.next_alu_run(max)
    }
    fn fill(&mut self, block: &mut [Instr]) -> usize {
        self.0.fill(block)
    }
    fn label(&self) -> &str {
        self.0.label()
    }
    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        self.0.warm_ranges()
    }
}

#[test]
fn generator_thread_and_inline_supply_dump_identical_registries() {
    let run = |inline: bool| {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.n_cores, 16);
        let mut sources = workload_mix(3, cfg.n_cores).build_sources();
        if inline {
            sources = sources
                .into_iter()
                .map(|s| Box::new(Inline(s)) as Box<dyn InstrSource>)
                .collect();
        }
        let scheme = Scheme::ReNuca;
        let mut sys = System::new(
            cfg,
            scheme.build_policy(&cfg),
            sources,
            scheme.build_predictors(&cfg, CptConfig::default()),
        );
        let host_threads = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        assert_eq!(sys.threaded(), host_threads && !inline);
        sys.prewarm();
        sys.run_measured(20_000, 30_000).registry().dump()
    };
    let threaded = run(false);
    let inline = run(true);
    for (a, b) in threaded.lines().zip(inline.lines()) {
        assert_eq!(a, b, "first differing registry line");
    }
    assert_eq!(threaded.len(), inline.len());
}
