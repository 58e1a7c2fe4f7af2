//! The traced run must not change what it measures, and its replay must
//! reproduce what it recorded.

use std::cell::Cell;
use std::rc::Rc;

use cmp_sim::{AccessMeta, InstrSource, LlcAccessKind, LlcPlacement, SystemConfig};
use e2e_bench::point;
use e2e_bench::shim::Recorded;
use e2e_bench::workload::{build_parts, Point, Workload};
use renuca_core::{ReNucaTwoProbe, Scheme};
use workloads::{app_by_name, AppModel};

fn tiny(points: Vec<Point>) -> Workload {
    Workload {
        name: "tiny",
        why: "test",
        points,
        warmup: 2_000,
        measure: 5_000,
    }
}

#[test]
fn wrapped_dump_is_byte_equal_to_unwrapped_for_every_scheme() {
    let w = tiny(
        Scheme::ALL
            .iter()
            .map(|&scheme| Point { scheme, mix: 3 })
            .collect(),
    );
    for &p in &w.points {
        let bare = point::run(p, &w, 0);
        let traced = point::run_traced(p, &w, 0);
        assert!(
            bare.dump == traced.dump,
            "{}: traced dump differs",
            p.label()
        );
        assert_eq!(bare.fingerprint, traced.fingerprint, "{}", p.label());
        assert!(
            traced.problems.is_empty(),
            "{}: {:?}",
            p.label(),
            traced.problems
        );
    }
}

#[test]
fn construction_time_hooks_are_forwarded() {
    let cfg = SystemConfig::default();
    let mut factories: Vec<Box<dyn Fn() -> Box<dyn LlcPlacement>>> = Scheme::ALL
        .iter()
        .map(|&s| Box::new(move || s.build_policy(&SystemConfig::default())) as Box<dyn Fn() -> _>)
        .collect();
    // The only policy with a second probe bank; no preset uses it.
    factories.push(Box::new(|| Box::new(ReNucaTwoProbe::new(4, 4))));
    let meta = AccessMeta {
        core: 5,
        line: 0x1234_5678,
        page: 0x1234_5678 >> 6,
        pc: 0x2010,
        kind: LlcAccessKind::Demand,
        predicted_critical: true,
    };
    let mark = Rc::new(Cell::new(false));
    for build in &factories {
        let mut bare = build();
        let (mut shim, _track) = Recorded::new(build(), build(), &mark);
        assert_eq!(shim.name(), bare.name());
        assert_eq!(
            shim.l3_replacement(),
            bare.l3_replacement(),
            "{}",
            bare.name()
        );
        assert_eq!(shim.compression(), bare.compression(), "{}", bare.name());
        assert_eq!(
            shim.lookup_overhead(),
            bare.lookup_overhead(),
            "{}",
            bare.name()
        );
        assert_eq!(
            shim.as_any().is_some(),
            bare.as_any().is_some(),
            "{}",
            bare.name()
        );
        assert_eq!(
            shim.secondary_bank(&meta),
            bare.secondary_bank(&meta),
            "{}",
            bare.name()
        );
        assert!(bare.lookup_bank(&meta) < cfg.n_banks);
    }
}

#[test]
fn replay_reproduces_the_recorded_results_of_all_three_layers() {
    // Re-NUCA exercises CPTs; Naive a stateful directory with lookup overhead.
    let w = tiny(vec![
        Point {
            scheme: Scheme::ReNuca,
            mix: 1,
        },
        Point {
            scheme: Scheme::Naive,
            mix: 104,
        },
    ]);
    for &p in &w.points {
        let r = point::run_traced(p, &w, 1);
        for (name, l) in point::LAYERS
            .iter()
            .zip(r.layers.expect("traced run replays"))
        {
            assert!(l.calls > 0, "{} {name}: nothing recorded", p.label());
            assert_eq!(l.mismatches, 0, "{} {name}", p.label());
            assert!(l.replay_s > 0.0);
        }
    }
}

#[test]
fn a_diverging_shadow_is_caught_before_and_after_the_mark() {
    let spec = *app_by_name("mcf").expect("mcf is a SPEC app");
    let model = |seed| Box::new(AppModel::new(spec, seed)) as Box<dyn InstrSource>;

    // Before the mark: the shadow mirrors every call and is compared.
    let mark = Rc::new(Cell::new(false));
    let (mut shim, track) = Recorded::new(model(1), model(2), &mark);
    for _ in 0..1_000 {
        shim.next_instr();
    }
    assert!(track.borrow().mismatches() > 0);

    // After the mark: the replayed hash must differ from the recorded one.
    let mark = Rc::new(Cell::new(true));
    let (mut shim, track) = Recorded::new(model(1), model(2), &mark);
    for _ in 0..1_000 {
        shim.next_alu_run(8);
        shim.next_instr();
    }
    let mut t = track.borrow_mut();
    assert_eq!(t.calls(), 2_000);
    assert_ne!(t.replay(), t.recorded_hash());

    // And identical instances agree.
    let (mut shim, track) = Recorded::new(model(7), model(7), &mark);
    for _ in 0..1_000 {
        shim.next_instr();
    }
    let mut t = track.borrow_mut();
    assert_eq!(t.replay(), t.recorded_hash());
}

#[test]
fn seed_zero_reproduces_the_repository_sources_and_seed_one_does_not() {
    let cfg = SystemConfig::default();
    let p = Point {
        scheme: Scheme::ReNuca,
        mix: 7,
    };
    let mut repo = workloads::workload_mix(7, cfg.n_cores).build_sources();
    let mut ours = build_parts(p, &cfg, 0).sources;
    let mut other = build_parts(p, &cfg, 1).sources;
    let mut differs = false;
    for core in 0..cfg.n_cores {
        for _ in 0..2_000 {
            let want = repo[core].next_instr();
            assert_eq!(ours[core].next_instr(), want, "core {core}");
            differs |= other[core].next_instr() != want;
        }
    }
    assert!(differs, "seed 1 must change the inputs");
}
