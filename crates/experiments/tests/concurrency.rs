//! Concurrency stress: independent simulations are thread-safe and
//! deterministic when run in parallel (the experiment runner fans a
//! (scheme × workload) matrix across threads; nothing may leak between
//! systems).

use std::thread;

use experiments::{parallel_map_threads, run_workload, Budget};
use renuca_core::{CptConfig, Scheme};
use workloads::workload_mix;

#[test]
fn parallel_runs_match_serial_runs() {
    let cfg = cmp_sim::SystemConfig::small(4);
    let budget = Budget::test();
    let cases: Vec<(Scheme, usize)> = Scheme::ALL
        .iter()
        .flat_map(|&s| [(s, 1usize), (s, 2)])
        .collect();

    // Serial reference.
    let serial: Vec<Vec<u64>> = cases
        .iter()
        .map(|&(s, wl)| {
            run_workload(&workload_mix(wl, 4), s, cfg, CptConfig::default(), budget).bank_writes
        })
        .collect();

    // The same matrix, all cells at once on scoped threads.
    let parallel: Vec<Vec<u64>> = thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(s, wl)| {
                scope.spawn(move || {
                    run_workload(&workload_mix(wl, 4), s, cfg, CptConfig::default(), budget)
                        .bank_writes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (s, wl)) in cases.iter().enumerate() {
        assert_eq!(
            serial[i],
            parallel[i],
            "{}/WL{wl}: parallel execution changed the result",
            s.name()
        );
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Run the same cell on several threads simultaneously; all must agree.
    let cfg = cmp_sim::SystemConfig::small(4);
    let budget = Budget::test();
    let results: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    run_workload(
                        &workload_mix(3, 4),
                        Scheme::ReNuca,
                        cfg,
                        CptConfig::default(),
                        budget,
                    )
                    .wear
                    .total_writes()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for w in &results[1..] {
        assert_eq!(*w, results[0]);
    }
}

#[test]
fn pool_matches_serial_on_two_mix_experiment() {
    // The runner's own pool, on the shape `Points::grid` fills: a small
    // row of one scheme's workload points. Pooled output must be
    // byte-identical to the serial map — same values, same order — at any
    // worker count.
    let cfg = cmp_sim::SystemConfig::small(4);
    let budget = Budget::test();
    let ids = [1usize, 2];

    let run = |&id: &usize| {
        run_workload(
            &workload_mix(id, 4),
            Scheme::ReNuca,
            cfg,
            CptConfig::default(),
            budget,
        )
        .bank_writes
    };

    let serial: Vec<Vec<u64>> = ids.iter().map(run).collect();
    for threads in [1, 2, 4] {
        let pooled = parallel_map_threads(&ids, threads, run);
        assert_eq!(pooled, serial, "threads={threads}");
    }
}
