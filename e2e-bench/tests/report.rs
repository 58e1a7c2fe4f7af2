use e2e_bench::report::{summarize, PassOut};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = summarize(&[2.0, 1.0]);
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    // statistics.quantiles([3, 1, 2, 9, 4], n=4) == [1.5, 3.0, 6.5]
    let s = summarize(&[3.0, 1.0, 2.0, 9.0, 4.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 6.5));
}

#[test]
fn a_truncated_or_garbled_pass_is_a_failure_not_a_result() {
    let ok = "point 0 00000000000000ff 0000000000000001\nphase run 0.5 0.4\nrss 2048\n";
    let p = PassOut::parse(ok, 2).expect("well-formed records");
    assert!(p.points[0].is_some() && p.points[1].is_none());
    assert_eq!((p.phases.run, p.scaled.run, p.rss_kb), (0.5, 0.4, 2048.0));
    assert!(
        PassOut::parse("point 2 ff 1\n", 2).is_err(),
        "index out of range"
    );
    assert!(PassOut::parse("phase run fast 0.4\n", 2).is_err());
    assert!(PassOut::parse("phase lunch 0.5 0.4\n", 2).is_err());
    assert!(PassOut::parse("unexpected\n", 2).is_err());
}
