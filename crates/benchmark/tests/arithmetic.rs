//! The benchmark's own arithmetic: percentile rank, quartiles, the span
//! union behind `host_s`, and the `compare` verdicts.

use ascdg_benchmark::spans::{split, Interval, Union};
use ascdg_benchmark::stats::{median, p95, p95_rank, quartiles, relative_spread};
use ascdg_benchmark::verdict::{verdict, wins, Better, Verdict};

#[test]
fn p95_of_200_samples_has_ten_beyond_it() {
    assert_eq!(200 - 1 - p95_rank(200), 10);
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(p95(&samples), 190.0);
    assert_eq!(samples.iter().filter(|&&x| x > p95(&samples)).count(), 10);
    // Few samples: the largest, never out of range.
    assert_eq!(p95_rank(1), 0);
    assert_eq!(p95(&[3.0, 1.0, 2.0]), 3.0);
    assert_eq!(p95(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 3.0]), [1.0, 3.0, 4.0]);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
}

#[test]
fn union_merges_overlaps_and_clips_to_windows() {
    let children = [
        Interval::new(1.0, 3.0),
        Interval::new(2.0, 4.0),
        Interval::new(6.0, 7.0),
        Interval::new(9.0, 12.0),
    ];
    let union = Union::of(&children);
    assert!((union.overlap(Interval::new(0.0, 100.0)) - 7.0).abs() < 1e-12);
    assert!((union.overlap(Interval::new(0.0, 10.0)) - 5.0).abs() < 1e-12);
    assert!((union.overlap(Interval::new(3.5, 6.5)) - 1.0).abs() < 1e-12);
    assert_eq!(union.overlap(Interval::new(4.0, 6.0)), 0.0);
}

#[test]
fn host_time_and_chunk_union_sum_back_to_the_stage_wall() {
    // Two stage windows; chunks from two workers overlap inside the
    // first, one chunk straddles the second's start.
    let windows = [Interval::new(0.0, 10.0), Interval::new(20.0, 25.0)];
    let chunks = [
        Interval::new(1.0, 4.0),
        Interval::new(2.0, 6.0),
        Interval::new(8.0, 9.0),
        Interval::new(19.0, 21.0),
    ];
    let parts = split(&windows, &Union::of(&chunks));
    assert!((parts.wall_s - 15.0).abs() < 1e-12);
    assert!((parts.covered_s - 7.0).abs() < 1e-12);
    assert!((parts.self_s - 8.0).abs() < 1e-12);
    assert!((parts.self_s + parts.covered_s - parts.wall_s).abs() < 1e-3);
    // A stage with no chunks is all host time.
    let idle = split(&[Interval::new(30.0, 31.0)], &Union::of(&chunks));
    assert_eq!(idle.self_s, idle.wall_s);
}

#[test]
fn compare_verdicts_follow_the_pairwise_rule() {
    let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9];
    // Clearly faster in every pair, by far more than the parent's IQR.
    let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
    assert_eq!(wins(Better::Lower, &parent, &faster), 10);
    assert_eq!(
        verdict(Better::Lower, 0.05, &parent, &faster),
        Verdict::Improved
    );
    // The same numbers read as a regression when higher is better.
    assert_eq!(
        verdict(Better::Higher, 0.05, &parent, &faster),
        Verdict::Regressed
    );
    // Identical runs: unchanged.
    assert_eq!(
        verdict(Better::Lower, 0.05, &parent, &parent),
        Verdict::Unchanged
    );
    // Faster in only 8 of 10 pairs: not an improvement.
    let mostly: Vec<f64> = parent
        .iter()
        .enumerate()
        .map(|(i, x)| if i < 8 { x * 0.9 } else { x * 1.01 })
        .collect();
    assert_eq!(wins(Better::Lower, &parent, &mostly), 8);
    assert_ne!(
        verdict(Better::Lower, 0.05, &parent, &mostly),
        Verdict::Improved
    );
    // Slower by 3% against a 5% bound: unchanged.
    let slower: Vec<f64> = parent.iter().map(|x| x * 1.03).collect();
    assert_eq!(
        verdict(Better::Lower, 0.05, &parent, &slower),
        Verdict::Unchanged
    );
    // Runs spreading wider than the bound: unresolved.
    let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
    assert_eq!(
        verdict(Better::Lower, 0.05, &noisy, &noisy),
        Verdict::Unresolved
    );
    // ...unless every change run beats every parent run.
    let all_better: Vec<f64> = noisy.iter().map(|x| x - 5.0).collect();
    assert_ne!(
        verdict(Better::Lower, 0.05, &noisy, &all_better),
        Verdict::Unresolved
    );
}
