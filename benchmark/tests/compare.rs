//! `compare` verdicts on synthetic samples.

use m3d_benchmark::compare::{agrees, compare, Run, Verdict};
use m3d_benchmark::report::Better;

/// Ten runs around `center` with a ±`jitter` share of noise.
fn runs(center: f64, jitter: f64) -> Vec<f64> {
    [0.0, 0.3, -0.3, 0.7, -0.7, 1.0, -1.0, 0.5, -0.5, 0.1]
        .iter()
        .map(|k| center * (1.0 + k * jitter))
        .collect()
}

#[test]
fn clear_speedup_is_improved() {
    let c = compare(&runs(10.0, 0.02), &runs(8.0, 0.02), Better::Lower, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Improved);
    assert_eq!((c.b_wins, c.a_wins, c.pairs), (10, 0, 10));
    // The same numbers read as throughput are a regression.
    let c = compare(&runs(10.0, 0.02), &runs(8.0, 0.02), Better::Higher, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Worse);
}

#[test]
fn slowdown_beyond_the_bound_is_worse_and_within_it_unchanged() {
    let a = runs(10.0, 0.02);
    assert_eq!(
        compare(&a, &runs(11.5, 0.02), Better::Lower, 0.1)
            .unwrap()
            .verdict,
        Verdict::Worse
    );
    assert_eq!(
        compare(&a, &runs(10.5, 0.02), Better::Lower, 0.1)
            .unwrap()
            .verdict,
        Verdict::Unchanged
    );
}

#[test]
fn small_gain_inside_the_noise_is_not_a_claim() {
    // B wins most pairs, but the medians differ by less than A's spread.
    let a = runs(10.0, 0.05);
    let c = compare(&a, &runs(9.9, 0.05), Better::Lower, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Unchanged);
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let a = runs(10.0, 0.4);
    let b = runs(10.4, 0.4);
    let c = compare(&a, &b, Better::Lower, 0.1).unwrap();
    assert!(c.a.rel_spread() > 0.1);
    assert_eq!(c.verdict, Verdict::Unresolved);
    // Unless every run of B reads better than every run of A.
    let c = compare(&a, &runs(2.0, 0.4), Better::Lower, 0.1).unwrap();
    assert_eq!(c.verdict, Verdict::Improved);
    let c = compare(&[10.0, 14.0, 6.0], &[5.0, 5.5, 4.0], Better::Lower, 0.1).unwrap();
    assert_eq!(
        c.verdict,
        Verdict::Unchanged,
        "B reads better everywhere, but by less than A's spread: no claim, no regression"
    );
}

#[test]
fn same_code_agreement() {
    let a = runs(10.0, 0.02);
    let c = compare(&a, &runs(10.3, 0.02), Better::Lower, 0.1).unwrap();
    assert!(agrees(&c, 0.1, true));
    let c = compare(&a, &runs(11.5, 0.02), Better::Lower, 0.1).unwrap();
    assert!(!agrees(&c, 0.1, false), "medians 15% apart");
    let c = compare(&a, &runs(10.0, 0.4), Better::Lower, 0.1).unwrap();
    assert!(!agrees(&c, 0.1, true), "B too noisy for the bound");
    assert!(agrees(&c, 0.1, false), "medians alone agree");
    assert!(
        compare(&[1.0], &a, Better::Lower, 0.1).is_none(),
        "one run has no spread"
    );
}

#[test]
fn runs_parse_from_their_text_lines() {
    let text = "diagnose-bypass setup_s 0.25 s\n\
                diagnose-bypass diagnoses_per_s 110.5 chips/s\n\
                diagnose-bypass digest 1234567890123456 -\n\
                diagnose-bypass seed 7 -\n\
                diagnose-bypass error answers differ between 2 threads and 1 thread -\n\
                {\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";
    let run = Run::parse(text).unwrap();
    assert_eq!(run.workload, "diagnose-bypass");
    assert_eq!(run.metrics["setup_s"], 0.25);
    assert_eq!(run.metrics["diagnoses_per_s"], 110.5);
    assert_eq!(
        run.notes["digest"], "1234567890123456",
        "unit `-` is a note"
    );
    assert_eq!(run.notes["seed"], "7");
    assert_eq!(
        run.notes["error"],
        "answers differ between 2 threads and 1 thread"
    );
    assert!(!run.traced());
    assert_eq!(Run::parse("{}\n"), None);
}
