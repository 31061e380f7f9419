//! The `serve_mix` census — input digest, output digest and the service's
//! own exact counters read from `/v1/metrics?since=` — repeats for a seed,
//! and the inputs change with the seed. A test binary of its own: the
//! service's counters are process-wide, so nothing else may run beside it.

use hpf_perfbench::driver::{Report, RunConfig};
use hpf_perfbench::workloads::serve;

/// A traced run just long enough to take the census.
fn census(workload: &str, seed: u64) -> Vec<String> {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.001,
        trace: true,
    };
    let report: Report = serve::run(&cfg).unwrap_or_else(|e| panic!("{workload} failed: {e}"));
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.notes);
    report
        .notes
        .into_iter()
        .filter(|n| n.starts_with("digest ") || n.starts_with("count "))
        .collect()
}

fn input_digest(lines: &[String]) -> &str {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("digest input="))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("a digest line")
}

fn check(workload: &str) {
    let first = census(workload, 7);
    let again = census(workload, 7);
    assert!(first.iter().any(|l| l.starts_with("count ")), "{first:?}");
    assert_eq!(first, again, "{workload}: census differs between runs");
    let other = census(workload, 8);
    assert_ne!(
        input_digest(&first),
        input_digest(&other),
        "{workload}: inputs do not depend on the seed"
    );
}

#[test]
fn serve_mix_census_repeats() {
    check("serve_mix");
}
