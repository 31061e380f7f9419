//! The census of each closed-loop workload — its input digest, output
//! digest and exact counts — repeats for a seed, and the inputs change
//! with the seed. (`serve_census.rs` checks `serve_mix` in a process of
//! its own, since the service's counters are process-wide.)

use hpf_perfbench::driver::{self, Report, RunConfig};
use hpf_perfbench::workloads::{advise, cold, scaling};

/// A traced run just long enough to take the census.
fn census(workload: &str, seed: u64) -> Vec<String> {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.001,
        trace: true,
    };
    let report: Report = match workload {
        "cold_programs" => driver::closed_loop(&cold::ColdPrograms, &cfg),
        "machine_scaling" => driver::closed_loop(&scaling::MachineScaling, &cfg),
        "advise" => driver::closed_loop(&advise::Advise, &cfg),
        other => panic!("unknown workload {other}"),
    }
    .unwrap_or_else(|e| panic!("{workload} failed: {e}"));
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
fn cold_programs_census_repeats() {
    check("cold_programs");
}

#[test]
fn machine_scaling_census_repeats() {
    check("machine_scaling");
}

#[test]
fn advise_census_repeats() {
    check("advise");
}
