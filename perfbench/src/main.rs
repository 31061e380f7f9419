//! `hpf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks every output against a
//! second public path to the same answer, and prints the metrics: the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! The last line of standard output is the JSON result.

use hpf_perfbench::driver::{self, RunConfig};
use hpf_perfbench::workloads::{advise, cold, scaling, serve};

const WORKLOADS: &[&str] = &["cold_programs", "machine_scaling", "advise", "serve_mix"];

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: hpf-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value}")))
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value}")))
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace {value}")),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        usage(&format!("unknown workload {:?}", cfg.workload));
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let result = match cfg.workload.as_str() {
        "cold_programs" => driver::closed_loop(&cold::ColdPrograms, &cfg),
        "machine_scaling" => driver::closed_loop(&scaling::MachineScaling, &cfg),
        "advise" => driver::closed_loop(&advise::Advise, &cfg),
        "serve_mix" => serve::run(&cfg),
        _ => unreachable!("workload validated by parse_args"),
    };
    match result {
        Ok(report) => driver::print_report(&cfg, &report),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
