//! Fault-injection experiment: predicted vs simulated execution time under
//! a set of fault plans (healthy control, degraded link, severed link, slow
//! node, lossy network). The prediction side uses the degraded machine
//! abstraction; the measured side injects the same plan into the
//! discrete-event network simulation. Deterministic for a fixed seed.
//!
//! Usage: `faults [--kernel NAME] [--size N] [--procs P] [--runs R] [--machine NAME]`
//!
//! The degraded and severed links are node 0's own links on the machine's
//! interconnect at `--procs` (0-1 and 0-2 on the iPSC/860 hypercube).

use hpf_report::faults::{fault_experiment, fault_table_text, FaultExperimentConfig};

const USAGE: &str =
    "usage: faults [--kernel NAME] [--size N] [--procs P] [--runs R] [--machine NAME]";

fn usage_err(msg: &str) -> ! {
    eprintln!("faults: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FaultExperimentConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> String {
            it.next()
                .unwrap_or_else(|| usage_err(&format!("{flag} requires a value")))
                .clone()
        };
        let number = |flag: &str, v: &str| -> usize {
            v.parse()
                .unwrap_or_else(|_| usage_err(&format!("{flag} expects a number, got {v:?}")))
        };
        match flag.as_str() {
            "--kernel" => cfg.kernel = value(&mut it),
            "--size" => cfg.size = number(flag, &value(&mut it)),
            "--procs" => cfg.procs = number(flag, &value(&mut it)),
            "--runs" => cfg.runs = number(flag, &value(&mut it)),
            "--machine" => cfg.machine = value(&mut it),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_err(&format!("unknown option {other:?}")),
        }
    }

    match fault_experiment(&cfg) {
        Ok(rows) => {
            println!("Fault injection: predicted (degraded abstraction) vs simulated (DES)");
            println!();
            print!("{}", fault_table_text(&cfg, &rows));
        }
        Err(e) => {
            eprintln!("faults: {e}");
            std::process::exit(1);
        }
    }
}
