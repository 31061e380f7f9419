//! The four workloads and the helpers they share.

pub mod advise;
pub mod cold;
pub mod scaling;
pub mod serve;

use std::time::Instant;

/// Every registered machine backend, in registry order.
pub fn machines() -> Vec<&'static str> {
    hpf_machines::machine_names()
}

/// The span that times a DES run on `machine`.
pub fn sim_span(machine: &str) -> &'static str {
    match machine {
        "ipsc860" => "ipsc-sim.simulate.ipsc860",
        "torus3d" => "ipsc-sim.simulate.torus3d",
        "fattree" => "ipsc-sim.simulate.fattree",
        "multicore" => "ipsc-sim.simulate.multicore",
        other => panic!("no simulate span for machine {other}"),
    }
}

/// Characterize every `(machine, procs)` pair from scratch — the off-line
/// system abstraction step — then make sure the program's own calibration
/// memo holds each one. Returns the ms spent in the from-scratch passes.
pub fn calibrate_all(machines: &[&str], procs: &[usize]) -> Result<f64, String> {
    let t = Instant::now();
    for &m in machines {
        for &p in procs {
            if m == hpf_machines::DEFAULT_MACHINE {
                std::hint::black_box(ipsc_sim::calibrate(p));
            } else {
                let backend = hpf_machines::machine(m).map_err(|e| e.to_string())?;
                std::hint::black_box(
                    ipsc_sim::calibrate_backend(backend, p).map_err(|e| e.to_string())?,
                );
            }
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    for &m in machines {
        for &p in procs {
            report::pipeline::calibrated_machine_for(m, p).map_err(|e| e.to_string())?;
        }
    }
    Ok(ms)
}

/// Kernels by Table-1 name (or out-of-core variant name).
pub fn kernel(name: &str) -> kernels::Kernel {
    kernels::kernel_by_name(name).unwrap_or_else(|| panic!("unknown kernel {name}"))
}

/// Percent error of a prediction against a simulated measurement, as
/// `report` computes it.
pub fn err_pct(predicted: f64, measured: f64) -> f64 {
    if measured > 0.0 {
        100.0 * (predicted - measured).abs() / measured
    } else {
        0.0
    }
}

/// Bitwise float comparison with a readable failure.
pub fn same_bits(what: &str, got: f64, want: f64) -> Option<String> {
    (got.to_bits() != want.to_bits()).then(|| format!("{what}: got {got:e}, reference {want:e}"))
}

/// Render a pipeline error for a failure note.
pub fn pipe_err(e: report::PipelineError) -> String {
    e.to_string()
}
