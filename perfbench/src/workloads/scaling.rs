//! `machine_scaling`: an analyst explores node counts and machines for
//! programs already loaded. Sessions and profiles are built in set-up, so
//! each op is one warm `SweepSession::evaluate` — predict plus a
//! 1000-run DES cross-check, the paper's measurement protocol.

use hpf_compiler::CompileOptions;
use interp::{InterpOptions, InterpretationEngine};
use ipsc_sim::{SimConfig, Simulator};
use kernels::{CompiledKernel, Kernel};
use report::experiments::{accuracy_sample, SweepConfig};
use report::SweepSession;

use super::{calibrate_all, err_pct, machines, pipe_err, same_bits, sim_span};
use crate::dealt;
use crate::driver::{add, Counts, Done, Workload};
use crate::spans::Recorder;
use crate::stats::Digest;

/// DES runs per point: the paper's 1000.
pub const RUNS: usize = 1000;
const PROCS: &[usize] = &[8, 16, 32, 64, 128];
/// Kernels with distinct communication shapes (reduction, shift,
/// broadcast, 2-D stencil, out-of-core). Each is swept over its three
/// smallest Table-2 sizes.
const KERNELS: &[&str] = &[
    "PI",
    "LFK 1",
    "LFK 9",
    "PBS 3",
    "N-Body",
    "Financial",
    "Laplace (Blk-Blk)",
    "Laplace OOC",
];
const SIZES_PER_KERNEL: usize = 3;

pub struct MachineScaling;

pub struct State {
    kernels: Vec<Kernel>,
    compiled: Vec<CompiledKernel>,
    /// `sessions[k][m]`: kernel `k` on machine `m`.
    sessions: Vec<Vec<SweepSession>>,
    profile_steps: u64,
}

pub struct Input {
    kernel: usize,
    machine: usize,
    n: usize,
    procs: usize,
}

#[derive(Debug)]
pub struct Output {
    predicted_s: f64,
    measured_s: f64,
    measured_std_s: f64,
    abs_error_pct: f64,
}

fn sizes(k: &Kernel) -> Vec<usize> {
    k.sweep_sizes().into_iter().take(SIZES_PER_KERNEL).collect()
}

impl Workload for MachineScaling {
    type State = State;
    type Input = Input;
    type Output = Output;
    type Key = (usize, usize, usize, usize);

    const CENSUS: u64 = 64;

    fn setup(&self) -> Result<(State, f64), String> {
        let machines = machines();
        let calib_ms = calibrate_all(&machines, PROCS)?;
        let kernels: Vec<Kernel> = KERNELS.iter().map(|n| super::kernel(n)).collect();
        let defaults = SweepConfig::default();
        let mut sessions = Vec::new();
        let mut compiled = Vec::new();
        for k in &kernels {
            let row = machines
                .iter()
                .map(|m| {
                    let cfg = SweepConfig {
                        runs: RUNS,
                        machine: m.to_string(),
                        ..SweepConfig::default()
                    };
                    SweepSession::new(k, &cfg).map_err(pipe_err)
                })
                .collect::<Result<Vec<_>, _>>()?;
            sessions.push(row);
            // Warm the process-wide profile memo the sessions read.
            let ck = CompiledKernel::new(k).map_err(|e| pipe_err(e.into()))?;
            for n in sizes(k) {
                let (analyzed, _) = ck
                    .bind(n as i64, 1, &CompileOptions::default())
                    .map_err(|e| pipe_err(e.into()))?;
                report::shared_profile(ck.canonical_source(), n, defaults.profile_steps, &analyzed);
            }
            compiled.push(ck);
        }
        Ok((
            State {
                kernels,
                compiled,
                sessions,
                profile_steps: defaults.profile_steps,
            },
            calib_ms,
        ))
    }

    fn input(&self, seed: u64, index: u64) -> Input {
        // Every (kernel, size, procs, machine) point is dealt once per
        // block of ops.
        let m = machines().len() as u64;
        let (p, s) = (PROCS.len() as u64, SIZES_PER_KERNEL as u64);
        let mut x = dealt(seed, index, KERNELS.len() as u64 * s * p * m);
        let machine = (x % m) as usize;
        x /= m;
        let procs = PROCS[(x % p) as usize];
        x /= p;
        let size = (x % s) as usize;
        let kernel = (x / s) as usize;
        Input {
            kernel,
            machine,
            n: sizes(&super::kernel(KERNELS[kernel]))[size],
            procs,
        }
    }

    fn digest_input(&self, i: &Input, d: &mut Digest) {
        d.str(KERNELS[i.kernel]);
        d.str(machines()[i.machine]);
        d.u64(i.n as u64);
        d.u64(i.procs as u64);
    }

    fn run(&self, state: &State, i: &Input) -> Result<Done<Output>, String> {
        let s = state.sessions[i.kernel][i.machine]
            .evaluate(i.n, i.procs)
            .map_err(pipe_err)?;
        Ok(Done {
            out: Output {
                predicted_s: s.predicted_s,
                measured_s: s.measured_s,
                measured_std_s: s.measured_std_s,
                abs_error_pct: s.abs_error_pct,
            },
            predict_ms: None,
        })
    }

    fn run_traced(
        &self,
        state: &State,
        i: &Input,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Result<Output, String> {
        let m = machines()[i.machine];
        let ck = &state.compiled[i.kernel];
        let (analyzed, spmd) = rec
            .span("kernels.bind", |_| {
                ck.bind(i.n as i64, i.procs, &CompileOptions::default())
            })
            .map_err(|e| pipe_err(e.into()))?;
        let (profile, hit) = rec.span("report.shared_profile", |_| {
            report::shared_profile(ck.canonical_source(), i.n, state.profile_steps, &analyzed)
        });
        add(counts, "report.shared_profile.lookups", 1);
        add(counts, "report.shared_profile.hits", hit as u64);
        let machine = rec
            .span("report.machine", |_| {
                report::pipeline::calibrated_machine_for(m, i.procs)
            })
            .map_err(pipe_err)?;
        let aag = rec.span("appgraph.build_aag", |_| appgraph::build_aag(&spmd));
        let pred = rec.span("interp.interpret", |_| {
            InterpretationEngine::with_options(&machine, InterpOptions::default()).interpret(&aag)
        });
        add(counts, "interp.aaus", aag.aaus.len() as u64);
        let params = rec
            .span("report.machine", |_| {
                report::pipeline::machine_params(m, i.procs)
            })
            .map_err(pipe_err)?;
        let meas = rec.span(sim_span(m), |_| {
            Simulator::with_config(
                &params,
                SimConfig {
                    runs: RUNS,
                    ..SimConfig::default()
                },
            )
            .simulate(&spmd, profile.as_deref())
        });
        add(counts, "ipsc-sim.runs", RUNS as u64);
        Ok(Output {
            predicted_s: pred.total_seconds(),
            measured_s: meas.mean,
            measured_std_s: meas.std,
            abs_error_pct: err_pct(pred.total_seconds(), meas.mean),
        })
    }

    fn key(&self, i: &Input) -> Self::Key {
        (i.kernel, i.machine, i.n, i.procs)
    }

    /// The from-scratch path: regenerate the source, compile, profile and
    /// simulate without any shared artifact.
    fn reference(&self, state: &State, i: &Input) -> Result<Output, String> {
        let cfg = SweepConfig {
            runs: RUNS,
            machine: machines()[i.machine].to_string(),
            share_artifacts: false,
            ..SweepConfig::default()
        };
        let s = accuracy_sample(&state.kernels[i.kernel], i.n, i.procs, &cfg).map_err(pipe_err)?;
        Ok(Output {
            predicted_s: s.predicted_s,
            measured_s: s.measured_s,
            measured_std_s: s.measured_std_s,
            abs_error_pct: s.abs_error_pct,
        })
    }

    fn mismatch(&self, out: &Output, r: &Output) -> Option<String> {
        if !(out.predicted_s.is_finite() && out.measured_s.is_finite() && out.measured_s > 0.0) {
            return Some(format!("non-finite or empty result {out:?}"));
        }
        same_bits("predicted_s", out.predicted_s, r.predicted_s)
            .or_else(|| same_bits("measured_s", out.measured_s, r.measured_s))
            .or_else(|| same_bits("measured_std_s", out.measured_std_s, r.measured_std_s))
            .or_else(|| same_bits("abs_error_pct", out.abs_error_pct, r.abs_error_pct))
    }

    fn digest_output(&self, o: &Output, d: &mut Digest) {
        d.f64(o.predicted_s);
        d.f64(o.measured_s);
        d.f64(o.measured_std_s);
    }

    fn pred_err_pct(&self, o: &Output) -> Option<f64> {
        Some(o.abs_error_pct)
    }
}
