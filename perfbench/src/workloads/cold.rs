//! `cold_programs`: an analyst submits a program the system has never
//! seen. Each op predicts and then simulates fresh source text, so nothing
//! but machine calibration (done in set-up) can be reused.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use hpf_compiler::CompileOptions;
use interp::{InterpOptions, InterpretationEngine};
use ipsc_sim::{SimConfig, Simulator};
use kernels::Kernel;
use report::experiments::SweepConfig;
use report::{PredictOptions, SimulateOptions, SweepSession};

use super::{calibrate_all, err_pct, machines, pipe_err, same_bits, sim_span};
use crate::dealt;
use crate::driver::{add, Counts, Done, Workload};
use crate::spans::Recorder;
use crate::stats::Digest;

/// DES runs per simulated measurement (small: this is the first look).
pub const RUNS: usize = 20;
const PROCS: &[usize] = &[1, 2, 4, 8];

/// Every Table-1 kernel and out-of-core variant, with the largest
/// Table-2 size drawn for it. The caps keep the mean op near 4 ms on one
/// core, so a 10 s run completes well over 1000 ops.
const KERNELS: &[(&str, usize)] = &[
    ("LFK 1", 4096),
    ("LFK 2", 4096),
    ("LFK 3", 4096),
    ("LFK 9", 4096),
    ("LFK 14", 4096),
    ("LFK 22", 4096),
    ("PBS 1", 4096),
    ("PBS 2", 1024),
    ("PBS 3", 2048),
    ("PBS 4", 4096),
    ("PI", 4096),
    ("N-Body", 128),
    ("Financial", 128),
    ("Laplace (Blk-Blk)", 32),
    ("Laplace (Blk-X)", 32),
    ("Laplace (X-Blk)", 32),
    ("Laplace OOC", 32),
    ("N-Body OOC", 128),
];

pub struct ColdPrograms;

/// Every (kernel index, size) pair of the draw.
fn pairs() -> Vec<(usize, usize)> {
    KERNELS
        .iter()
        .enumerate()
        .flat_map(|(i, &(name, cap))| {
            super::kernel(name)
                .sweep_sizes()
                .into_iter()
                .filter(move |&n| n <= cap)
                .map(move |n| (i, n))
        })
        .collect()
}

pub struct State {
    kernels: Vec<Kernel>,
    /// Reference sessions, one per (kernel, machine), built on demand.
    sessions: Mutex<HashMap<(usize, &'static str), std::sync::Arc<SweepSession>>>,
}

pub struct Input {
    kernel: usize,
    n: usize,
    procs: usize,
    machine: &'static str,
    source: String,
}

#[derive(Debug)]
pub struct Output {
    predicted_s: f64,
    measured_s: f64,
    measured_std_s: f64,
}

impl Workload for ColdPrograms {
    type State = State;
    type Input = Input;
    type Output = Output;
    type Key = (usize, usize, usize, &'static str);

    const CENSUS: u64 = 48;

    fn setup(&self) -> Result<(State, f64), String> {
        let calib_ms = calibrate_all(&machines(), PROCS)?;
        let kernels = KERNELS
            .iter()
            .map(|&(name, _)| super::kernel(name))
            .collect();
        Ok((
            State {
                kernels,
                sessions: Mutex::new(HashMap::new()),
            },
            calib_ms,
        ))
    }

    fn input(&self, seed: u64, index: u64) -> Input {
        // Every (kernel, size, procs, machine) point is dealt once per
        // block of ops.
        let (pairs, machines) = (pairs(), machines());
        let (p, m) = (PROCS.len() as u64, machines.len() as u64);
        let x = dealt(seed, index, pairs.len() as u64 * p * m);
        let machine = machines[(x % m) as usize];
        let procs = PROCS[(x / m % p) as usize];
        let (kernel, n) = pairs[(x / m / p) as usize];
        let k = super::kernel(KERNELS[kernel].0);
        // A comment unique to the op makes the text new to every cache
        // keyed on source, as a first submission is.
        let source = format!("! submission {seed}:{index}\n{}", k.source(n, procs));
        Input {
            kernel,
            n,
            procs,
            machine,
            source,
        }
    }

    fn digest_input(&self, i: &Input, d: &mut Digest) {
        d.str(&i.source);
        d.str(i.machine);
    }

    fn run(&self, _state: &State, i: &Input) -> Result<Done<Output>, String> {
        let t0 = std::time::Instant::now();
        let pred = report::predict_source(
            &i.source,
            &PredictOptions {
                machine: i.machine.to_string(),
                ..PredictOptions::with_nodes(i.procs)
            },
        )
        .map_err(pipe_err)?;
        let predict_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut sopts = SimulateOptions {
            machine: i.machine.to_string(),
            ..SimulateOptions::with_nodes(i.procs)
        };
        sopts.sim.runs = RUNS;
        let meas = report::simulate_source(&i.source, &sopts).map_err(pipe_err)?;
        Ok(Done {
            out: Output {
                predicted_s: pred.total_seconds(),
                measured_s: meas.mean,
                measured_std_s: meas.std,
            },
            predict_ms: Some(predict_ms),
        })
    }

    fn run_traced(
        &self,
        _state: &State,
        i: &Input,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Result<Output, String> {
        let copts = CompileOptions {
            nodes: i.procs,
            ..CompileOptions::default()
        };
        let front = |rec: &mut Recorder| -> Result<_, String> {
            let program = rec
                .span("hpf-lang.parse", |_| hpf_lang::parse_program(&i.source))
                .map_err(|e| pipe_err(e.into()))?;
            let analyzed = rec
                .span("hpf-lang.analyze", |_| {
                    hpf_lang::analyze(&program, &BTreeMap::new())
                })
                .map_err(|e| pipe_err(e.into()))?;
            let spmd = rec
                .span("hpf-compiler.compile", |_| {
                    hpf_compiler::compile(&analyzed, &copts)
                })
                .map_err(|e| pipe_err(e.into()))?;
            Ok((analyzed, spmd))
        };

        // The interpretive path, as `report::predict_source` runs it.
        let machine = rec
            .span("report.machine", |_| {
                report::pipeline::calibrated_machine_for(i.machine, i.procs)
            })
            .map_err(pipe_err)?;
        let (_, spmd) = front(rec)?;
        let aag = rec.span("appgraph.build_aag", |_| appgraph::build_aag(&spmd));
        let pred = rec.span("interp.interpret", |_| {
            InterpretationEngine::with_options(&machine, InterpOptions::default()).interpret(&aag)
        });
        add(counts, "interp.aaus", aag.aaus.len() as u64);

        // The measurement path, as `report::simulate_source` runs it.
        let (analyzed, spmd) = front(rec)?;
        let profile = rec
            .span("hpf-eval.run", |_| hpf_eval::run(&analyzed))
            .ok()
            .map(|o| o.profile);
        if let Some(p) = &profile {
            add(counts, "hpf-eval.steps", p.total_steps);
        }
        let params = rec
            .span("report.machine", |_| {
                report::pipeline::machine_params(i.machine, i.procs)
            })
            .map_err(pipe_err)?;
        let meas = rec.span(sim_span(i.machine), |_| {
            Simulator::with_config(
                &params,
                SimConfig {
                    runs: RUNS,
                    ..SimConfig::default()
                },
            )
            .simulate(&spmd, profile.as_ref())
        });
        add(counts, "ipsc-sim.runs", RUNS as u64);
        Ok(Output {
            predicted_s: pred.total_seconds(),
            measured_s: meas.mean,
            measured_std_s: meas.std,
        })
    }

    fn key(&self, i: &Input) -> Self::Key {
        (i.kernel, i.n, i.procs, i.machine)
    }

    /// A compile-once session point for the same kernel, size, node count
    /// and machine.
    fn reference(&self, state: &State, i: &Input) -> Result<Output, String> {
        let session = {
            let mut sessions = state.sessions.lock().expect("reference sessions lock");
            match sessions.get(&(i.kernel, i.machine)) {
                Some(s) => s.clone(),
                None => {
                    let cfg = SweepConfig {
                        runs: RUNS,
                        machine: i.machine.to_string(),
                        ..SweepConfig::default()
                    };
                    let s = std::sync::Arc::new(
                        SweepSession::new(&state.kernels[i.kernel], &cfg).map_err(pipe_err)?,
                    );
                    sessions.insert((i.kernel, i.machine), s.clone());
                    s
                }
            }
        };
        let s = session.evaluate(i.n, i.procs).map_err(pipe_err)?;
        Ok(Output {
            predicted_s: s.predicted_s,
            measured_s: s.measured_s,
            measured_std_s: s.measured_std_s,
        })
    }

    fn mismatch(&self, out: &Output, r: &Output) -> Option<String> {
        if !(out.predicted_s.is_finite() && out.measured_s.is_finite() && out.measured_s > 0.0) {
            return Some(format!("non-finite or empty result {out:?}"));
        }
        same_bits("predicted_s", out.predicted_s, r.predicted_s)
            .or_else(|| same_bits("measured_s", out.measured_s, r.measured_s))
            .or_else(|| same_bits("measured_std_s", out.measured_std_s, r.measured_std_s))
    }

    fn digest_output(&self, o: &Output, d: &mut Digest) {
        d.f64(o.predicted_s);
        d.f64(o.measured_s);
        d.f64(o.measured_std_s);
    }

    fn pred_err_pct(&self, o: &Output) -> Option<f64> {
        Some(err_pct(o.predicted_s, o.measured_s))
    }
}
