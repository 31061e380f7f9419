//! `advise`: an analyst asks which directives to use (paper §5 directive
//! selection). Each op is one `Advisor::search` over a 2-D-distributed
//! kernel — the one workload in which compiling and lowering candidates
//! dominates.
//!
//! The op runs the search on one thread. With the default pool on a
//! shared two-core host the search's time depends on whether another
//! tenant holds the second core, which no probe of the benchmark's own
//! can see, and repeated runs spread by up to 50 % at p99. The pool runs
//! as the reference: every op's ranking must equal the default-thread
//! search's, whose time is reported per layer (`hpf-advisor.search.ms`
//! against the op's `hpf-advisor.search_1thread.ms`).

use std::sync::Mutex;
use std::time::Instant;

use hpf_advisor::{Advisor, AdvisorConfig, AdvisorReport};
use hpf_compiler::CompileOptions;
use kernels::CompiledKernel;

use super::{calibrate_all, machines, pipe_err};
use crate::dealt;
use crate::driver::{add, Counts, Done, Workload};
use crate::spans::Recorder;
use crate::stats::{self, Digest, Speedometer};

const KERNELS: &[&str] = &[
    "Laplace (Blk-Blk)",
    "Laplace (Blk-X)",
    "Laplace (X-Blk)",
    "Laplace OOC",
];
const SIZES: &[usize] = &[16, 32, 64];
const PROCS: &[usize] = &[4, 8, 16];

pub struct Advise;

pub struct State {
    advisors: Vec<Advisor>,
    /// Host-normalized time of each default-thread reference search, ms,
    /// with the probe that normalizes it.
    pooled: Mutex<(Speedometer, Vec<f64>)>,
}

pub struct Input {
    kernel: usize,
    machine: usize,
    n: usize,
    procs: usize,
}

impl Input {
    /// The search at the advisor's defaults (pool size included).
    fn config(&self) -> AdvisorConfig {
        AdvisorConfig {
            n: self.n,
            procs: self.procs,
            machine: machines()[self.machine].to_string(),
            ..AdvisorConfig::default()
        }
    }

    /// The op's search: the defaults on one thread.
    fn one_thread(&self) -> AdvisorConfig {
        AdvisorConfig {
            threads: 1,
            ..self.config()
        }
    }
}

/// The parts of a report that must not depend on the thread count.
#[derive(Debug, PartialEq)]
pub struct Output {
    candidates: usize,
    pruned: usize,
    invalid: usize,
    sessions_reused: u64,
    /// Best first.
    ranked: Vec<Ranked>,
    sim_errors: Vec<f64>,
}

/// One ranked candidate, its times as exact bit patterns.
#[derive(Debug, PartialEq)]
pub struct Ranked {
    label: String,
    predicted_s: u64,
    lower_bound_s: u64,
    simulated_s: Option<u64>,
    sim_error_pct: Option<u64>,
}

impl Output {
    fn of(r: &AdvisorReport) -> Result<Output, String> {
        if r.ranked.is_empty() || r.ranked.iter().any(|c| !c.predicted_s.is_finite()) {
            return Err(format!("empty or non-finite ranking for {}", r.kernel));
        }
        Ok(Output {
            candidates: r.candidates,
            pruned: r.pruned,
            invalid: r.invalid,
            sessions_reused: r.sessions_reused,
            ranked: r
                .ranked
                .iter()
                .map(|c| Ranked {
                    label: c.label.clone(),
                    predicted_s: c.predicted_s.to_bits(),
                    lower_bound_s: c.lower_bound_s.to_bits(),
                    simulated_s: c.simulated_s.map(f64::to_bits),
                    sim_error_pct: c.sim_error_pct.map(f64::to_bits),
                })
                .collect(),
            sim_errors: r.ranked.iter().filter_map(|c| c.sim_error_pct).collect(),
        })
    }
}

impl Workload for Advise {
    type State = State;
    type Input = Input;
    type Output = Output;
    type Key = (usize, usize, usize, usize);

    const CENSUS: u64 = 16;

    fn setup(&self) -> Result<(State, f64), String> {
        let calib_ms = calibrate_all(&machines(), PROCS)?;
        let profile_steps = AdvisorConfig::default().profile_steps;
        let mut advisors = Vec::new();
        for name in KERNELS {
            let k = super::kernel(name);
            advisors.push(Advisor::for_kernel(&k).map_err(pipe_err)?);
            // Warm the process-wide profile memo the advisor's DES
            // cross-check reads (keyed on the same canonical source).
            let ck = CompiledKernel::new(&k).map_err(|e| pipe_err(e.into()))?;
            for &n in SIZES {
                let (analyzed, _) = ck
                    .bind(n as i64, 1, &CompileOptions::default())
                    .map_err(|e| pipe_err(e.into()))?;
                report::shared_profile(ck.canonical_source(), n, profile_steps, &analyzed);
            }
        }
        Ok((
            State {
                advisors,
                pooled: Mutex::new((Speedometer::new(), Vec::new())),
            },
            calib_ms,
        ))
    }

    fn input(&self, seed: u64, index: u64) -> Input {
        // Every (kernel, machine, size, procs) search is dealt once per
        // block of ops.
        let m = machines().len() as u64;
        let (s, p) = (SIZES.len() as u64, PROCS.len() as u64);
        let mut x = dealt(seed, index, KERNELS.len() as u64 * m * s * p);
        let procs = PROCS[(x % p) as usize];
        x /= p;
        let n = SIZES[(x % s) as usize];
        x /= s;
        Input {
            kernel: (x / m) as usize,
            machine: (x % m) as usize,
            n,
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
        let r = state.advisors[i.kernel]
            .search(&i.one_thread())
            .map_err(pipe_err)?;
        Ok(Done {
            out: Output::of(&r)?,
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
        let cfg = i.one_thread();
        let adv = &state.advisors[i.kernel];
        let space = rec.span("hpf-advisor.enumerate", |_| {
            hpf_advisor::enumerate_candidates(adv.rank(), cfg.procs, &cfg.ks)
        });
        let r = rec
            .span("hpf-advisor.search_1thread", |_| adv.search(&cfg))
            .map_err(pipe_err)?;
        if space.len() != r.candidates {
            return Err(format!(
                "enumerated {} candidates, search reports {}",
                space.len(),
                r.candidates
            ));
        }
        add(counts, "hpf-advisor.candidates", r.candidates as u64);
        add(counts, "hpf-advisor.pruned", r.pruned as u64);
        add(counts, "hpf-advisor.sessions_reused", r.sessions_reused);
        Output::of(&r)
    }

    fn key(&self, i: &Input) -> Self::Key {
        (i.kernel, i.machine, i.n, i.procs)
    }

    /// The same search on the default pool: the ranking must not depend
    /// on the thread count.
    fn reference(&self, state: &State, i: &Input) -> Result<Output, String> {
        let cfg = i.config();
        let mut timing = state.pooled.lock().expect("reference timing lock");
        let probe = timing.0.current();
        let t = Instant::now();
        let r = state.advisors[i.kernel].search(&cfg).map_err(pipe_err)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        timing.1.push(stats::normalized(ms, probe));
        Output::of(&r)
    }

    fn mismatch(&self, out: &Output, r: &Output) -> Option<String> {
        (out != r).then(|| {
            format!(
                "ranking differs from the default-thread search ({} vs {} ranked, top {:?} vs {:?})",
                out.ranked.len(),
                r.ranked.len(),
                out.ranked.first().map(|c| &c.label),
                r.ranked.first().map(|c| &c.label)
            )
        })
    }

    fn digest_output(&self, o: &Output, d: &mut Digest) {
        d.u64(o.candidates as u64);
        d.u64(o.pruned as u64);
        for c in &o.ranked {
            d.str(&c.label);
            d.u64(c.predicted_s);
            d.u64(c.lower_bound_s);
            d.u64(c.simulated_s.unwrap_or(0));
            d.u64(c.sim_error_pct.unwrap_or(0));
        }
    }

    fn pred_err_pct(&self, o: &Output) -> Option<f64> {
        (!o.sim_errors.is_empty()).then(|| stats::mean(&o.sim_errors))
    }

    fn extra_layers(&self, state: &State) -> std::collections::BTreeMap<&'static str, f64> {
        let timing = state.pooled.lock().expect("reference timing lock");
        [("hpf-advisor.search.ms", stats::mean(&timing.1))]
            .into_iter()
            .collect()
    }
}
