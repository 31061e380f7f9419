//! Run configuration, the closed-loop driver shared by the single-client
//! workloads, the per-layer metric table, and the result printer.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::{self, Digest, Latency, Speedometer};

/// Set-up is repeated this many times per run and reported as the median,
/// so a single slow repetition cannot move `setup_s`.
pub const SETUP_REPS: usize = 11;

/// Parsed command line.
#[derive(Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Exact work counts reported by a traced op (`name → count`).
pub type Counts = BTreeMap<&'static str, u64>;

pub fn add(counts: &mut Counts, name: &'static str, v: u64) {
    *counts.entry(name).or_insert(0) += v;
}

fn merge(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        add(into, k, *v);
    }
}

/// One printed metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, printed beside it.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result (digests, counts,
    /// failing ops, attribution).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Result of one untraced op.
pub struct Done<O> {
    pub out: O,
    /// Time of the interpretive (prediction) part of the op, when the op
    /// has one distinct from the whole op.
    pub predict_ms: Option<f64>,
}

/// A single-client, closed-loop workload: the next op is issued only once
/// the previous one returned.
pub trait Workload {
    type State;
    type Input;
    type Output;
    type Key: Eq + Hash;

    /// Ops at the start of the sequence whose inputs, outputs and exact
    /// counts form the census (digests and counts that must repeat for a
    /// seed). Every run completes at least this many ops.
    const CENSUS: u64;

    /// Build everything the ops need. Returns the state and the time spent
    /// calibrating machines, in ms.
    fn setup(&self) -> Result<(Self::State, f64), String>;
    fn input(&self, seed: u64, index: u64) -> Self::Input;
    fn digest_input(&self, input: &Self::Input, d: &mut Digest);
    /// The op as a user issues it, untraced.
    fn run(&self, state: &Self::State, input: &Self::Input) -> Result<Done<Self::Output>, String>;
    /// The same op decomposed into calls to each layer's public
    /// functions, each recorded as a span. Must give the same output.
    fn run_traced(
        &self,
        state: &Self::State,
        input: &Self::Input,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Result<Self::Output, String>;
    /// Ops with equal keys have equal reference outputs.
    fn key(&self, input: &Self::Input) -> Self::Key;
    /// The same answer through a second public path. Never timed.
    fn reference(&self, state: &Self::State, input: &Self::Input) -> Result<Self::Output, String>;
    /// Why `out` disagrees with `reference`, if it does.
    fn mismatch(&self, out: &Self::Output, reference: &Self::Output) -> Option<String>;
    fn digest_output(&self, out: &Self::Output, d: &mut Digest);
    /// |predicted − simulated| / simulated, percent, when the op has both.
    fn pred_err_pct(&self, out: &Self::Output) -> Option<f64>;
    /// Per-layer timings measured outside the op (ms per traced op), such
    /// as the advisor's default-thread reference search.
    fn extra_layers(&self, _state: &Self::State) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

struct OpRecord<O> {
    index: u64,
    ms: f64,
    /// Host-speed probe in force when the op ran.
    probe: u64,
    traced: bool,
    predict_ms: Option<f64>,
    result: Result<O, String>,
}

/// Set-up repeated [`SETUP_REPS`] times; the last state is kept.
pub struct SetUp<S> {
    pub state: S,
    /// Wall time of each repetition, s.
    pub secs: Vec<f64>,
    /// Host-speed probe taken just before each repetition.
    pub probes: Vec<u64>,
    /// Calibration time of each repetition, ms.
    pub calib_ms: Vec<f64>,
}

impl<S> SetUp<S> {
    /// Median of the repetitions' host-normalized times, s.
    pub fn setup_s(&self) -> f64 {
        let secs: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.probes)
            .map(|(&s, &p)| stats::normalized(s, p))
            .collect();
        stats::median(&secs)
    }
}

pub fn repeated_setup<S>(
    speed: &mut Speedometer,
    mut setup: impl FnMut() -> Result<(S, f64), String>,
) -> Result<SetUp<S>, String> {
    let mut secs = Vec::new();
    let mut probes = Vec::new();
    let mut calib_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition's state first, so each repetition
        // builds from the same starting point.
        drop(state.take());
        probes.push(speed.probe());
        let t = Instant::now();
        let (s, calib) = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        calib_ms.push(calib);
        state = Some(s);
    }
    Ok(SetUp {
        state: state.expect("SETUP_REPS > 0"),
        secs,
        probes,
        calib_ms,
    })
}

/// Drive a closed-loop workload for one run.
pub fn closed_loop<W: Workload>(w: &W, cfg: &RunConfig) -> Result<Report, String> {
    let mut speed = Speedometer::new();
    let setup = repeated_setup(&mut speed, || w.setup())?;
    let state = &setup.state;

    let mut rec = Recorder::new(Instant::now());
    let mut counts_all = Counts::new();
    let mut counts_census = Counts::new();
    let mut records: Vec<OpRecord<W::Output>> = Vec::new();
    let start = Instant::now();
    let mut index = 0u64;
    while index < W::CENSUS || start.elapsed() < cfg.window() {
        let input = w.input(cfg.seed, index);
        // Traced runs trace the whole census and every other op after it;
        // the untraced ops in between measure what tracing costs.
        let traced = cfg.trace && (index < W::CENSUS || index % 2 == 1);
        let probe = speed.current();
        let t0 = Instant::now();
        let (result, predict_ms) = if traced {
            let mut counts = Counts::new();
            let r = rec.op(index, |r| w.run_traced(state, &input, r, &mut counts));
            merge(&mut counts_all, &counts);
            if index < W::CENSUS {
                merge(&mut counts_census, &counts);
            }
            (r, None)
        } else {
            match w.run(state, &input) {
                Ok(d) => (Ok(d.out), d.predict_ms),
                Err(e) => (Err(e), None),
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        records.push(OpRecord {
            index,
            ms,
            probe,
            traced,
            predict_ms,
            result,
        });
        index += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    let rss_mb = stats::peak_rss_mb();

    // Check every output against the reference path, outside all timing.
    let mut report = Report::default();
    let mut refs: HashMap<W::Key, Result<W::Output, String>> = HashMap::new();
    let mut input_digest = Digest::default();
    let mut output_digest = Digest::default();
    let mut errs = Vec::new();
    for r in &records {
        let input = w.input(cfg.seed, r.index);
        if r.index < W::CENSUS {
            w.digest_input(&input, &mut input_digest);
        }
        report.attempted += 1;
        let problem = match &r.result {
            Err(e) => Some(format!("error: {e}")),
            Ok(out) => {
                if r.index < W::CENSUS {
                    w.digest_output(out, &mut output_digest);
                }
                let reference = refs
                    .entry(w.key(&input))
                    .or_insert_with(|| w.reference(state, &input));
                match reference {
                    Err(e) => Some(format!("reference path failed: {e}")),
                    Ok(reference) => w.mismatch(out, reference),
                }
            }
        };
        if let Some(p) = problem {
            report.failed += 1;
            if errs.len() < 10 {
                errs.push(format!("failed op {}: {p}", r.index));
            }
        }
    }
    report.notes.extend(errs);
    report.notes.push(format!(
        "digest input={} output={} census_ops={}",
        input_digest.hex(),
        output_digest.hex(),
        W::CENSUS
    ));

    let ok: Vec<&OpRecord<W::Output>> = records.iter().filter(|r| r.result.is_ok()).collect();
    if !cfg.trace {
        let lat: Vec<f64> = ok
            .iter()
            .map(|r| stats::normalized(r.ms, r.probe))
            .collect();
        let predict: Vec<f64> = ok
            .iter()
            .map(|r| stats::normalized(r.predict_ms.unwrap_or(r.ms), r.probe))
            .collect();
        let errs: Vec<f64> = ok
            .iter()
            .filter_map(|r| w.pred_err_pct(r.result.as_ref().ok()?))
            .collect();
        report
            .notes
            .push(stats::speed_note(speed.probes(), ok.len(), window_s));
        report.metrics = end_to_end(EndToEnd {
            setup_s: setup.setup_s(),
            setup_reps: setup.secs.len(),
            clients: 1,
            latency_ms: &lat,
            predict_ms: &predict,
            pred_err_pct: &errs,
            rss_mb,
        });
        return Ok(report);
    }

    // Traced run: per-layer self times over the traced ops, exact counts
    // over the census, and the cost of tracing from the interleaved
    // untraced ops after the census.
    let after: Vec<&&OpRecord<W::Output>> = ok.iter().filter(|r| r.index >= W::CENSUS).collect();
    let norm_ms = |r: &OpRecord<W::Output>| stats::normalized(r.ms, r.probe);
    let traced_ms: Vec<f64> = after
        .iter()
        .filter(|r| r.traced)
        .map(|r| norm_ms(r))
        .collect();
    let plain_ms: Vec<f64> = after
        .iter()
        .filter(|r| !r.traced)
        .map(|r| norm_ms(r))
        .collect();
    let probe_of: HashMap<u64, u64> = records.iter().map(|r| (r.index, r.probe)).collect();
    let scale = |op: u64| stats::normalized(1.0, probe_of[&op]);
    let layers = LayerInputs {
        self_ns: rec.self_ns(scale),
        traced_ops: rec.ops(),
        op_ns: rec.op_ns(scale),
        counts_all,
        counts_census,
        extra: w.extra_layers(state),
        calibrate_ms: stats::median(&setup.calib_ms),
        overhead_pct: overhead_pct(&traced_ms, &plain_ms),
        failed_ratio: report.failed as f64 / report.attempted.max(1) as f64,
    };
    report.metrics = per_layer(&layers);
    report.notes.extend(census_notes(&layers.counts_census));
    report.notes.push(attribution_note(&layers));
    write_spans(cfg, &rec);
    Ok(report)
}

/// Relative cost of tracing: mean traced op time over mean untraced op
/// time, minus one, in percent.
pub fn overhead_pct(traced_ms: &[f64], plain_ms: &[f64]) -> f64 {
    let plain = stats::mean(plain_ms);
    if plain > 0.0 && !traced_ms.is_empty() {
        (stats::mean(traced_ms) / plain - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Inputs to the end-to-end metric table. Times are host-normalized.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Closed-loop clients: throughput is clients / mean latency.
    pub clients: usize,
    pub latency_ms: &'a [f64],
    pub predict_ms: &'a [f64],
    pub pred_err_pct: &'a [f64],
    pub rss_mb: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(e: EndToEnd) -> Vec<Metric> {
    let lat = Latency::of(e.latency_ms);
    let pred = Latency::of(e.predict_ms);
    vec![
        Metric::new("setup_s", e.setup_s, "s", e.setup_reps),
        Metric::new(
            "ops_per_s",
            e.clients as f64 * 1e3 / stats::mean(e.latency_ms),
            "ops/s",
            lat.count,
        ),
        Metric::new("p50_ms", lat.p50, "ms", lat.count),
        Metric::new("p99_ms", lat.p99, "ms", lat.count),
        Metric::new("predict_p50_ms", pred.p50, "ms", pred.count),
        Metric::new("predict_p99_ms", pred.p99, "ms", pred.count),
        Metric::new(
            "pred_err_pct",
            stats::mean(e.pred_err_pct),
            "%",
            e.pred_err_pct.len(),
        ),
        Metric::new("peak_rss_mb", e.rss_mb, "MB", 1),
    ]
}

/// Inputs to the per-layer metric table.
pub struct LayerInputs {
    /// Host-normalized self time per span name over every traced op, ns.
    pub self_ns: BTreeMap<&'static str, f64>,
    pub traced_ops: usize,
    /// Host-normalized time of every traced op, ns.
    pub op_ns: f64,
    /// Counts over every traced op (rates per count use these).
    pub counts_all: Counts,
    /// Counts over the census only (exact, repeat for a seed).
    pub counts_census: Counts,
    /// Per-layer values the workload measured itself.
    pub extra: BTreeMap<&'static str, f64>,
    pub calibrate_ms: f64,
    pub overhead_pct: f64,
    pub failed_ratio: f64,
}

/// Layer spans whose self time is reported as `<span>.ms`, in ms per
/// traced op.
pub const LAYER_SPANS: &[&str] = &[
    "hpf-eval.run",
    "hpf-lang.parse",
    "hpf-lang.analyze",
    "hpf-compiler.compile",
    "appgraph.build_aag",
    "interp.interpret",
    "kernels.bind",
    "report.shared_profile",
    "report.machine",
    "ipsc-sim.simulate.ipsc860",
    "ipsc-sim.simulate.torus3d",
    "ipsc-sim.simulate.fattree",
    "ipsc-sim.simulate.multicore",
    "hpf-advisor.enumerate",
    "hpf-advisor.search_1thread",
    "hpf-serve.wire",
];

const SIM_SPANS: &[&str] = &[
    "ipsc-sim.simulate.ipsc860",
    "ipsc-sim.simulate.torus3d",
    "ipsc-sim.simulate.fattree",
    "ipsc-sim.simulate.multicore",
];

/// Per-layer metrics measured by the workload itself (`extra`), with
/// their units. Absent ones print as 0: the layer did no such work.
pub const EXTRA_LAYERS: &[(&str, &str)] = &[
    ("hpf-advisor.search.ms", "ms"),
    ("hpf-serve.handle.ms", "ms"),
    ("hpf-serve.transport.ms", "ms"),
    ("hpf-serve.hit_p50_ms", "ms"),
    ("hpf-serve.near_hit_p50_ms", "ms"),
    ("hpf-serve.miss_p50_ms", "ms"),
    ("hpf-serve.sweep_p50_ms", "ms"),
    ("hpf-serve.cache.hit_ratio", "ratio"),
    ("hpf-serve.cache.wire_hit_ratio", "ratio"),
];

/// Exact census counts, with their units.
pub const CENSUS_COUNTS: &[(&str, &str)] = &[
    ("hpf-eval.steps", "count"),
    ("interp.aaus", "count"),
    ("ipsc-sim.runs", "count"),
    ("ipsc-sim.events", "count"),
    ("hpf-advisor.candidates", "count"),
    ("hpf-advisor.pruned", "count"),
    ("hpf-advisor.sessions_reused", "count"),
    ("hpf-serve.singleflight.leader", "count"),
];

fn ms_per_op(ns: f64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns / ops as f64 / 1e6
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, printed for every workload (0 where the
/// workload does not exercise the layer).
pub fn per_layer(l: &LayerInputs) -> Vec<Metric> {
    let n = l.traced_ops;
    let get = |name: &str| l.self_ns.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    for &span in LAYER_SPANS {
        out.push(Metric::new(
            &format!("{span}.ms"),
            ms_per_op(get(span), n),
            "ms",
            n,
        ));
    }
    let sim_ns: f64 = SIM_SPANS.iter().map(|s| get(s)).sum();
    out.push(Metric::new(
        "ipsc-sim.simulate.ms",
        ms_per_op(sim_ns, n),
        "ms",
        n,
    ));
    out.push(Metric::new(
        "ipsc-sim.simulate.share",
        ratio(sim_ns, l.op_ns),
        "ratio",
        n,
    ));
    let steps_all = l.counts_all.get("hpf-eval.steps").copied().unwrap_or(0);
    out.push(Metric::new(
        "hpf-eval.ns_per_step",
        if steps_all == 0 {
            0.0
        } else {
            get("hpf-eval.run") / steps_all as f64
        },
        "ns",
        n,
    ));
    let c = |name: &str| l.counts_census.get(name).copied().unwrap_or(0);
    for &(name, unit) in CENSUS_COUNTS {
        out.push(Metric::new(name, c(name) as f64, unit, 1));
    }
    out.push(Metric::new(
        "report.shared_profile.hit_ratio",
        ratio(
            c("report.shared_profile.hits") as f64,
            c("report.shared_profile.lookups") as f64,
        ),
        "ratio",
        c("report.shared_profile.lookups") as usize,
    ));
    out.push(Metric::new(
        "hpf-advisor.prune_ratio",
        ratio(
            c("hpf-advisor.pruned") as f64,
            c("hpf-advisor.candidates") as f64,
        ),
        "ratio",
        c("hpf-advisor.candidates") as usize,
    ));
    for &(name, unit) in EXTRA_LAYERS {
        out.push(Metric::new(
            name,
            l.extra.get(name).copied().unwrap_or(0.0),
            unit,
            n,
        ));
    }
    out.push(Metric::new(
        "report.calibrate.ms",
        l.calibrate_ms,
        "ms",
        SETUP_REPS,
    ));
    let unattributed = ms_per_op(get(crate::spans::OP), n);
    out.push(Metric::new("bench.unattributed.ms", unattributed, "ms", n));
    out.push(Metric::new(
        "bench.coverage",
        1.0 - ratio(get(crate::spans::OP), l.op_ns),
        "ratio",
        n,
    ));
    out.push(Metric::new(
        "bench.trace_overhead_pct",
        l.overhead_pct,
        "%",
        n,
    ));
    out.push(Metric::new(
        "bench.failed_ratio",
        l.failed_ratio,
        "ratio",
        1,
    ));
    out
}

/// One line per census count, for the determinism check.
pub fn census_notes(counts: &Counts) -> Vec<String> {
    counts
        .iter()
        .map(|(k, v)| format!("count {k} = {v}"))
        .collect()
}

/// Which layer holds the most self time, and how much the layer spans
/// explain.
pub fn attribution_note(l: &LayerInputs) -> String {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ns) in &l.self_ns {
        if *name == crate::spans::OP {
            continue;
        }
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_insert(0.0) += ns;
    }
    let total: f64 = by_layer.values().sum();
    let top = by_layer.iter().max_by(|a, b| a.1.total_cmp(b.1));
    match top {
        Some((layer, ns)) if l.op_ns > 0.0 => format!(
            "attribution dominant_layer={layer} share={:.3} covered={:.3}",
            ns / l.op_ns,
            total / l.op_ns
        ),
        _ => "attribution dominant_layer=none".to_string(),
    }
}

/// Write the run's spans under `.perfbench_out/` in the working
/// directory; a failure to write is reported, not fatal.
pub fn write_spans(cfg: &RunConfig, rec: &Recorder) {
    let path = std::path::PathBuf::from(".perfbench_out")
        .join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}

/// Print the report: notes and metrics with sample counts, then the
/// one-line JSON result as the last line.
pub fn print_report(cfg: &RunConfig, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} trace={} seconds={} nproc={nproc}",
        cfg.workload, cfg.seed, cfg.trace as u8, cfg.seconds
    );
    for n in &report.notes {
        println!("{n}");
    }
    let mut finite = true;
    let mut json = Vec::new();
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (samples={})",
            m.name, m.value, m.unit, m.samples
        );
        let value = if m.value.is_finite() {
            m.value
        } else {
            finite = false;
            0.0
        };
        json.push(format!(
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            m.name,
            fmt_num(value),
            m.unit
        ));
    }
    let correct = finite && report.failed == 0 && report.attempted > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.attempted,
        report.failed,
        json.join(", ")
    );
}

/// A JSON number with every digit of the measured value.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
