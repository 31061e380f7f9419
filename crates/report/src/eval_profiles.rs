//! The functional evaluator's golden: every execution profile the
//! simulator can be handed, rendered as deterministic text.
//!
//! One block per (Table-1 or out-of-core kernel, `sweep_sizes()` size).
//! A block lists every `StmtStats` row, `total_steps`, the final scalars as
//! bit patterns and the PRINT lines. A run that exceeds the step limit is
//! recorded as `exceeds`; together with `total_steps` of the completed
//! runs this fixes the `Ok`/`Err` outcome of every smaller limit. The
//! `eval_profiles` binary writes `artifacts_eval_profiles.txt`; the
//! root `eval_golden` test re-checks the cheap blocks in tier 1.

use hpf_eval::EvalError;
use hpf_lang::value::Value;
use hpf_lang::{analyze, parse_program};
use kernels::Kernel;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The largest `profile_steps` any caller passes (the advisor's and the
/// full Table-2 sweep's budget).
pub const GOLDEN_STEP_LIMIT: u64 = 40_000_000;

/// Processor count baked into the generated source. The evaluator never
/// reads mapping directives, so any count gives the same block.
const PROCS: usize = 4;

/// Every (kernel, size) case of the golden, in file order.
pub fn cases() -> Vec<(Kernel, usize)> {
    kernels::all_kernels()
        .into_iter()
        .chain(kernels::ooc_kernels())
        .flat_map(|k| k.sweep_sizes().into_iter().map(move |n| (k.clone(), n)))
        .collect()
}

/// The header line that opens a case's block.
pub fn header(kernel: &Kernel, n: usize) -> String {
    format!("== {} n={n}", kernel.name)
}

/// Run one case at `step_limit` and render its block (header included,
/// trailing newline included).
pub fn block(kernel: &Kernel, n: usize, step_limit: u64) -> String {
    let src = kernel.source(n, PROCS);
    let parsed = parse_program(&src).expect("kernel source parses");
    let analyzed = analyze(&parsed, &BTreeMap::new()).expect("kernel source analyzes");
    let mut out = header(kernel, n);
    out.push('\n');
    match hpf_eval::run_with_limit(&analyzed, step_limit) {
        Ok(o) => {
            for ((line, start), s) in o.profile.iter() {
                let _ = writeln!(
                    out,
                    "stmt {line}:{start} executions={} iterations={} mask_true={} mask_total={}",
                    s.executions, s.iterations, s.mask_true, s.mask_total
                );
            }
            let _ = writeln!(out, "total_steps {}", o.profile.total_steps);
            for (name, v) in &o.scalars {
                let _ = writeln!(out, "scalar {name} {}", bits(v));
            }
            for line in &o.output {
                let _ = writeln!(out, "print {line}");
            }
        }
        Err(EvalError { message, .. }) if message.starts_with("step limit exceeded") => {
            out.push_str("exceeds\n");
        }
        Err(e) => {
            let _ = writeln!(out, "error {e}");
        }
    }
    out
}

/// A scalar as its exact bit pattern.
fn bits(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("int {i}"),
        Value::Real(r) => format!("real {:016x}", r.to_bits()),
        Value::Logical(b) => format!("logical {b}"),
        Value::Str(s) => format!("str {s:?}"),
    }
}

/// The whole golden file.
pub fn render_all() -> String {
    cases()
        .iter()
        .map(|(k, n)| block(k, *n, GOLDEN_STEP_LIMIT))
        .collect()
}

/// Split a golden file into its blocks, keyed by header line.
pub fn parse_blocks(text: &str) -> Vec<(String, String)> {
    let mut blocks: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("== ") {
            blocks.push((line.to_string(), String::new()));
        }
        if let Some((_, body)) = blocks.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    blocks
}

/// `total_steps` of a completed block; `None` for `exceeds` / errors.
pub fn block_steps(block: &str) -> Option<u64> {
    block
        .lines()
        .find_map(|l| l.strip_prefix("total_steps "))
        .and_then(|s| s.parse().ok())
}
