//! Write the functional evaluator's golden (`artifacts_eval_profiles.txt`)
//! to stdout: one execution-profile block per Table-1 and out-of-core
//! kernel at every Table-2 sweep size, run at the largest step budget any
//! caller uses. See `hpf_report::eval_profiles`.

fn main() {
    print!("{}", hpf_report::eval_profiles::render_all());
}
