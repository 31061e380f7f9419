//! The functional evaluator reproduces `artifacts_eval_profiles.txt`.
//!
//! The checked-in file is written by `eval_profiles` at the 40 M step
//! budget (CI diffs it in full). This test recomputes every block whose
//! run took at most `CHEAP` steps, at a `CHEAP` budget, so the cheap half
//! of the golden is guarded by the ordinary test suite.

use hpf90d::report::eval_profiles::{block, block_steps, cases, header, parse_blocks};

const CHEAP: u64 = 300_000;

#[test]
fn cheap_eval_profile_blocks_match_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/artifacts_eval_profiles.txt");
    let text = std::fs::read_to_string(path).expect("read artifacts_eval_profiles.txt");
    let golden = parse_blocks(&text);

    let cases = cases();
    assert_eq!(golden.len(), cases.len(), "one block per kernel × size");
    let mut checked = 0;
    for ((kernel, n), (head, body)) in cases.iter().zip(&golden) {
        assert_eq!(&header(kernel, *n), head, "golden block order");
        if block_steps(body).is_some_and(|s| s <= CHEAP) {
            assert_eq!(&block(kernel, *n, CHEAP), body, "{head}");
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} cheap blocks");
}
