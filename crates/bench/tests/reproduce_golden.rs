//! `reproduce`'s deterministic sections are byte-identical to the committed
//! `reproduce.golden`: the paper's tables, the optimizer's decisions and the
//! cost model's figures must not move unless a change means to move them.
//!
//! To regenerate on purpose:
//!
//! ```text
//! cargo run -q --release -p mood-bench --bin reproduce -- tables-1-7 tables-8-10 \
//!     tables-13-15 8.1 8.2 table-17 exec-order approximations \
//!     > crates/bench/tests/reproduce.golden
//! ```

use std::process::Command;

const SECTIONS: [&str; 8] = [
    "tables-1-7",
    "tables-8-10",
    "tables-13-15",
    "8.1",
    "8.2",
    "table-17",
    "exec-order",
    "approximations",
];

#[test]
fn reproduce_sections_match_the_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(SECTIONS)
        .output()
        .expect("run reproduce");
    assert!(out.status.success(), "reproduce failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let want = include_str!("reproduce.golden");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "reproduce output differs from reproduce.golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
