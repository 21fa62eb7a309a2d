//! The `ccmatic` binary rejects what it does not read: an unknown flag, a
//! flag that no longer exists, or a missing subcommand prints the usage
//! text and exits with code 2 — apart from exit 1 (a DNF or REFUTED run)
//! and a panic (101). The sweep subcommand prints one table whether its
//! points run warm-started or cold.

use std::process::{Command, Output};

fn output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccmatic"))
        .args(args)
        .output()
        .expect("the ccmatic binary runs")
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = output(args);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    for args in [
        &["synth", "--no-such-flag"][..],
        &["synth", "--threads", "2"][..],
        &["verify", "--cca", "1,-1,0,0,1", "--seed", "3"][..],
        &["verify", "--cca", "1,-1,0,0,1", "--no-theory-sync"][..],
        &["synth", "--no-region-pruning"][..],
        &[][..],
        &["no-such-subcommand"][..],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "`ccmatic {}` must exit 2", args.join(" "));
        assert!(stderr.contains("usage: ccmatic"), "`ccmatic {}` must print usage", args.join(" "));
    }
}

#[test]
fn known_flags_still_run() {
    // A value that looks like a flag is consumed by its flag, and every
    // switch the usage text lists is accepted.
    let (code, _) = run(&["verify", "--cca", "1,-1,0,0,1", "--certify", "--stats"]);
    assert_eq!(code, Some(0), "RoCC verifies");
    let (code, _) = run(&["verify", "--cca", "0,0,0,0,1"]);
    assert_eq!(code, Some(1), "a refuted candidate exits 1, not 2");
}

#[test]
fn sweep_prints_the_same_table_warm_and_cold() {
    let expected = "| util ≥ | delay ≤ | solutions | complete |\n\
                    |---|---|---|---|\n\
                    | 1/2 | 8 | 3 | yes |\n\
                    | 1/2 | 4 | 1 | yes |\n\
                    | 1/2 | 2 | 0 | yes |\n\
                    budget exceeded: false\n";
    let sweep = ["sweep", "--lookback", "2", "--horizon", "5", "--values", "8,4,2"];
    for extra in [&[][..], &["--no-warm-start"][..]] {
        let out = output(&[&sweep[..], extra].concat());
        let label = format!("`ccmatic {} {}`", sweep.join(" "), extra.join(" "));
        assert_eq!(out.status.code(), Some(0), "{label} must exit 0");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{label} table");
    }
}
