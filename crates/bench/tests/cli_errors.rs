//! The figure binaries honour the one-line error contract: a bad option
//! (including an instruction budget of 0) or a failed `--json` write
//! exits with status 1 and a single `<bin>: <message>` stderr line, never
//! a panic backtrace.

use std::process::Command;

fn run_fig6(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(args)
        .output()
        .expect("fig6 runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_options_exit_1_with_one_stderr_line() {
    for (args, message) in [
        (&["--frobnicate"][..], "fig6: unknown option --frobnicate"),
        (&["--insts", "x"][..], "fig6: --insts needs a number"),
        (&["--insts", "0"][..], "fig6: --insts must be positive"),
    ] {
        let (code, stderr) = run_fig6(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn failed_json_write_exits_1_with_one_error_line() {
    let missing_dir = std::env::temp_dir().join("plru-bench-cli-errors-no-such-dir");
    assert!(!missing_dir.exists(), "{}", missing_dir.display());
    let path = missing_dir.join("out.json");
    let (code, stderr) = run_fig6(&[
        "--quick",
        "--insts",
        "1000",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("fig6: writing "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
