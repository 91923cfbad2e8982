//! Integration tests of the `sweepd` daemon and `sweep --remote` client
//! through the real binaries: remote stdout must be byte-identical to a
//! local run, status/shutdown must work, and daemon management commands
//! must fail usably without a daemon.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

fn sweep_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn sweepd_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweepd"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plru-sweepd-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon child killed on drop so a failing assertion can't leak it.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `sweepd` and wait for its socket to accept connections.
fn start_daemon(dir: &Path, extra: &[&str]) -> (DaemonGuard, PathBuf) {
    let socket = dir.join("sweepd.sock");
    let child = sweepd_bin()
        .args([
            "--socket",
            socket.to_str().unwrap(),
            "--threads",
            "2",
            "--journal-dir",
            dir.join("journals").to_str().unwrap(),
        ])
        .args(extra)
        .spawn()
        .expect("sweepd spawns");
    let guard = DaemonGuard(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
            return (guard, socket);
        }
        assert!(Instant::now() < deadline, "sweepd never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(socket: &Path) {
    let out = sweep_bin()
        .args(["--remote", socket.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert!(out.status.success(), "shutdown failed: {}", stderr(&out));
}

#[test]
fn remote_stdout_is_byte_identical_to_local() {
    let dir = scratch("eq");
    let local = sweep_bin().arg("scenarios/smoke_2t.json").output().unwrap();
    assert!(local.status.success(), "local sweep: {}", stderr(&local));

    let (_daemon, socket) = start_daemon(&dir, &[]);
    let remote = sweep_bin()
        .args([
            "--remote",
            socket.to_str().unwrap(),
            "scenarios/smoke_2t.json",
            "--json",
            dir.join("remote.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(remote.status.success(), "remote sweep: {}", stderr(&remote));
    assert_eq!(
        stdout(&remote),
        stdout(&local),
        "remote table must match the local run byte for byte"
    );

    // The daemon journaled the job and reports it done with cold-memo
    // misses; status renders both.
    let status = sweep_bin()
        .args(["--remote", socket.to_str().unwrap(), "--status"])
        .output()
        .unwrap();
    assert!(status.status.success(), "{}", stderr(&status));
    let text = stdout(&status);
    assert!(text.contains("workers: 2"), "{text}");
    assert!(text.contains("smoke-2t"), "{text}");
    assert!(text.contains("done"), "{text}");
    assert!(
        dir.join("journals").join("smoke-2t-job1.journal").exists(),
        "job journal written"
    );

    // `--results` re-fetches the same report from the daemon's memory.
    let results = sweep_bin()
        .args(["--remote", socket.to_str().unwrap(), "--results", "1"])
        .output()
        .unwrap();
    assert!(results.status.success(), "{}", stderr(&results));
    assert_eq!(stdout(&results), stdout(&local));

    shutdown(&socket);
    assert!(
        !socket.exists() || {
            std::thread::sleep(Duration::from_millis(500));
            !socket.exists()
        },
        "socket file cleared on shutdown"
    );
}

#[test]
fn resume_completes_a_truncated_journal_through_the_cli() {
    let dir = scratch("resume");
    let local = sweep_bin()
        .args([
            "scenarios/smoke_2t.json",
            "--json",
            dir.join("local.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(local.status.success(), "{}", stderr(&local));

    // Run the job once so the journal exists, then shut the daemon down
    // and truncate the journal as if it had died three cases in.
    let (_daemon, socket) = start_daemon(&dir, &[]);
    let run = sweep_bin()
        .args([
            "--remote",
            socket.to_str().unwrap(),
            "scenarios/smoke_2t.json",
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", stderr(&run));
    shutdown(&socket);
    std::thread::sleep(Duration::from_millis(300));

    let journal = dir.join("journals").join("smoke-2t-job1.journal");
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept: Vec<&str> = text.lines().take(4).collect();
    assert!(kept.len() == 4, "expected header + >=3 case lines");
    std::fs::write(&journal, format!("{}\n", kept.join("\n"))).unwrap();

    // A fresh daemon resumes it; the report matches local byte for byte.
    let dir2 = scratch("resume2");
    let socket2 = dir2.join("sweepd.sock");
    let child = sweepd_bin()
        .args([
            "--socket",
            socket2.to_str().unwrap(),
            "--threads",
            "2",
            "--journal-dir",
            dir2.join("journals").to_str().unwrap(),
            "--resume",
            journal.to_str().unwrap(),
        ])
        .spawn()
        .unwrap();
    let _guard = DaemonGuard(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    while std::os::unix::net::UnixStream::connect(&socket2).is_err() {
        assert!(Instant::now() < deadline, "resuming sweepd never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
    let results = sweep_bin()
        .args([
            "--remote",
            socket2.to_str().unwrap(),
            "--results",
            "1",
            "--wait",
            "--json",
            dir2.join("resumed.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(results.status.success(), "{}", stderr(&results));
    assert_eq!(stdout(&results), stdout(&local));
    assert_eq!(
        std::fs::read_to_string(dir2.join("resumed.json")).unwrap(),
        std::fs::read_to_string(dir.join("local.json")).unwrap(),
        "resumed JSON report must match the uninterrupted local one"
    );
    shutdown(&socket2);
}

#[test]
fn remote_mode_fails_usably_without_a_daemon() {
    let dir = scratch("nodaemon");
    let socket = dir.join("missing.sock");
    let out = sweep_bin()
        .args(["--remote", socket.to_str().unwrap(), "--status"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.starts_with("sweep: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn management_flags_validate_their_usage() {
    // Management commands without --remote are usage errors (exit 2).
    let out = sweep_bin().args(["--status"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // --threads makes no sense against a daemon.
    let out = sweep_bin()
        .args(["--remote", "/tmp/x.sock", "--threads", "4", "spec.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // sweepd with no socket is a usage error.
    let out = sweepd_bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn threads_above_the_cap_fail_before_any_worker_starts() {
    let dir = scratch("threads-cap");
    let socket = dir.join("sweepd.sock");
    let threads = plru_repro::scenario::pool::MAX_POOL_WORKERS + 1;
    let out = sweepd_bin()
        .args(["--socket", socket.to_str().unwrap(), "--no-journal"])
        .args(["--threads", &threads.to_string()])
        .output()
        .unwrap();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(
        err,
        format!(
            "sweepd: {threads} worker threads requested (cap {})\n",
            threads - 1
        )
    );
    assert!(!socket.exists(), "a refused daemon binds no socket");
    let _ = std::fs::remove_dir_all(&dir);
}
