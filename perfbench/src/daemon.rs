//! A `sweepd` child process and a closed-loop client that speaks its
//! framed protocol through the library's public `service` functions,
//! timing each phase of a job and counting the frames it exchanges.

use plru_repro::scenario::{ScenarioSpec, SweepReport};
use plru_repro::service::{self, read_msg, write_msg, DaemonStatus, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

/// A running `sweepd --threads 1` with its journal on.
pub struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    /// The socket, as a path relative to the benchmark's directory.
    pub socket: PathBuf,
    /// Seconds from spawning the process to its `listening` line.
    pub ready_s: f64,
}

impl Daemon {
    /// Start a daemon whose socket and journals live in `dir`.
    pub fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--socket", "sweepd.sock", "--threads", "1"])
            .args(["--journal-dir", "journals"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let ready_s = t.elapsed().as_secs_f64();
        let daemon = Daemon {
            child,
            stderr,
            socket: dir.join("sweepd.sock"),
            ready_s,
        };
        match read {
            Ok(_) if line.starts_with("sweepd: listening on") => Ok(daemon),
            _ => Err(format!("sweepd did not come up: {}", line.trim())),
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's status response.
    pub fn status(&self) -> Result<DaemonStatus, String> {
        match service::request(&self.socket, &Request::Status { job: None }) {
            Ok(Response::Status(s)) => Ok(s),
            Ok(other) => Err(format!("unexpected status reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Ask the daemon to stop and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        service::request(&self.socket, &Request::Shutdown).map_err(|e| e.to_string())?;
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("sweepd exited with {status}: {}", rest.trim()))
        }
    }
}

/// A daemon not shut down is killed.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A stream wrapper counting the bytes that cross it.
struct Counted {
    inner: UnixStream,
    bytes: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One submitted job as the client saw it.
pub struct JobRun {
    /// Daemon job id.
    pub job: u64,
    /// Seconds from sending `submit` to reading `submitted`.
    pub submit_s: f64,
    /// When `submitted` arrived.
    pub submitted_at: Instant,
    /// When `done` arrived (equal to `submitted_at` without watching).
    pub done_at: Instant,
    /// Completion time of every case, by case index, in arrival order.
    pub cases: Vec<(usize, Instant)>,
    /// The finished report (only when watching).
    pub report: Option<SweepReport>,
    /// Frames sent and received.
    pub frames: u64,
    /// Bytes sent and received, length prefixes included.
    pub bytes: u64,
}

impl JobRun {
    /// Seconds from `submitted` to `done`.
    pub fn run_s(&self) -> f64 {
        (self.done_at - self.submitted_at).as_secs_f64()
    }
}

/// Submit `spec`; with `watch`, stream it to completion.
pub fn submit(socket: &Path, spec: &ScenarioSpec, watch: bool) -> Result<JobRun, String> {
    let inner = UnixStream::connect(socket).map_err(|e| format!("connecting: {e}"))?;
    let mut s = Counted { inner, bytes: 0 };
    let req = Request::Submit {
        spec: Box::new(spec.clone()),
        watch,
    };
    let t = Instant::now();
    write_msg(&mut s, &req).map_err(|e| e.to_string())?;
    let mut frames = 1;
    let mut next = |s: &mut Counted| -> Result<Response, String> {
        frames += 1;
        match read_msg::<Response>(s) {
            Ok(Some(Response::Error { code, message })) => Err(format!("{code}: {message}")),
            Ok(Some(r)) => Ok(r),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    };
    let job = match next(&mut s)? {
        Response::Submitted { job, .. } => job,
        other => return Err(format!("expected submitted, got {other:?}")),
    };
    let submitted_at = Instant::now();
    let mut run = JobRun {
        job,
        submit_s: (submitted_at - t).as_secs_f64(),
        submitted_at,
        done_at: submitted_at,
        cases: Vec::new(),
        report: None,
        frames: 0,
        bytes: 0,
    };
    while watch && run.report.is_none() {
        match next(&mut s)? {
            Response::CaseDone { index, .. } => run.cases.push((index, Instant::now())),
            Response::Done { report, .. } => {
                run.done_at = Instant::now();
                run.report = Some(*report);
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    run.frames = frames;
    run.bytes = s.bytes;
    Ok(run)
}
