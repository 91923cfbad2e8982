//! In-memory spans of the traced run, written out as JSON lines at the
//! end: one object per span with its name, start, end, parent and
//! job/case ids. Times are seconds since the run started.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `job`, `case`, `record`, `validate`, `replay`, ...
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Sweep job id.
    pub job: Option<u64>,
    /// Case index or simulation label.
    pub case: Option<String>,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
}

/// A span recorder. Span ids are indices into [`Spans::spans`].
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span timed elsewhere; returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        case: Option<String>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            job,
            case,
            start: at(start),
            end: at(end),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        case: Option<String>,
    ) -> usize {
        let now = Instant::now();
        self.add(name, parent, None, case, now, now)
    }

    /// Close a span opened with [`Spans::open`]; returns its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.t0.elapsed().as_secs_f64();
        let s = &mut self.spans[id];
        s.end = end;
        s.end - s.start
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover (children of one parent never overlap here).
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end.min(s.end) - c.start.max(s.start))
            .filter(|d| *d > 0.0)
            .sum();
        (s.end - s.start) - children
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"job\":{},\"case\":{},\
                 \"start\":{},\"end\":{},\"self\":{}}}",
                s.name,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.job.map(|j| j.to_string())),
                opt(s.case.as_ref().map(|c| format!("\"{c}\""))),
                s.start,
                s.end,
                self.self_time(id)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let t = s.t0;
        let ms = |n| t + Duration::from_millis(n);
        let job = s.add("job", None, Some(1), None, ms(0), ms(100));
        s.add("case", Some(job), Some(1), Some("0".into()), ms(10), ms(40));
        s.add("case", Some(job), Some(1), Some("1".into()), ms(40), ms(90));
        assert!((s.self_time(job) - 0.020).abs() < 1e-9);
    }
}
