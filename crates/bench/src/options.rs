//! Minimal command-line options shared by all experiment binaries.

/// Options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Committed instructions per thread (paper: 100 M; default scaled to
    /// 1 M for laptop runtimes).
    pub insts: u64,
    /// Quick mode: fewer instructions and a workload subset, for smoke
    /// tests.
    pub quick: bool,
    /// Optional path to dump raw results as JSON.
    pub json: Option<String>,
    /// Base seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            insts: 1_000_000,
            quick: false,
            json: None,
            seed: 0xC0FFEE,
        }
    }
}

/// Instruction budget `--quick` caps `--insts` at.
const QUICK_INSTS: u64 = 300_000;

impl Options {
    /// Parse from `std::env::args`. Exits the process on `--help`, and
    /// with status 1 and a one-line `<bin>: <message>` on bad options.
    pub fn from_args() -> Options {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(&e))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--insts" => {
                    o.insts = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--insts needs a number")?;
                }
                "--seed" => {
                    o.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs a number")?;
                }
                "--json" => {
                    o.json = Some(it.next().ok_or("--json needs a path")?);
                }
                "--quick" => o.quick = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options:\n  --insts N   committed instructions per thread (default 1000000)\n  --seed N    base seed (default 0xC0FFEE)\n  --quick     smoke-test mode (fewer instructions, subset of workloads)\n  --json P    dump raw results as JSON to path P"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option {other} (try --help)")),
            }
        }
        if o.insts == 0 {
            return Err("--insts must be positive".into());
        }
        if o.quick {
            o.insts = o.insts.min(QUICK_INSTS);
        }
        Ok(o)
    }

    /// Write results as pretty JSON if `--json` was given; a failed write
    /// exits like a bad option.
    pub fn maybe_dump_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let s = serde_json::to_string_pretty(value).expect("serialisable results");
            std::fs::write(path, s).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }
}

/// Report `msg` as `<bin>: <msg>` on one stderr line and exit 1.
fn fail(msg: &str) -> ! {
    let arg0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("plru-bench");
    eprintln!("{bin}: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.insts, 1_000_000);
        assert!(!o.quick);
        assert!(o.json.is_none());
    }

    #[test]
    fn insts_and_seed() {
        let o = parse(&["--insts", "5000000", "--seed", "42"]).unwrap();
        assert_eq!(o.insts, 5_000_000);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn quick_caps_insts() {
        let o = parse(&["--quick"]).unwrap();
        assert!(o.quick);
        assert_eq!(o.insts, 300_000);
    }

    #[test]
    fn quick_caps_insts_in_either_flag_order() {
        for args in [
            ["--quick", "--insts", "5000000"],
            ["--insts", "5000000", "--quick"],
        ] {
            let o = parse(&args).unwrap();
            assert_eq!(o.insts, 300_000, "{args:?}");
        }
        let small = parse(&["--quick", "--insts", "20000"]).unwrap();
        assert_eq!(small.insts, 20_000, "the cap only lowers the budget");
    }

    #[test]
    fn json_path() {
        let o = parse(&["--json", "/tmp/out.json"]).unwrap();
        assert_eq!(o.json.as_deref(), Some("/tmp/out.json"));
    }

    #[test]
    fn bad_options_are_errors() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert_eq!(err, "unknown option --frobnicate (try --help)");
        assert_eq!(
            parse(&["--insts", "x"]).unwrap_err(),
            "--insts needs a number"
        );
        assert_eq!(
            parse(&["--quick", "--insts", "0"]).unwrap_err(),
            "--insts must be positive"
        );
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a number");
        assert_eq!(parse(&["--json"]).unwrap_err(), "--json needs a path");
    }
}
