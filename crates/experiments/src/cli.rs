//! Strict command-line parsing for the examples.
//!
//! Each example names the flags it accepts. Anything else — an unknown
//! or misspelt flag, a missing value, a value that does not parse — is
//! a usage error, so a typo can never silently fall back to the
//! minutes-long full-scale run.

use std::path::Path;

use crate::sweep::SweepOptions;
use crate::Scale;

/// An example's parsed command line. A flag takes its value as the next
/// argument or after `=` (`--threads 4` or `--threads=4`).
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--quick`: the reduced-scale variant.
    pub quick: bool,
    /// `--threads N`: sweep worker threads (1, serial, by default).
    pub threads: usize,
    /// `--compare-threads N`: run serially and on N workers, and assert
    /// the outputs are byte-identical.
    pub compare_threads: Option<usize>,
    /// `--cpu-scale`: sweep the machine size instead of the load.
    pub cpu_scale: bool,
    /// `--max-cpus N`: truncate the machine-size ladder.
    pub max_cpus: Option<usize>,
    /// `--out FILE`: where to write the run's artifact.
    pub out: Option<String>,
    /// `--cpus N`: the machine's CPU count.
    pub cpus: Option<usize>,
}

impl Args {
    /// Parses `args` (without the program name), accepting only the
    /// flags listed in `accepted`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            quick: false,
            threads: 1,
            compare_threads: None,
            cpu_scale: false,
            max_cpus: None,
            out: None,
            cpus: None,
        };
        let mut tokens = args.iter().flat_map(|a| match a.split_once('=') {
            Some((flag, value)) if a.starts_with("--") => vec![flag, value],
            _ => vec![a.as_str()],
        });
        while let Some(flag) = tokens.next() {
            if !accepted.contains(&flag) {
                return Err(format!("unknown flag {flag}"));
            }
            let mut value = || tokens.next().ok_or(format!("{flag} needs a value"));
            let mut number = || -> Result<usize, String> {
                let v = value()?;
                v.parse().map_err(|e| format!("{flag} {v}: {e}"))
            };
            match flag {
                "--quick" => parsed.quick = true,
                "--cpu-scale" => parsed.cpu_scale = true,
                "--threads" => parsed.threads = number()?,
                "--compare-threads" => parsed.compare_threads = Some(number()?),
                "--max-cpus" => parsed.max_cpus = Some(number()?),
                "--cpus" => parsed.cpus = Some(number()?),
                "--out" => parsed.out = Some(value()?.to_string()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process's command line like [`Args::parse`]. On an
    /// error it prints the error and a usage line to standard error and
    /// exits with status 2.
    pub fn from_env(accepted: &[&str]) -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        Args::parse(&args, accepted).unwrap_or_else(|e| {
            let program = Path::new(&program).file_name().unwrap_or_default();
            let flags: Vec<String> = accepted
                .iter()
                .map(|&f| match f {
                    "--quick" | "--cpu-scale" => format!("[{f}]"),
                    "--out" => format!("[{f} FILE]"),
                    _ => format!("[{f} N]"),
                })
                .collect();
            eprintln!(
                "{e}\nusage: {} {}",
                program.to_string_lossy(),
                flags.join(" ")
            );
            std::process::exit(2)
        })
    }

    /// [`Scale::Quick`] under `--quick`, else [`Scale::Full`].
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Sweep options with `--threads` workers.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions::new().threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_takes_both_forms_and_rejects_bad_flags() {
        let parse = |v: &[&str]| {
            let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            Args::parse(&args, &["--quick", "--threads", "--out"])
        };
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, 4);
        assert_eq!(parse(&["--threads=8"]).unwrap().threads, 8);
        let quick = parse(&["--quick"]).unwrap();
        assert!(quick.quick);
        assert_eq!(quick.threads, 1);
        assert_eq!(quick.scale(), Scale::Quick);
        assert_eq!(parse(&[]).unwrap().scale(), Scale::Full);
        let out = parse(&["--out", "a=b.jsonl"]).unwrap().out;
        assert_eq!(out.as_deref(), Some("a=b.jsonl"));
        for bad in [
            &["--threads", "bogus"][..],
            &["--threads"],
            &["--threads="],
            &["--quik"],
            &["--quick=1"],
            &["quick"],
            // Accepted by another example, not by this one.
            &["--cpus", "4"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
