//! Minimal shared CLI for the experiment binaries.

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Run the full-scale version (paper-sized sweeps) instead of the
    /// scaled-down default.
    pub full: bool,
    /// Override the number of repetitions/scheduler runs.
    pub runs: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            full: false,
            runs: None,
            seed: 42,
        }
    }
}

impl ExpArgs {
    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--runs" => {
                    let v = it.next().ok_or("--runs needs a value")?;
                    out.runs = Some(v.parse().map_err(|_| format!("bad --runs value `{v}`"))?);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
                }
                "--help" | "-h" => {
                    return Err("usage: <exp> [--full] [--runs N] [--seed S]".to_string())
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments; print usage and exit on error.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The effective repetition count: `runs` override, else `full_n` when
    /// `--full`, else `default_n`.
    pub fn reps(&self, default_n: usize, full_n: usize) -> usize {
        self.runs
            .unwrap_or(if self.full { full_n } else { default_n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ExpArgs::default());
        assert_eq!(a.reps(5, 100), 5);
    }

    #[test]
    fn full_and_overrides() {
        let a = parse(&["--full", "--seed", "7"]).unwrap();
        assert!(a.full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.reps(5, 100), 100);
        let b = parse(&["--runs", "17"]).unwrap();
        assert_eq!(b.reps(5, 100), 17);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "x"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
