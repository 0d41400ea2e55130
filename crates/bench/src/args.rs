//! Minimal shared CLI: `[<experiment>] [--full] [--runs N] [--seed S]`.

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
    /// Parse from an explicit iterator (testable): the options, and the
    /// positional (an experiment name, `all` or `list`) when one is given.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<(Option<String>, Self), String> {
        let mut out = ExpArgs::default();
        let mut positional = None;
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
                "--help" | "-h" => return Err("help requested".to_string()),
                other if other.starts_with('-') || positional.is_some() => {
                    return Err(format!("unknown argument `{other}`"))
                }
                _ => positional = Some(a),
            }
        }
        Ok((positional, out))
    }

    /// Parse the process arguments of a binary that takes no positional;
    /// print the error and exit on a bad command line.
    pub fn parse() -> Self {
        let parsed = Self::parse_from(std::env::args().skip(1)).and_then(|parsed| match parsed {
            (None, args) => Ok(args),
            (Some(extra), _) => Err(format!("unknown argument `{extra}`")),
        });
        parsed.unwrap_or_else(|msg| {
            eprintln!("{msg}\nusage: [--full] [--runs N] [--seed S]");
            std::process::exit(2)
        })
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

    fn parse(v: &[&str]) -> Result<(Option<String>, ExpArgs), String> {
        ExpArgs::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let (positional, a) = parse(&[]).unwrap();
        assert_eq!(positional, None);
        assert_eq!(a, ExpArgs::default());
        assert_eq!(a.reps(5, 100), 5);
        assert_eq!(parse(&["all"]).unwrap(), (Some("all".into()), a));
    }

    #[test]
    fn full_and_overrides() {
        let (positional, a) = parse(&["--full", "fig6_lu_zones", "--seed", "7"]).unwrap();
        assert_eq!(positional.as_deref(), Some("fig6_lu_zones"));
        assert!(a.full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.reps(5, 100), 100);
        let (_, b) = parse(&["--runs", "17"]).unwrap();
        assert_eq!(b.reps(5, 100), 17);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "x"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["all", "list"]).is_err());
    }
}
