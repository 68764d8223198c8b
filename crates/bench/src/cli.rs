//! Minimal command-line options shared by the table/figure binaries.

/// Options accepted by every experiment binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Uniform scale applied to every benchmark's AST-node target.
    pub scale: f64,
    /// Skip benchmarks whose scaled size exceeds this.
    pub max_ast: usize,
    /// Timing repetitions (best-of, like the paper's best of three).
    pub reps: usize,
    /// Work limit for the unbounded `Plain` runs.
    pub limit: u64,
    /// Restrict to benchmarks whose name contains this string.
    pub only: Option<String>,
    /// Worker threads for `bane-par`'s least-solution pass and query pool
    /// (1 = sequential paths).
    pub threads: usize,
}

impl Options {
    /// Defaults used when a binary is run without arguments. `plain_heavy`
    /// binaries (those running `SF-Plain`/`IF-Plain`) get a smaller scale so
    /// the whole suite finishes in minutes.
    pub fn defaults(plain_heavy: bool) -> Options {
        Options {
            scale: if plain_heavy { 0.2 } else { 1.0 },
            max_ast: usize::MAX,
            reps: 1,
            limit: 200_000_000,
            only: None,
            threads: 1,
        }
    }

    /// Parses `args` (without the program name) over the given defaults.
    ///
    /// Recognized flags: `--scale <f>`, `--max-ast <n>`, `--reps <n>`,
    /// `--limit <n>`, `--only <substring>`, `--threads <n>`, `--fast`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or malformed values.
    pub fn parse(mut self, args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().ok_or_else(|| format!("{name} expects a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    self.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                }
                "--max-ast" => {
                    self.max_ast = value("--max-ast")?
                        .parse()
                        .map_err(|e| format!("--max-ast: {e}"))?;
                }
                "--reps" => {
                    self.reps = value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?;
                }
                "--limit" => {
                    self.limit = value("--limit")?
                        .parse()
                        .map_err(|e| format!("--limit: {e}"))?;
                }
                "--only" => {
                    self.only = Some(value("--only")?);
                }
                "--threads" => {
                    self.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--fast" => {
                    self.scale = (self.scale * 0.5).min(0.1);
                    self.max_ast = self.max_ast.min(60_000);
                }
                "--help" | "-h" => {
                    return Err(
                        "options: --scale <f> --max-ast <n> --reps <n> --limit <n> \
                         --only <substr> --threads <n> --fast"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        if self.scale <= 0.0 {
            return Err("--scale must be positive".to_string());
        }
        if self.threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        Ok(self)
    }

    /// Parses `std::env::args()`, exiting with a message on error.
    pub fn from_env(plain_heavy: bool) -> Options {
        match Options::defaults(plain_heavy).parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The benchmarks selected by these options.
    pub fn selected(
        &self,
    ) -> Vec<(&'static bane_synth::SuiteEntry, bane_cfront::ast::Program)> {
        bane_synth::suite(self.scale, self.max_ast)
            .into_iter()
            .filter(|(e, _)| {
                self.only.as_ref().is_none_or(|needle| e.name.contains(needle.as_str()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_flags() {
        let o = Options::defaults(false)
            .parse(args(
                "--scale 0.5 --max-ast 9000 --reps 3 --limit 1000 --only flex \
                 --threads 4",
            ))
            .unwrap();
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.max_ast, 9000);
        assert_eq!(o.reps, 3);
        assert_eq!(o.limit, 1000);
        assert_eq!(o.only.as_deref(), Some("flex"));
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn threads_defaults_to_sequential() {
        assert_eq!(Options::defaults(false).threads, 1);
        assert_eq!(Options::defaults(true).threads, 1);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Options::defaults(false).parse(args("--bogus")).is_err());
        assert!(Options::defaults(false).parse(args("--scale abc")).is_err());
        assert!(Options::defaults(false).parse(args("--scale")).is_err());
        assert!(Options::defaults(false).parse(args("--scale 0")).is_err());
        assert!(Options::defaults(false).parse(args("--threads 0")).is_err());
        assert!(Options::defaults(false).parse(args("--threads x")).is_err());
        assert!(Options::defaults(false).parse(args("--batch-rounds 8")).is_err());
        assert!(Options::defaults(false).parse(args("--solset bitmap")).is_err());
    }

    #[test]
    fn plain_heavy_defaults_are_smaller() {
        let heavy = Options::defaults(true);
        let light = Options::defaults(false);
        assert!(heavy.scale < light.scale);
    }

    #[test]
    fn selection_respects_only_and_max() {
        let o = Options { only: Some("flex".into()), ..Options::defaults(false) };
        let selected = o.selected();
        assert_eq!(selected.len(), 1);
        assert!(selected[0].0.name.contains("flex"));
        let o = Options { scale: 1.0, max_ast: 1_000, ..Options::defaults(false) };
        assert!(o.selected().iter().all(|(e, _)| e.ast_nodes <= 1_000));
    }
}
