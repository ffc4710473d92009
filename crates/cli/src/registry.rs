//! The declarative subcommand registry.
//!
//! Every `dprof` subcommand is one [`Subcommand`] row: its name, the synopsis
//! and description lines the `--help` synopsis is generated from, and the
//! parser for its flags.  [`crate::args::parse`] routes the first argument
//! through [`find`]; [`crate::run`] executes the parsed result with one
//! exhaustive `match` on [`Parsed`], so a variant without an executor is a
//! compile error.  Adding a subcommand means one row here, its `Parsed`
//! variant and its arm in `run` — the help synopsis follows from the row.

use crate::args::Parsed;

/// One registered subcommand.
pub struct Subcommand {
    /// The first-argument spelling (`dprof <name> ...`).
    pub name: &'static str,
    /// Synopsis column of the generated help (`dprof serve [OPTIONS]`).
    pub synopsis: &'static str,
    /// Description lines; the first follows the synopsis column, the rest are
    /// printed as indented continuations.
    pub about: &'static [&'static str],
    /// Parses the arguments after the subcommand name.
    pub parse: fn(&[String]) -> Result<Parsed, String>,
}

/// Every subcommand, in help order.  `run` doubles as the default when the
/// first argument is a flag (or absent) — see [`crate::args::parse`].
pub fn registry() -> &'static [Subcommand] {
    const REGISTRY: &[Subcommand] = &[
        Subcommand {
            name: "run",
            synopsis: "dprof [run] [OPTIONS]",
            about: &["profile a workload live"],
            parse: crate::args::parse_run,
        },
        Subcommand {
            name: "record",
            synopsis: "dprof record [OPTIONS]",
            about: &["profile AND capture a replayable .dtrace session"],
            parse: crate::args::parse_record,
        },
        Subcommand {
            name: "replay",
            synopsis: "dprof replay <FILE> [OPTIONS]",
            about: &[
                "re-profile a recorded session (no workload runs;",
                "the report is byte-identical to the recorded run's)",
            ],
            parse: crate::args::parse_replay,
        },
        Subcommand {
            name: "diff",
            synopsis: "dprof diff <A.json> <B.json>",
            about: &[
                "compare two JSON reports: per-type deltas plus a",
                "bottleneck verdict (eliminated / moved / reduced /",
                "unchanged / worsened)",
            ],
            parse: crate::args::parse_diff,
        },
        Subcommand {
            name: "accuracy",
            synopsis: "dprof accuracy [OPTIONS]",
            about: &[
                "profile under sampling, replay the recording as a",
                "fixed:1 census, and report sampling fidelity (share",
                "error, top-K rank agreement, samples spent)",
            ],
            parse: crate::args::parse_accuracy,
        },
        Subcommand {
            name: "whatif",
            synopsis: "dprof whatif <FILE> [OPTIONS]",
            about: &[
                "rank hypothetical fixes by predicted throughput",
                "gain, measured by counterfactual replay of a",
                "recorded .dtrace session",
            ],
            parse: crate::args::parse_whatif,
        },
        Subcommand {
            name: "serve",
            synopsis: "dprof serve [OPTIONS]",
            about: &[
                "run the continuous-profiling collector: producers",
                "stream report shards and .dtrace sessions at it; it",
                "merges per (workload, build) and answers queries",
            ],
            parse: crate::args::parse_serve,
        },
        Subcommand {
            name: "loadgen",
            synopsis: "dprof loadgen [OPTIONS]",
            about: &[
                "drive a collector with concurrent producers and",
                "check every shard is absorbed, every query answered",
            ],
            parse: crate::args::parse_loadgen,
        },
        Subcommand {
            name: "query",
            synopsis: "dprof query <ACTION> [OPTIONS]",
            about: &[
                "push to and query a collector: top types, build-",
                "over-build regressions, Wilson-gated alerts",
            ],
            parse: crate::args::parse_query,
        },
    ];
    REGISTRY
}

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    registry().iter().find(|command| command.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for command in registry() {
            assert!(seen.insert(command.name), "duplicate '{}'", command.name);
            assert!(find(command.name).is_some());
            assert!(!command.about.is_empty(), "'{}' has no about", command.name);
            assert!(
                command.synopsis.starts_with("dprof "),
                "'{}' synopsis '{}' does not start with 'dprof '",
                command.name,
                command.synopsis
            );
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn every_subcommand_is_in_the_generated_help() {
        let usage = crate::args::usage();
        for command in registry() {
            assert!(
                usage.contains(command.synopsis),
                "usage() is missing the '{}' synopsis",
                command.name
            );
        }
    }
}
