//! Argument parsing for the `cdma-bench` CLI (hand-rolled; the workspace
//! builds offline with no clap).

use std::path::PathBuf;

use cdma_core::report::Format;

/// The usage text.
pub const USAGE: &str = "\
cdma-bench — regenerate the paper's tables and figures

USAGE:
  cdma-bench list
  cdma-bench experiments <name|all> [OPTIONS]

OPTIONS:
  --format text|csv|json   output format (default: text)
  --out DIR                write one file per experiment (plus artifacts)
                           into DIR instead of stdout
  --filter KEY=VALUE       restrict scenario axes; repeatable, values
                           comma-separated (net=AlexNet,VGG layout=nchw
                           alg=zv)
  --fast                   build the coarse ratio table (quicker, slightly
                           less precise ratios)

EXAMPLES:
  cdma-bench experiments fig11
  cdma-bench experiments all --format json > all.json
  cdma-bench experiments fig13 --filter net=SqueezeNet --format csv
  cdma-bench experiments fig_multi_gpu --out target/experiments
  cdma-bench experiments all --out target/experiments --format json
";

/// What the user asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the experiment catalogue.
    List,
    /// Run one experiment (or `all`).
    Experiments {
        /// Experiment name, or `all`.
        name: String,
    },
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Output format.
    pub format: Format,
    /// Output directory (`--out`).
    pub out: Option<PathBuf>,
    /// Raw `--filter` specs (parsed later by `ScenarioFilter::parse`).
    pub filters: Vec<String>,
    /// Use the coarse ratio table.
    pub fast: bool,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let command = match it.next().map(String::as_str) {
        Some("list") => match it.next() {
            None => Command::List,
            Some(arg) => return Err(format!("list takes no options, got {arg:?}")),
        },
        Some("experiments") => {
            let name = it
                .next()
                .ok_or("experiments requires a name (or `all`)")?
                .clone();
            if name.starts_with("--") {
                return Err(format!("experiments requires a name before {name:?}"));
            }
            Command::Experiments { name }
        }
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".to_owned()),
    };

    let mut cli = Cli {
        command,
        format: Format::Text,
        out: None,
        filters: Vec::new(),
        fast: false,
    };
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--format" => cli.format = value_for("--format")?.parse()?,
            "--out" => cli.out = Some(PathBuf::from(value_for("--out")?)),
            "--filter" => cli.filters.push(value_for("--filter")?),
            "--fast" => cli.fast = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let cli = parse(&args(&[
            "experiments",
            "all",
            "--format",
            "json",
            "--out",
            "target/exp",
            "--filter",
            "net=AlexNet",
            "--filter",
            "alg=zv",
            "--fast",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Experiments {
                name: "all".to_owned()
            }
        );
        assert_eq!(cli.format, Format::Json);
        assert_eq!(cli.out, Some(PathBuf::from("target/exp")));
        assert_eq!(cli.filters, vec!["net=AlexNet", "alg=zv"]);
        assert!(cli.fast);
    }

    #[test]
    fn defaults_are_text_stdout_all_cores() {
        let cli = parse(&args(&["experiments", "fig11"])).unwrap();
        assert_eq!(cli.format, Format::Text);
        assert_eq!(cli.out, None);
        assert!(cli.filters.is_empty());
        assert!(!cli.fast);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["experiments"])).is_err());
        assert!(parse(&args(&["experiments", "--format"])).is_err());
        assert!(parse(&args(&["experiments", "fig11", "--format"])).is_err());
        assert!(parse(&args(&["experiments", "fig11", "--format", "yaml"])).is_err());
        assert!(parse(&args(&["experiments", "fig11", "--jobs", "two"])).is_err());
        assert!(parse(&args(&["experiments", "fig11", "--bogus"])).is_err());
        assert!(parse(&args(&["list", "--jobs", "2"])).is_err());
        assert!(parse(&args(&["list", "--fast"])).is_err());
        assert!(parse(&args(&["list", "--format", "json"])).is_err());
    }

    #[test]
    fn list_parses_bare() {
        assert_eq!(parse(&args(&["list"])).unwrap().command, Command::List);
    }
}
