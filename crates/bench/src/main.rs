//! The `cdma-bench` CLI: one entry point regenerating every table and
//! figure of the paper through the declarative scenario API. Replaces the
//! 18 one-binary-per-figure targets (and `all_experiments`' subprocess
//! launcher — `all` now runs in-process over one shared [`Context`], so
//! intermediates are computed once).
//!
//! Everything the CLI prints to stdout goes through one [`Write`] handle.
//! A reader that goes away early (`cdma-bench list | head -1`) ends the
//! output cleanly: exit 0, nothing on stderr. Usage, errors and progress
//! go to stderr through [`note`], which ignores a failed write: a closed
//! stderr changes no exit code.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use cdma_bench::cli::{self, Cli, Command};
use cdma_core::experiment;
use cdma_core::report::{self, Format};
use cdma_core::scenario::{Context, Runner, ScenarioFilter};

/// Why a run stopped before the end.
#[derive(Debug)]
enum Stop {
    /// Stdout's reader closed the pipe: a clean end of output.
    Closed,
    /// A failure, reported on stderr with exit code 2.
    Failed(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Failed(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Failed(format!("cannot write to stdout: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let err = &mut io::stderr();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            note(err, format_args!("error: {e}\n\n{}\n", cli::USAGE));
            return ExitCode::from(2);
        }
    };
    match run(&cli, &mut io::stdout().lock(), err) {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Failed(e)) => {
            note(err, format_args!("error: {e}\n"));
            ExitCode::from(2)
        }
    }
}

/// Writes `text` to stderr, best effort: stderr only ever carries notes
/// for a person, so a write that fails is dropped, not a panic.
fn note(err: &mut impl Write, text: fmt::Arguments) {
    let _ = err.write_fmt(text);
}

fn run(cli: &Cli, out: &mut impl Write, err: &mut impl Write) -> Result<(), Stop> {
    match &cli.command {
        Command::List => {
            for e in experiment::CATALOGUE {
                writeln!(out, "{:<16} {}", e.name, e.title)?;
            }
        }
        Command::Experiments { name } => run_experiments(name, cli, out, err)?,
    }
    out.flush()?;
    Ok(())
}

fn run_experiments(
    name: &str,
    cli: &Cli,
    out: &mut impl Write,
    err: &mut impl Write,
) -> Result<(), Stop> {
    let names: Vec<&'static str> = if name == "all" {
        experiment::names()
    } else {
        let known = experiment::CATALOGUE
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| {
                format!(
                    "unknown experiment {name:?}; available: all, {}",
                    experiment::names().join(", ")
                )
            })?;
        vec![known.name]
    };
    let filter = ScenarioFilter::parse(&cli.filters)?;
    let ctx = if cli.fast {
        Context::fast()
    } else {
        Context::new()
    };
    if let Some(dir) = &cli.out {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let mut json_objects = Vec::new();
    for n in &names {
        // One line per experiment, finished with its wall seconds.
        note(err, format_args!("[cdma-bench] running {n} … "));
        let started = Instant::now();
        let report =
            experiment::run(n, &ctx, &Runner, &filter).expect("catalogue names always dispatch");
        note(
            err,
            format_args!("{:.3} s\n", started.elapsed().as_secs_f64()),
        );
        match &cli.out {
            Some(dir) => {
                let path = dir.join(format!("{n}.{}", cli.format.extension()));
                fs::write(&path, report::render(report.as_ref(), cli.format))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let artifacts = report.artifacts();
                if !artifacts.is_empty() {
                    let adir = dir.join(n);
                    fs::create_dir_all(&adir)
                        .map_err(|e| format!("cannot create {}: {e}", adir.display()))?;
                    for artifact in artifacts {
                        let apath = adir.join(&artifact.name);
                        fs::write(&apath, &artifact.bytes)
                            .map_err(|e| format!("cannot write {}: {e}", apath.display()))?;
                    }
                }
            }
            None => match cli.format {
                // JSON accumulates so `all` prints one valid array.
                Format::Json => json_objects.push(report::render_json(report.as_ref())),
                f => writeln!(out, "{}", report::render(report.as_ref(), f))?,
            },
        }
    }
    if cli.out.is_none() && cli.format == Format::Json {
        if names.len() == 1 {
            writeln!(out, "{}", json_objects[0])?;
        } else {
            writeln!(out, "[{}]", json_objects.join(",\n"))?;
        }
    }
    let stats = ctx.stats();
    note(
        err,
        format_args!(
            "[cdma-bench] done: {} experiment(s); context cache: {} hits, {} misses\n",
            names.len(),
            stats.hits,
            stats.misses
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stdout whose reader has gone: every write fails with `BrokenPipe`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    fn cli(args: &[&str]) -> Cli {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        cli::parse(&args).unwrap()
    }

    #[test]
    fn a_closed_pipe_is_a_clean_end_of_output() {
        for args in [
            &["list"][..],
            &["experiments", "fig04", "--fast"],
            &["experiments", "fig04", "--fast", "--format", "json"],
        ] {
            let stop = run(&cli(args), &mut ClosedPipe, &mut io::sink()).unwrap_err();
            assert!(matches!(stop, Stop::Closed), "{args:?}: {stop:?}");
        }
    }

    #[test]
    fn other_write_errors_still_fail() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let stop = run(&cli(&["list"]), &mut Full, &mut io::sink()).unwrap_err();
        assert!(matches!(stop, Stop::Failed(_)), "{stop:?}");
    }

    #[test]
    fn a_closed_stderr_changes_nothing() {
        // Progress and the cache line go nowhere; stdout is the same.
        let args = &["experiments", "fig04", "--fast"];
        let (mut out, mut reference) = (Vec::new(), Vec::new());
        run(&cli(args), &mut out, &mut ClosedPipe).unwrap();
        run(&cli(args), &mut reference, &mut io::sink()).unwrap();
        assert_eq!(out, reference);
        // As do usage and errors.
        let stop = run(&cli(&["experiments", "fig99"]), &mut out, &mut ClosedPipe).unwrap_err();
        let Stop::Failed(e) = stop else {
            panic!("{stop:?}")
        };
        note(
            &mut ClosedPipe,
            format_args!("error: {e}\n\n{}\n", cli::USAGE),
        );
    }

    #[test]
    fn progress_gives_each_experiments_seconds() {
        let mut err = Vec::new();
        run(
            &cli(&["experiments", "fig04", "--fast"]),
            &mut io::sink(),
            &mut err,
        )
        .unwrap();
        let err = String::from_utf8(err).unwrap();
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{err}");
        let seconds = lines[0]
            .strip_prefix("[cdma-bench] running fig04 … ")
            .and_then(|rest| rest.strip_suffix(" s"))
            .unwrap_or_else(|| panic!("{err}"));
        assert!(seconds.parse::<f64>().is_ok_and(|s| s >= 0.0), "{err}");
        assert!(lines[1].starts_with("[cdma-bench] done: 1 experiment(s); context cache: "));
    }

    #[test]
    fn list_prints_the_catalogue_in_order() {
        let mut out = Vec::new();
        run(&cli(&["list"]), &mut out, &mut io::sink()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let names: Vec<&str> = text.lines().map(|l| l.split(' ').next().unwrap()).collect();
        assert_eq!(names, experiment::names());
    }
}
