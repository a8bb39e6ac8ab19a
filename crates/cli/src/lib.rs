//! `btrace` — the command-line companion tool, as a library.
//!
//! One table, [`COMMANDS`], names every command with its help line, its
//! flags and its handler; the parser and `btrace help` are both generated
//! from it. A handler writes its report, text or `--json` lines rendered
//! from the same value, to the one output sink it is given. Every failure
//! is a [`CliError`], and [`run`] alone maps it to the exit code.

#![deny(missing_docs)]

/// A [`CliError::Failed`] with a `format!` message.
macro_rules! fail {
    ($($arg:tt)*) => {
        $crate::CliError::Failed(format!($($arg)*).into())
    };
}

mod args;
mod commands;

pub use args::{usage, Args, Command, Flag, Kind, Outcome};
pub use commands::COMMANDS;

use std::io::{self, Write};

/// Why a command did not succeed; [`run`] maps each case to its exit code.
#[derive(Debug)]
pub enum CliError {
    /// A bad command line: exit 2, with the usage on stderr.
    Usage(String),
    /// The command could not run: exit 1 with `error: …`. A broken pipe on
    /// the output sink ends the command quietly with exit 0 instead.
    Failed(Box<dyn std::error::Error>),
    /// The command ran and found defects or divergence: exit 1, with this
    /// message (if any) on stderr.
    Found(String),
}

impl<E: std::error::Error + 'static> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Failed(Box::new(e))
    }
}

/// Runs one command line (without the program name), writing the report
/// to `out` and diagnostics to `err`. Returns the process exit code: 0 on
/// success, 1 on failure or found defects, 2 on a bad command line.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    // Writes to `err` are best effort: there is nowhere left to report them.
    let (code, message) = match dispatch(args, out, err) {
        Ok(()) => (0, String::new()),
        Err(CliError::Usage(message)) => (2, format!("error: {message}\n\n{}", usage())),
        Err(CliError::Failed(e)) => match e.downcast_ref::<io::Error>().map(io::Error::kind) {
            Some(io::ErrorKind::BrokenPipe) => (0, String::new()),
            _ => (1, format!("error: {e}\n")),
        },
        Err(CliError::Found(message)) if message.is_empty() => (1, message),
        Err(CliError::Found(message)) => (1, message + "\n"),
    };
    let _ = err.write_all(message.as_bytes());
    code
}

fn dispatch(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let name = args.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        out.write_all(usage().as_bytes())?;
        return Ok(out.flush()?);
    }
    let command = COMMANDS.iter().find(|c| c.name == name);
    let command = command.ok_or_else(|| CliError::Usage(format!("unknown command {name}")))?;
    let parsed = command.parse(&args[1..]).map_err(CliError::Usage)?;
    let ran = (command.run)(&parsed, out, err);
    out.flush()?;
    ran
}
