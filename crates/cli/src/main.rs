//! `btrace` — the command-line companion tool; `btrace help` lists the
//! commands and their flags.

use std::io::{stderr, stdout};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = btrace_cli::run(&args, &mut stdout().lock(), &mut stderr().lock());
    ExitCode::from(code as u8)
}
