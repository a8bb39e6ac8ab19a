//! The command table's vocabulary: flag kinds, one generic parser, and the
//! usage text, both generated from [`COMMANDS`].

use crate::{CliError, COMMANDS};
use std::io::Write;

/// How a flag's value is read and checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Takes no value.
    Switch,
    /// A count > 0.
    Count,
    /// Milliseconds > 0.
    Ms,
    /// Any `u64`.
    U64,
    /// Parts per million, at most 1 000 000.
    Ppm,
    /// A fraction in (0, 1].
    Scale,
    /// A byte count > 0.
    Bytes,
    /// Free text, shown in the usage as the given placeholder.
    Text(&'static str),
    /// A `u16`; repeatable, every occurrence is kept.
    Cores,
    /// The command's one positional file argument.
    File,
}

/// One flag of a [`Command`], or its positional file (named `<FILE>`).
#[derive(Debug)]
pub struct Flag {
    /// `--name`, or `<FILE>`.
    pub name: &'static str,
    /// How the value is read.
    pub kind: Kind,
    /// The value used when the flag is absent.
    pub default: Option<&'static str>,
    /// One-line help.
    pub help: &'static str,
}

/// One row of the command table.
#[derive(Debug)]
pub struct Command {
    /// The command word.
    pub name: &'static str,
    /// One-line help.
    pub help: &'static str,
    /// Accepted flags, in usage order.
    pub flags: &'static [Flag],
    /// Cross-flag rules, checked on the flags as given (before defaults).
    pub check: fn(&Args) -> Result<(), String>,
    /// Runs the command, writing its report to the first sink and
    /// warnings to the second.
    pub run: fn(&Args, &mut dyn Write, &mut dyn Write) -> Outcome,
}

/// What a handler returns once its report is written.
pub type Outcome = Result<(), CliError>;

/// The flags of one command line, defaults filled in, each value checked
/// against its flag's kind. A switch's value is `on`. Asking for a flag
/// the command's table does not list is a bug, and panics.
#[derive(Debug)]
pub struct Args {
    flags: &'static [Flag],
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Every value given for `name`, in order, the default last.
    ///
    /// # Panics
    ///
    /// If the command's table has no flag `name`.
    fn all<'a: 'n, 'n>(&'a self, name: &'n str) -> impl Iterator<Item = &'a str> + 'n {
        assert!(self.flags.iter().any(|f| f.name == name), "no flag {name} in this command");
        self.values.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The last value given for `name`, or its default.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.all(name).last()
    }

    /// Whether `name` has a value: for a switch, whether it was given.
    pub fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The number given for `name`, if any.
    pub fn num(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| v.parse().expect("checked by its kind"))
    }

    /// The value of `name`, which its table defaults (or requires).
    ///
    /// # Panics
    ///
    /// If `name` has no value.
    pub fn text(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// The value of `name`, parsed; see [`Args::text`].
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> T {
        self.text(name).parse().unwrap_or_else(|_| panic!("{name} is checked by its kind"))
    }

    /// Every value given for the repeatable flag `name`, in order.
    pub fn list(&self, name: &str) -> Vec<u16> {
        self.all(name).map(|v| v.parse().expect("checked by its kind")).collect()
    }
}

impl Flag {
    /// Checks one value against this flag's kind.
    ///
    /// # Errors
    ///
    /// A message naming the bad value.
    pub fn check(&self, v: &str) -> Result<(), String> {
        let (name, num) =
            (self.name, |what: &str| v.parse::<u64>().map_err(|_| format!("invalid {what} {v}")));
        let positive = |what: &str| match num(what)? {
            0 => Err(format!("{what} must be positive")),
            _ => Ok(()),
        };
        match self.kind {
            Kind::Count => positive("count"),
            Kind::Ms => positive("millisecond value"),
            Kind::Bytes => positive("byte count"),
            Kind::U64 => num(name).map(drop),
            Kind::Ppm => match num("ppm value")? {
                ppm if ppm > 1_000_000 => Err(format!("ppm value must be <= 1000000, got {ppm}")),
                _ => Ok(()),
            },
            Kind::Scale => match v.parse::<f64>() {
                Err(_) => Err(format!("invalid {name} {v}")),
                Ok(s) if s <= 0.0 || s > 1.0 => Err(format!("{name} must be in (0, 1], got {s}")),
                Ok(_) => Ok(()),
            },
            Kind::Cores => v.parse::<u16>().map(drop).map_err(|_| format!("invalid {name} {v}")),
            Kind::Switch | Kind::Text(_) | Kind::File => Ok(()),
        }
    }
}

impl Command {
    /// Parses the words after the command name: flags in any order (a
    /// repeated flag is last-wins, a repeatable one accumulates), the file
    /// argument anywhere, then the cross-flag rules, then the defaults. A
    /// command without flags ignores its words.
    ///
    /// # Errors
    ///
    /// The usage error, as `btrace` prints it.
    pub fn parse(&self, words: &[String]) -> Result<Args, String> {
        // `scenarios` and `demo` take nothing and ignore what follows them.
        let mut args = Args { flags: self.flags, values: Vec::new() };
        if self.flags.is_empty() {
            return Ok(args);
        }
        let file = self.flags.iter().find(|f| f.kind == Kind::File);
        let mut words = words.iter();
        while let Some(word) = words.next() {
            let (flag, value) =
                match self.flags.iter().find(|f| f.name == word && f.kind != Kind::File) {
                    Some(f) if f.kind == Kind::Switch => (f, "on"),
                    Some(f) => {
                        let v = words.next().ok_or_else(|| format!("{word} requires a value"))?;
                        f.check(v)?;
                        (f, v.as_str())
                    }
                    None => match file {
                        Some(f) if !word.starts_with("--") && !args.on(f.name) => {
                            (f, word.as_str())
                        }
                        Some(_) if !word.starts_with("--") => {
                            return Err(format!("{} takes exactly one file", self.name))
                        }
                        _ => return Err(format!("unknown option {word}")),
                    },
                };
            args.values.push((flag.name, value.to_string()));
        }
        (self.check)(&args)?;
        for flag in self.flags {
            match flag.default {
                _ if args.on(flag.name) => {}
                Some(default) => args.values.push((flag.name, default.to_string())),
                None if flag.kind == Kind::File => {
                    return Err(format!("{} requires a file argument", self.name))
                }
                None => {}
            }
        }
        Ok(args)
    }
}

/// The usage text shown by `help` and after every usage error.
pub fn usage() -> String {
    let mut text = String::from(
        "btrace — block-based mobile tracing toolkit\n\n\
         USAGE:\n    btrace <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for command in COMMANDS {
        let file = if command.flags.iter().any(|f| f.kind == Kind::File) { " <FILE>" } else { "" };
        text += &format!("    {:<30} {}\n", command.name.to_string() + file, command.help);
        for flag in command.flags.iter().filter(|f| f.kind != Kind::File) {
            let value = match flag.kind {
                Kind::Switch | Kind::File => "",
                Kind::Count | Kind::U64 | Kind::Cores => "<N>",
                Kind::Ms => "<MS>",
                Kind::Ppm => "<PPM>",
                Kind::Scale => "<F>",
                Kind::Bytes => "<BYTES>",
                Kind::Text(placeholder) => placeholder,
            };
            let synopsis = format!("{} {value}", flag.name);
            let default = flag.default.map(|d| format!(" (default {d})")).unwrap_or_default();
            text += &format!("        {:<26} {}{default}\n", synopsis.trim_end(), flag.help);
        }
    }
    text + &format!("    {:<30} show this text\n", "help")
}
