//! Strict command-line parsing for the harness binaries: a binary *takes*
//! every flag it knows out of the argument list, then its positionals,
//! and [`Args::finish`] rejects whatever is left. An unknown flag, a
//! missing value or an unparsable one exits 2 naming the offender — before
//! the binary has touched a file — instead of being silently ignored.

use std::str::FromStr;

/// The not-yet-taken command-line arguments of the binary `bin`.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// The process arguments of `bin` (the name prefixes every error).
    #[must_use]
    pub fn from_env(bin: &'static str) -> Self {
        let rest = std::env::args().skip(1).collect();
        Self { bin, rest }
    }

    /// Prints `<bin>: <why>` and exits 2 (the usage-error code).
    pub fn die(&self, why: &str) -> ! {
        eprintln!("{}: {why}", self.bin);
        std::process::exit(2);
    }

    /// Takes the switch `name`; `true` if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|at| self.rest.remove(at)).is_some()
    }

    /// Takes `name VALUE`, unparsed; a missing value is a usage error.
    fn raw(&mut self, name: &str) -> Option<String> {
        let at = self.rest.iter().position(|a| a == name)?;
        if self.rest.get(at + 1).is_none_or(|v| v.starts_with('-')) {
            self.die(&format!("{name} needs a value"));
        }
        self.rest.remove(at);
        Some(self.rest.remove(at))
    }

    /// Takes `name VALUE` and parses the value; `None` if `name` is
    /// absent. A missing or unparsable value is a usage error.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let raw = self.raw(name)?;
        let parsed = raw.trim().parse();
        Some(parsed.unwrap_or_else(|_| self.die(&format!("bad value {raw:?} for {name}"))))
    }

    /// Takes the first remaining argument that is not a flag. Call after
    /// every valued flag has been taken, so a flag's value cannot pass
    /// for a positional.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.rest.iter().position(|a| !a.starts_with('-'))?;
        Some(self.rest.remove(at))
    }

    /// Rejects whatever was not taken: an unknown flag or a stray word.
    /// What was taken can still be refused afterwards ([`Args::die`]).
    pub fn finish(&self) {
        if let Some(stray) = self.rest.first() {
            self.die(&format!("unknown argument {stray:?}"));
        }
    }
}
