//! The exit-code contract the bench binaries share: a command line that
//! cannot be made sense of exits 2 and a failure while working exits 1,
//! each with one `<bin>: error:` line on stderr instead of a panic; a
//! reader that closes stdout early (`… | head`) ends the run with exit 0.

use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;

/// Diagnostics and stdout for one binary, prefixed with its name.
#[derive(Debug, Clone, Copy)]
pub struct Cli(pub &'static str);

impl Cli {
    /// Runtime failure: one diagnostic line, exit 1.
    pub fn fail(self, msg: impl Display) -> ! {
        eprintln!("{}: error: {msg}", self.0);
        std::process::exit(1);
    }

    /// A command line we could not make sense of: one diagnostic line,
    /// exit 2.
    pub fn bad_arg(self, msg: impl Display) -> ! {
        eprintln!("{}: error: {msg}", self.0);
        std::process::exit(2);
    }

    /// Print a line to stdout; a reader that hung up ends the run quietly.
    pub fn say(self, text: impl Display) {
        if let Err(e) = writeln!(std::io::stdout().lock(), "{text}") {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            self.fail(format_args!("stdout: {e}"));
        }
    }

    /// The value following `flag`.
    pub fn value(self, args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| self.bad_arg(format_args!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(self, args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        let raw = self.value(args, flag);
        raw.parse()
            .unwrap_or_else(|_| self.bad_arg(format_args!("invalid value {raw:?} for {flag}")))
    }

    /// Write `text` to `path`, creating its parent directory.
    pub fn write_file(self, path: &std::path::Path, text: &str) {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| self.fail(format_args!("create {}: {e}", dir.display())));
        }
        std::fs::write(path, text)
            .unwrap_or_else(|e| self.fail(format_args!("write {}: {e}", path.display())));
    }
}
