//! A tiny shared command-line parser (std-only).
//!
//! Shared by `ihtl-serve`, `ihtl-router`, `ihtl-cli`, and `trace_run`: every binary
//! declares its flags as [`FlagSpec`]s, gets a generated usage message, and
//! unknown flags exit with code 2 plus that usage text instead of a panic.
//! The core [`parse`] function is pure (no process exit, no stderr) so it
//! is unit-testable; binaries call [`parse_or_exit`].

/// One accepted `--flag`.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// Flag name without the leading dashes, e.g. `"addr"`.
    pub name: &'static str,
    /// `Some("PLACEHOLDER")` if the flag takes a value, `None` for a
    /// boolean switch.
    pub value: Option<&'static str>,
    /// One-line description for the usage message.
    pub help: &'static str,
}

/// Parsed command line: flag values plus positional arguments.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    flags: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl ParsedArgs {
    /// Value of `--name VALUE` (last occurrence wins), if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Value of `--name VALUE`, or `default` if absent.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Whether a boolean `--name` switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| *k == name)
    }

    /// Parsed numeric flag, or `default` if absent. Errors on non-numeric
    /// values.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    /// Arguments that are not flags, in order (subcommands, file names).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Renders the usage message for a binary with the given flags.
pub fn usage(bin: &str, synopsis: &str, specs: &[FlagSpec]) -> String {
    let mut out = format!("usage: {bin} {synopsis}\n\noptions:\n");
    let mut lefts: Vec<String> = Vec::new();
    for s in specs {
        match s.value {
            Some(ph) => lefts.push(format!("  --{} {}", s.name, ph)),
            None => lefts.push(format!("  --{}", s.name)),
        }
    }
    lefts.push("  --help".to_string());
    let width = lefts.iter().map(|l| l.len()).max().unwrap_or(0) + 2;
    for (left, s) in lefts.iter().zip(specs.iter().map(|s| s.help).chain(["print this message"])) {
        out.push_str(&format!("{left:width$}{s}\n"));
    }
    out
}

/// Outcome of parsing: arguments, a help request, or an error message
/// (unknown flag, missing value).
pub enum Parsed {
    Args(ParsedArgs),
    Help,
    Err(String),
}

/// Parses `args` (excluding argv[0]) against `specs`. Accepts
/// `--flag value` and `--flag=value`; `--` ends flag processing.
pub fn parse(specs: &[FlagSpec], args: impl IntoIterator<Item = String>) -> Parsed {
    let mut out = ParsedArgs::default();
    let mut iter = args.into_iter();
    let mut flags_done = false;
    while let Some(arg) = iter.next() {
        if flags_done || !arg.starts_with("--") {
            out.positionals.push(arg);
            continue;
        }
        if arg == "--" {
            flags_done = true;
            continue;
        }
        let body = &arg[2..];
        let (name, inline) = match body.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (body, None),
        };
        if name == "help" {
            return Parsed::Help;
        }
        let Some(spec) = specs.iter().find(|s| s.name == name) else {
            return Parsed::Err(format!("unknown argument '--{name}'"));
        };
        match (spec.value, inline) {
            (None, None) => out.flags.push((spec.name, String::new())),
            (None, Some(_)) => {
                return Parsed::Err(format!("--{name} does not take a value"));
            }
            (Some(_), Some(v)) => out.flags.push((spec.name, v)),
            (Some(ph), None) => match iter.next() {
                Some(v) => out.flags.push((spec.name, v)),
                None => return Parsed::Err(format!("--{name} expects a value ({ph})")),
            },
        }
    }
    Parsed::Args(out)
}

/// [`parse`] for binaries: `--help` prints usage and exits 0; a parse error
/// prints the error plus usage to stderr and exits 2.
pub fn parse_or_exit(
    bin: &str,
    synopsis: &str,
    specs: &[FlagSpec],
    args: impl IntoIterator<Item = String>,
) -> ParsedArgs {
    match parse(specs, args) {
        Parsed::Args(a) => a,
        Parsed::Help => {
            print!("{}", usage(bin, synopsis, specs));
            std::process::exit(0);
        }
        Parsed::Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage(bin, synopsis, specs));
            std::process::exit(2);
        }
    }
}

/// The `--port-file` flag both daemons take (see [`announce_listening`]).
pub const PORT_FILE: FlagSpec = FlagSpec {
    name: "port-file",
    value: Some("PATH"),
    help: "write the bound port number to PATH after binding",
};

/// A daemon's last step before serving: honours `--port-file`, then prints
/// the "listening" line that scripts wait for.
pub fn announce_listening(program: &str, args: &ParsedArgs, addr: std::net::SocketAddr) {
    if let Some(path) = args.get("port-file") {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("error: writing port file '{path}': {e}");
            std::process::exit(1);
        }
    }
    println!("{program} listening on {addr}");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &[FlagSpec] = &[
        FlagSpec { name: "addr", value: Some("HOST:PORT"), help: "server address" },
        FlagSpec { name: "samples", value: Some("N"), help: "sample count" },
        FlagSpec { name: "verbose", value: None, help: "chatty output" },
    ];

    fn ok(args: &[&str]) -> ParsedArgs {
        match parse(SPECS, args.iter().map(|s| s.to_string())) {
            Parsed::Args(a) => a,
            Parsed::Help => panic!("unexpected help"),
            Parsed::Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn values_switches_positionals() {
        let a = ok(&["--addr", "x:1", "job", "--verbose", "--samples=9", "pagerank"]);
        assert_eq!(a.get("addr"), Some("x:1"));
        assert!(a.has("verbose"));
        assert_eq!(a.get_usize("samples", 3).unwrap(), 9);
        assert_eq!(a.positionals(), &["job".to_string(), "pagerank".to_string()]);
    }

    #[test]
    fn defaults_and_last_wins() {
        let a = ok(&["--samples", "1", "--samples", "2"]);
        assert_eq!(a.get_usize("samples", 3).unwrap(), 2);
        assert_eq!(a.get_or("addr", "d"), "d");
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn unknown_flag_and_missing_value_error() {
        for bad in [&["--bogus"][..], &["--addr"][..], &["--verbose=yes"][..]] {
            match parse(SPECS, bad.iter().map(|s| s.to_string())) {
                Parsed::Err(_) => {}
                _ => panic!("{bad:?} should be an error"),
            }
        }
    }

    #[test]
    fn help_and_double_dash() {
        assert!(matches!(parse(SPECS, ["--help".to_string()]), Parsed::Help));
        let a = ok(&["--", "--addr"]);
        assert_eq!(a.positionals(), &["--addr".to_string()]);
        assert_eq!(a.get("addr"), None);
    }

    #[test]
    fn bad_number_reports_flag_name() {
        let a = ok(&["--samples", "many"]);
        let e = a.get_usize("samples", 1).unwrap_err();
        assert!(e.contains("samples"), "{e}");
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = usage("demo", "[options]", SPECS);
        for s in SPECS {
            assert!(u.contains(&format!("--{}", s.name)), "{u}");
        }
        assert!(u.contains("--help"));
    }
}
