//! Command-line reading the daemons share (`uucs-server`,
//! `uucs-clusterd`): a flag that takes a value and has none, or one the
//! flag does not accept, ends the process with status 2 before it has
//! touched anything — a flag left at its default would boot a server
//! the operator did not ask for.

use std::str::FromStr;

/// The value of the flag at `args[i - 1]`, or exit 2 naming the flag.
pub fn value(args: &[String], i: usize) -> &str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{} needs a value", args[i - 1]);
        std::process::exit(2);
    })
}

/// The flag's value parsed and accepted by `ok`, or exit 2 saying what
/// the flag wants.
pub fn parsed<T: FromStr>(args: &[String], i: usize, want: &str, ok: fn(&T) -> bool) -> T {
    args.get(i).and_then(|s| s.parse().ok()).filter(ok).unwrap_or_else(|| {
        eprintln!("bad {} (want {want})", args[i - 1]);
        std::process::exit(2);
    })
}
