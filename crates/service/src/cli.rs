//! Command-line flags of the `mmjoin-serve` and `mmjoin-netd` binaries.
//! Both fail loudly: an unknown argument, or a flag with a missing or
//! unparsable value, prints one line naming it and exits with status 2,
//! so a script passing a retired flag stops instead of silently running
//! with different semantics.

use std::cell::RefCell;
use std::str::FromStr;

/// The process arguments; each [`Flags::value`] / [`Flags::has`] call
/// claims the arguments it reads, and [`Flags::finish`] rejects the rest.
pub struct Flags {
    prog: &'static str,
    args: Vec<String>,
    claimed: RefCell<Vec<bool>>,
}

impl Flags {
    /// The arguments of this process, reported under `prog`.
    pub fn new(prog: &'static str) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let claimed = RefCell::new(vec![false; args.len()]);
        Flags {
            prog,
            args,
            claimed,
        }
    }

    /// The value after `flag`, or `None` when the flag is absent. A flag
    /// with a missing or unparsable value exits 2, naming the flag.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let at = self.claim(flag)?;
        let Some(value) = self.args.get(at + 1) else {
            self.fail(&format!("{flag} needs a value"))
        };
        self.claimed.borrow_mut()[at + 1] = true;
        match value.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(&format!("invalid value `{value}` for {flag}")),
        }
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.claim(flag).is_some()
    }

    /// Exits 2 naming the first argument no earlier call claimed; call
    /// it once every flag has been read.
    pub fn finish(&self) {
        let claimed = self.claimed.borrow();
        if let Some(at) = claimed.iter().position(|&c| !c) {
            self.fail(&format!("unknown flag `{}`", self.args[at]));
        }
    }

    fn claim(&self, flag: &str) -> Option<usize> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.claimed.borrow_mut()[at] = true;
        Some(at)
    }

    fn fail(&self, problem: &str) -> ! {
        eprintln!("{}: {problem}", self.prog);
        std::process::exit(2);
    }
}
