//! The command-line contract. Each subcommand is one [`Command`]: its
//! positional paths, its flags with their value types and defaults, its
//! handler and its description. One parser checks every argv against it,
//! and help is rendered from it, so no flag is parsed without being
//! documented, or documented without being parsed.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use crate::Failure;

/// How a flag takes its value.
#[derive(Clone, Copy)]
pub enum Kind {
    Switch,
    /// An unsigned 64-bit integer.
    Count,
    /// An unsigned 32-bit integer.
    U32,
    /// Milliseconds, read as nanoseconds, so at most `u64::MAX / 10^6`.
    Millis,
    /// A finite number above zero.
    Positive,
    /// One of these words.
    Choice(&'static [&'static str]),
    /// A path, a name or a rule code.
    Text,
}

impl Kind {
    fn fits(self, raw: &str) -> bool {
        match self {
            Kind::Switch | Kind::Text => true,
            Kind::Count => raw.parse::<u64>().is_ok(),
            Kind::U32 => raw.parse::<u32>().is_ok(),
            Kind::Millis => nanos(raw).is_some(),
            Kind::Positive => raw.parse::<f64>().is_ok_and(|k| k > 0.0 && k.is_finite()),
            Kind::Choice(words) => words.contains(&raw),
        }
    }

    /// What a value of this kind is, for usage errors.
    fn expects(self) -> String {
        match self {
            Kind::U32 => format!("a number up to {}", u32::MAX),
            Kind::Millis => format!("milliseconds up to {}", u64::MAX / 1_000_000),
            Kind::Positive => "a positive number".into(),
            Kind::Choice(words) => words.join(" or "),
            // A count; switches and text fit whatever they are.
            _ => "a number".into(),
        }
    }
}

/// Milliseconds as nanoseconds, when both fit 64 bits.
fn nanos(ms: &str) -> Option<u64> {
    ms.parse::<u64>().ok()?.checked_mul(1_000_000)
}

/// Whether a flag may be left out, and how often it may be given.
#[derive(Clone, Copy, PartialEq)]
pub enum Need {
    Optional,
    Required,
    /// Left out, it reads as this value.
    Or(&'static str),
    /// Any number of times.
    Repeat,
}

/// One flag of a command.
pub struct Flag {
    name: &'static str,
    /// The placeholder synopses show for its value (`N`, `FILE`).
    meta: &'static str,
    kind: Kind,
    need: Need,
}

/// A flag with no value.
pub const fn switch(name: &'static str) -> Flag {
    Flag::new(name, "", Kind::Switch, Need::Optional)
}

impl Flag {
    pub const fn new(name: &'static str, meta: &'static str, kind: Kind, need: Need) -> Flag {
        Flag {
            name,
            meta,
            kind,
            need,
        }
    }

    /// `--name META` as a synopsis shows it.
    fn synopsis(&self) -> String {
        let (name, meta) = (self.name, self.meta);
        let shown = match self.kind {
            Kind::Switch => name.to_owned(),
            Kind::Choice(words) => format!("{name} {}", words.join("|")),
            _ => format!("{name} {meta}"),
        };
        match self.need {
            Need::Optional => format!("[{shown}]"),
            Need::Required => shown,
            Need::Or(default) => format!("[{shown} (default {default})]"),
            Need::Repeat => format!("[{shown}]..."),
        }
    }
}

pub type Handler = fn(&Args<'_>, &mut dyn Write) -> Result<ExitCode, Failure>;

/// One subcommand.
pub struct Command {
    pub name: &'static str,
    /// Its positional paths as synopses show them: `[FILE]` is optional,
    /// `FILE...` takes one or more.
    pub paths: &'static str,
    pub run: Handler,
    /// Its flag groups; the commands that load a trace share one.
    pub flags: &'static [&'static [Flag]],
    pub about: &'static str,
}

impl Command {
    fn each_flag(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.each_flag().find(|flag| flag.name == name)
    }

    /// The synopsis and description, wrapped: the first line starts with
    /// `prefix`, the description is indented by `indent`.
    pub fn entry(&self, prefix: &str, indent: usize) -> String {
        let flags: Vec<String> = self.each_flag().map(Flag::synopsis).collect();
        let words = [self.name, self.paths]
            .into_iter()
            .chain(flags.iter().map(String::as_str));
        let synopsis = wrap(prefix, prefix.len() + self.name.len() + 1, words);
        synopsis + &wrap(&" ".repeat(indent), indent, self.about.split_whitespace())
    }
}

/// Fills lines of at most 78 columns with `words` (a longer word stands
/// alone): the first line starts with `first`, the others with `indent`
/// spaces.
fn wrap<'w>(first: &str, indent: usize, words: impl Iterator<Item = &'w str>) -> String {
    let (mut out, mut column, mut fresh) = (first.to_owned(), first.chars().count(), true);
    for word in words.filter(|w| !w.is_empty()) {
        let len = word.chars().count();
        if !fresh && column + 1 + len > 78 {
            out = format!("{out}\n{:indent$}", "");
            (column, fresh) = (indent, true);
        }
        if !fresh {
            out.push(' ');
            column += 1;
        }
        out.push_str(word);
        (column, fresh) = (column + len, false);
    }
    out + "\n"
}

/// One argv, checked against its command.
pub struct Args<'a> {
    command: &'static Command,
    pub paths: Vec<&'a str>,
    /// Each flag given, with its value (empty for a switch).
    given: Vec<(&'static Flag, &'a str)>,
    /// `--help` was given: print the command's entry instead of running it.
    pub help: bool,
}

impl<'a> Args<'a> {
    /// Checks `argv` against `command`. A path is any argument that does
    /// not start with `--`; a value flag takes the next argument, whatever
    /// it is. An unknown flag, a missing, malformed or out-of-range value,
    /// a second use of a flag that is not repeatable, a missing required
    /// flag, and too few or too many paths are usage errors.
    pub fn parse(command: &'static Command, argv: &'a [String]) -> Result<Args<'a>, Failure> {
        let name = command.name;
        let mut args = Args {
            command,
            paths: Vec::new(),
            given: Vec::new(),
            help: false,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if arg == "--help" {
                args.help = true;
                continue;
            } else if !arg.starts_with("--") {
                args.paths.push(arg);
                continue;
            }
            let flag = command.flag(arg).ok_or_else(|| {
                format!("{name} has no flag {arg}; see `lagalyzer {name} --help`")
            })?;
            if flag.need != Need::Repeat && args.given.iter().any(|(f, _)| f.name == arg) {
                return Err(format!("{arg} is given more than once").into());
            }
            let raw = match flag.kind {
                Kind::Switch => "",
                _ => argv
                    .next()
                    .ok_or_else(|| format!("{arg} expects a value"))?,
            };
            if !flag.kind.fits(raw) {
                let expects = flag.kind.expects();
                return Err(format!("{arg} expects {expects}, got {raw:?}").into());
            }
            args.given.push((flag, raw));
        }
        if args.help {
            return Ok(args);
        }
        let words = command.paths.split_whitespace();
        let least = words.clone().filter(|w| !w.starts_with('[')).count();
        let most = if command.paths.ends_with("...") {
            usize::MAX
        } else {
            words.count()
        };
        if !(least..=most).contains(&args.paths.len()) {
            let paths = if most == 0 { "no paths" } else { command.paths };
            return Err(format!("{name} takes {paths}, got {:?}", args.paths).into());
        }
        match command
            .each_flag()
            .find(|f| f.need == Need::Required && !args.switch(f.name))
        {
            Some(flag) => Err(format!("{name} requires {} {}", flag.name, flag.meta).into()),
            None => Ok(args),
        }
    }

    /// The value given for `name`, else its default; empty for a switch.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        match self.given.iter().find(|(flag, _)| flag.name == name) {
            Some((_, raw)) => Some(raw),
            None => match self.command.flag(name)?.need {
                Need::Or(default) => Some(default),
                _ => None,
            },
        }
    }

    /// Whether `name` was given (or has a default).
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// A number flag's value, as the type its kind was checked against.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)?.parse().ok()
    }

    /// A `Millis` flag's value, in nanoseconds.
    pub fn nanos(&self, name: &str) -> Option<u64> {
        nanos(self.text(name)?)
    }

    /// Every value given for a repeatable flag, in order.
    pub fn texts<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let given = self.given.iter().filter(move |(flag, _)| flag.name == name);
        given.map(|(_, raw)| *raw)
    }
}
