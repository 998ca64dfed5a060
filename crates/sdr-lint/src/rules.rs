//! The rule engine: token-walker checks over [`crate::lexer`] output.
//!
//! Each rule is a pure function from a lexed file (or file set) to
//! [`Violation`]s. Rules never parse Rust fully — they match short
//! token sequences, which is robust exactly because the lexer already
//! dissolved the hard cases (strings, comments, lifetimes, `>>`).
//! Code inside `#[cfg(test)]` items is exempt from every rule: tests
//! may unwrap, sleep, and index at will.
//!
//! ## Rule catalog
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `determinism` | `HashMap`/`HashSet`, `Instant`, `SystemTime`, `thread::sleep`, `std::env` reads in the deterministic crates — `sdr_det` owns clocks and randomness |
//! | `panic-safety` | `.unwrap()`, `.expect(…)`, `panic!`-family macros, and `expr[…]` indexing in message-handling / codec / delivery paths |
//! | `lock-hygiene` | a `Mutex`/`RwLock` guard binding held across a `send_message`/`read_frame` call |
//! | `crate-hygiene` | a crate root without `#![forbid(unsafe_code)]` and a `missing_docs` lint header |
//! | `allow-reason` | an `sdr-lint:` annotation that is malformed or carries no reason (not allowable) |
//! | `lossy-cast` | `as` casts to a narrower integer type (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`) in sdr-core message paths — they truncate silently; use `try_from` with a loud failure |
//! | `no-sleep` | `thread::sleep` in `sdr-net` — delivery is event-driven, so a timed wait needs a reason why no frame, reply or quiescence ever waits on it |
//! | `doc-sync` | documentation drifting from the workspace: a crate under `crates/` absent from the README workspace table or the DESIGN.md §1 inventory, or a gap in the DESIGN.md §2 decision numbering |

use crate::allow::{parse_allows, Allow};
use crate::lexer::{lex, Lexed, TokKind, Token};
use std::path::{Path, PathBuf};

/// Rule name: nondeterminism sources in the deterministic crates.
pub const DETERMINISM: &str = "determinism";
/// Rule name: panic paths in message-handling code.
pub const PANIC_SAFETY: &str = "panic-safety";
/// Rule name: lock guards held across blocking send/receive calls.
pub const LOCK_HYGIENE: &str = "lock-hygiene";
/// Rule name: mandatory crate-root lint headers.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// Rule name: annotation well-formedness (cannot itself be allowed).
pub const ALLOW_REASON: &str = "allow-reason";
/// Rule name: silently truncating `as` casts on message paths.
pub const LOSSY_CAST: &str = "lossy-cast";
/// Rule name: timers on the TCP delivery path.
pub const NO_SLEEP: &str = "no-sleep";
/// Rule name: README/DESIGN drifting from the crate inventory.
pub const DOC_SYNC: &str = "doc-sync";

/// Every rule, in reporting order.
pub const ALL_RULES: &[&str] = &[
    DETERMINISM,
    PANIC_SAFETY,
    LOCK_HYGIENE,
    CRATE_HYGIENE,
    ALLOW_REASON,
    LOSSY_CAST,
    NO_SLEEP,
    DOC_SYNC,
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// A lexed source file plus everything the rules need about it.
#[derive(Clone, Debug)]
pub struct FileSource {
    /// Path as given to the scanner (kept relative for stable output).
    pub path: PathBuf,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// `mask[i]` — token `i` belongs to a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
}

impl FileSource {
    /// Lexes `src` as the contents of `path`.
    pub fn from_source(path: &Path, src: &str) -> FileSource {
        let lexed = lex(src);
        let allows = parse_allows(&lexed.comments);
        let test_mask = cfg_test_mask(&lexed.tokens);
        FileSource {
            path: path.to_path_buf(),
            lexed,
            allows,
            test_mask,
        }
    }

    /// Reads and lexes the file at `path`.
    pub fn read(path: &Path) -> std::io::Result<FileSource> {
        let src = std::fs::read_to_string(path)?;
        Ok(FileSource::from_source(path, &src))
    }

    /// Whether a violation of `rule` at `line` is suppressed by a
    /// *valid* annotation (matching rule, non-empty reason) on that
    /// line or the line(s) of code it precedes.
    fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule && !a.reason.is_empty() && (a.line == line || self.covers(a, line))
        })
    }

    /// An annotation covers the first code line after it (several
    /// stacked annotations all cover the same next code line).
    fn covers(&self, a: &Allow, line: u32) -> bool {
        let next_code_line = self
            .lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .find(|&l| l > a.line);
        next_code_line == Some(line)
    }

    /// Emits `v` unless an annotation suppresses it.
    fn push(&self, out: &mut Vec<Violation>, line: u32, rule: &'static str, msg: String) {
        if !self.is_allowed(rule, line) {
            out.push(Violation {
                file: self.path.clone(),
                line,
                rule,
                msg,
            });
        }
    }
}

// ------------------------------------------------------ cfg(test) mask --

/// Marks every token belonging to a `#[cfg(test)]` item (attribute
/// included, through the item's closing `}` or `;`).
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_attr_start(tokens, i) {
            let (end, is_test) = scan_attr(tokens, i);
            if is_test {
                // Skip any further attributes on the same item.
                let mut j = end;
                while is_attr_start(tokens, j) {
                    j = scan_attr(tokens, j).0;
                }
                // Consume the item: through a balanced `{…}` block or a
                // terminating `;` at item depth.
                let mut depth = 0i32;
                let mut k = j;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        k += 1;
                        break;
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(k.min(tokens.len())).skip(i) {
                    *m = true;
                }
                i = k;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    mask
}

fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
}

/// Scans the attribute starting at `#`; returns (index after `]`,
/// whether it is exactly `#[cfg(test)]`-shaped — the `cfg ( test` token
/// sequence, which `cfg(not(test))` does not contain).
fn scan_attr(tokens: &[Token], i: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut is_test = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j + 1, is_test);
            }
        } else if t.is_ident("cfg")
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(j + 2).is_some_and(|t| t.is_ident("test"))
        {
            is_test = true;
        }
        j += 1;
    }
    (j, is_test)
}

// ----------------------------------------------------------- determinism --

/// Identifiers and token sequences banned in the deterministic crates.
pub fn determinism(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if fs.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let banned = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 (ids derive Ord) or justify with an allow",
                t.text
            )),
            "Instant" | "SystemTime" => Some(format!(
                "`{}` reads the wall clock; deterministic crates must take time \
                 from their caller — wall-clock timing is the `e2e` harness's job",
                t.text
            )),
            "thread" if follows_path(toks, i, "sleep") => {
                Some("`thread::sleep` stalls the simulator nondeterministically".into())
            }
            "env"
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':')) =>
            {
                Some(
                    "`std::env` reads make behaviour depend on ambient state; \
                      thread configuration through SdrConfig or the test harness"
                        .into(),
                )
            }
            "env"
                if i >= 2
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks.get(i - 3).is_some_and(|p| p.is_ident("std")) =>
            {
                Some(
                    "`std::env` reads make behaviour depend on ambient state; \
                      thread configuration through SdrConfig or the test harness"
                        .into(),
                )
            }
            _ => None,
        };
        if let Some(msg) = banned {
            fs.push(out, t.line, DETERMINISM, msg);
        }
    }
}

/// Whether `toks[i]` (an ident) is followed by `:: tail`.
fn follows_path(toks: &[Token], i: usize, tail: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(tail))
}

// ---------------------------------------------------------- panic-safety --

/// Keywords that may legitimately precede `[` without forming an index
/// expression (`let [a, b] = …`, `&mut [T]`, `return [x]`, …).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// Forbids `.unwrap()`, `.expect(…)`, panicking macros, and indexing in
/// the scoped message/codec/delivery files.
pub fn panic_safety(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    for i in 0..toks.len() {
        if fs.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(`
        if t.is_punct('.') {
            if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
                if p.is_punct('(') && (m.is_ident("unwrap") || m.is_ident("expect")) {
                    fs.push(
                        out,
                        m.line,
                        PANIC_SAFETY,
                        format!(
                            "`.{}()` can panic on corrupt or unexpected input; \
                             return an error or justify with an allow",
                            m.text
                        ),
                    );
                }
            }
        }
        // panic!-family macros
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            fs.push(
                out,
                t.line,
                PANIC_SAFETY,
                format!("`{}!` in a message-handling path", t.text),
            );
        }
        // Indexing: `expr[…]` where expr ends in a non-keyword ident,
        // `)`, or `]` — slicing included (both panic on out-of-range).
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let is_index = match prev.kind {
                TokKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if is_index {
                fs.push(
                    out,
                    t.line,
                    PANIC_SAFETY,
                    "indexing can panic; use `.get(…)`/`.first()`/pattern matching, \
                     or justify the bound with an allow"
                        .into(),
                );
            }
        }
    }
}

// ------------------------------------------------------------ lossy-cast --

/// Integer targets an `as` cast can silently truncate into. 64-bit
/// targets (`u64`/`i64`/`usize`/`isize`) are excluded: the workspace's
/// ids are at most 32 bits wide and the supported platforms are 64-bit,
/// so casts *up* to them are widening (documented assumption, see
/// DESIGN.md decision 9).
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Flags narrowing `as` casts. A token walker cannot know the source
/// type, so every `as u32` (etc.) is flagged — a cast that is provably
/// widening or deliberately bounded carries an allow with the bound as
/// its reason. The motivating bug: `hop.spawned.len() as u32` wrapping
/// a forged fan-out into a small `remaining` and terminating a query
/// branch early as a false "complete".
pub fn lossy_cast(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if fs.test_mask[i] || !t.is_ident("as") {
            continue;
        }
        if let Some(n) = toks.get(i + 1) {
            if n.kind == TokKind::Ident && NARROW_INTS.contains(&n.text.as_str()) {
                fs.push(
                    out,
                    t.line,
                    LOSSY_CAST,
                    format!(
                        "`as {}` silently truncates; use `{}::try_from` with a loud \
                         failure, or justify the bound with an allow",
                        n.text, n.text
                    ),
                );
            }
        }
    }
}

// -------------------------------------------------------------- no-sleep --

/// Flags every `thread::sleep`. In `sdr-net` a receiver acts because a
/// frame or a signal arrived; a sleep between the two is how a 1 ms poll
/// and a 5 ms grace window once set the latency of every operation. The
/// sleeps that remain back off from errors, and say so in their allow.
pub fn no_sleep(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !fs.test_mask[i] && t.is_ident("thread") && follows_path(toks, i, "sleep") {
            fs.push(
                out,
                t.line,
                NO_SLEEP,
                "`thread::sleep` on the delivery path; block on the socket or on \
                 `Deployment::wait`, or justify an error backoff with an allow"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------- lock-hygiene --

/// Calls that must not happen under a held guard: they block on the
/// network (connect/retry ladders, 5 s read timeouts) and turn a
/// serialization lock into a deployment-wide stall — or, worse, a
/// deadlock when the peer's reply needs the same lock.
const BLOCKING_CALLS: &[&str] = &["send_message", "read_frame"];

/// Flags a `Mutex`/`RwLock` guard binding alive at a blocking call.
pub fn lock_hygiene(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    // (binding name, brace depth it lives at, line acquired)
    let mut guards: Vec<(String, i32, u32)> = Vec::new();
    let mut depth = 0i32;
    for i in 0..toks.len() {
        if fs.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.1 <= depth);
        } else if t.is_ident("let") && stmt_acquires_guard(toks, i) {
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = toks.get(j) {
                // `let _ = …` drops the guard immediately; a named
                // binding (including `_g`) holds it. An allow at the
                // acquisition site vouches for the guard's whole
                // lifetime — the justification lives where the lock is
                // taken, not at every blocking call under it.
                if name_tok.kind == TokKind::Ident
                    && name_tok.text != "_"
                    && !fs.is_allowed(LOCK_HYGIENE, name_tok.line)
                {
                    guards.push((name_tok.text.clone(), depth, name_tok.line));
                }
            }
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2) {
                guards.retain(|g| g.0 != name.text);
            }
        } else if t.kind == TokKind::Ident
            && BLOCKING_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            for g in &guards {
                fs.push(
                    out,
                    t.line,
                    LOCK_HYGIENE,
                    format!(
                        "`{}` called while lock guard `{}` (acquired line {}) is held; \
                         drop the guard first or justify with an allow",
                        t.text, g.0, g.2
                    ),
                );
            }
        }
    }
}

/// Whether the `let` statement starting at `toks[i]` binds a lock
/// guard: a `.lock()` / `.read()` / `.write()` call (zero-argument —
/// `io::Read::read(&mut buf)` never matches) at the statement's own
/// nesting level, before its terminating `;`.
fn stmt_acquires_guard(toks: &[Token], i: usize) -> bool {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return false;
        } else if depth == 0
            && t.is_punct('.')
            && toks
                .get(j + 1)
                .is_some_and(|m| m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
            && toks.get(j + 2).is_some_and(|p| p.is_punct('('))
            && toks.get(j + 3).is_some_and(|p| p.is_punct(')'))
        {
            return true;
        }
        j += 1;
    }
    false
}

// --------------------------------------------------------- crate-hygiene --

/// Requires `#![forbid(unsafe_code)]` and a `missing_docs` lint header
/// (warn or deny) in a crate root.
pub fn crate_hygiene(fs: &FileSource, out: &mut Vec<Violation>) {
    let toks = &fs.lexed.tokens;
    let mut has_forbid_unsafe = false;
    let mut has_missing_docs = false;
    let mut i = 0;
    while i + 1 < toks.len() {
        // Inner attribute `#![…]`.
        if toks[i].is_punct('#') && toks[i + 1].is_punct('!') {
            let (end, _) = scan_attr_inner(toks, i);
            let attr = &toks[i..end.min(toks.len())];
            let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
            if has("forbid") && has("unsafe_code") {
                has_forbid_unsafe = true;
            }
            if (has("warn") || has("deny") || has("forbid")) && has("missing_docs") {
                has_missing_docs = true;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    if !has_forbid_unsafe {
        fs.push(
            out,
            1,
            CRATE_HYGIENE,
            "crate root lacks `#![forbid(unsafe_code)]`".into(),
        );
    }
    if !has_missing_docs {
        fs.push(
            out,
            1,
            CRATE_HYGIENE,
            "crate root lacks a `missing_docs` lint header (`#![warn(missing_docs)]`)".into(),
        );
    }
}

/// Scans `#![…]` starting at the `#`; returns index after `]`.
fn scan_attr_inner(toks: &[Token], i: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = i + 2; // skip `#` `!`
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j + 1, false);
            }
        }
        j += 1;
    }
    (j, false)
}

// ---------------------------------------------------------- allow-reason --

/// Reports malformed annotations and annotations without a reason.
/// Fires unconditionally — this rule cannot be allowed away.
pub fn allow_reason(fs: &FileSource, out: &mut Vec<Violation>) {
    for a in &fs.allows {
        if a.rule.is_empty() {
            out.push(Violation {
                file: fs.path.clone(),
                line: a.line,
                rule: ALLOW_REASON,
                msg: "malformed `sdr-lint:` marker — expected \
                      `sdr-lint: allow(rule-name) — reason`"
                    .into(),
            });
        } else if !ALL_RULES.contains(&a.rule.as_str()) {
            out.push(Violation {
                file: fs.path.clone(),
                line: a.line,
                rule: ALLOW_REASON,
                msg: format!("annotation names unknown rule `{}`", a.rule),
            });
        } else if a.reason.is_empty() {
            out.push(Violation {
                file: fs.path.clone(),
                line: a.line,
                rule: ALLOW_REASON,
                msg: format!(
                    "`allow({})` carries no reason; write \
                     `sdr-lint: allow({}) — why this is sound`",
                    a.rule, a.rule
                ),
            });
        }
    }
}

// -------------------------------------------------------- doc-sync ----

/// README/DESIGN drift against the crate inventory. Unlike the token
/// rules this one reads the *documentation*, not the sources: every
/// directory under `crates/` must appear as a row of the README
/// workspace table and inside the DESIGN.md "## 1." inventory section,
/// and the top-level decision numbers of the DESIGN.md "## 2." section
/// must be contiguous from 1 (letter sub-decisions like `4b.` share
/// their parent's number). Docs that describe a crate that no longer
/// exists, or skip a decision number, read as authoritative while being
/// wrong — the exact failure mode this workspace lints against in code.
pub fn doc_sync(root: &Path, out: &mut Vec<Violation>) -> std::io::Result<()> {
    let mut crates: Vec<String> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for e in std::fs::read_dir(&crates_dir)? {
            let e = e?;
            if e.path().is_dir() {
                crates.push(e.file_name().to_string_lossy().into_owned());
            }
        }
    }
    crates.sort();

    for (doc, section_check) in [("README.md", false), ("DESIGN.md", true)] {
        let path = root.join(doc);
        let Ok(text) = std::fs::read_to_string(&path) else {
            out.push(Violation {
                file: PathBuf::from(doc),
                line: 1,
                rule: DOC_SYNC,
                msg: format!("{doc} is missing from the workspace root"),
            });
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        let (hay, what): (Vec<&str>, &str) = if section_check {
            (section(&lines, "## 1."), "the DESIGN.md §1 inventory")
        } else {
            // The README check scans table rows only, so prose
            // mentioning a crate cannot mask a missing table entry.
            (
                lines
                    .iter()
                    .copied()
                    .filter(|l| l.trim_start().starts_with('|'))
                    .collect(),
                "the README workspace table",
            )
        };
        for krate in &crates {
            let needle = format!("`{krate}`");
            let needle_path = format!("`crates/{krate}`");
            if !hay
                .iter()
                .any(|l| l.contains(&needle) || l.contains(&needle_path))
            {
                out.push(Violation {
                    file: PathBuf::from(doc),
                    line: 1,
                    rule: DOC_SYNC,
                    msg: format!("crate `{krate}` does not appear in {what}"),
                });
            }
        }
    }

    if let Ok(text) = std::fs::read_to_string(root.join("DESIGN.md")) {
        let lines: Vec<&str> = text.lines().collect();
        let mut seen: Vec<(u32, u32)> = Vec::new(); // (decision number, 1-based line)
        if let Some(start) = lines.iter().position(|l| l.starts_with("## 2.")) {
            for (i, l) in lines[start..].iter().enumerate() {
                if i > 0 && l.starts_with("## ") {
                    break;
                }
                if let Some(n) = decision_number(l) {
                    seen.push((n, (start + i + 1) as u32));
                }
            }
        }
        let mut expect = 1;
        for (n, line) in &seen {
            if *n == expect || *n + 1 == expect {
                expect = expect.max(n + 1);
            } else {
                out.push(Violation {
                    file: PathBuf::from("DESIGN.md"),
                    line: *line,
                    rule: DOC_SYNC,
                    msg: format!(
                        "decision numbering gap: found decision {n} where {expect} was expected"
                    ),
                });
                expect = n + 1;
            }
        }
    }
    Ok(())
}

/// The lines of the markdown section whose heading starts with `head`,
/// up to (excluding) the next same-level heading.
fn section<'a>(lines: &[&'a str], head: &str) -> Vec<&'a str> {
    let Some(start) = lines.iter().position(|l| l.starts_with(head)) else {
        return Vec::new();
    };
    lines[start..]
        .iter()
        .enumerate()
        .take_while(|(i, l)| *i == 0 || !l.starts_with("## "))
        .map(|(_, l)| *l)
        .collect()
}

/// Parses `l` as a top-level decision item: digits, an optional single
/// lowercase letter (a sub-decision, e.g. `4b.`), then `. `.
fn decision_number(l: &str) -> Option<u32> {
    let digits: String = l.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    let rest = &l[digits.len()..];
    let rest = rest
        .strip_prefix(|c: char| c.is_ascii_lowercase())
        .unwrap_or(rest);
    if !rest.starts_with(". ") {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, code: &str) -> FileSource {
        FileSource::from_source(Path::new(path), code)
    }

    #[test]
    fn determinism_flags_hashmap_and_clock() {
        let fs = src(
            "x.rs",
            "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }",
        );
        let mut v = vec![];
        determinism(&fs, &mut v);
        assert_eq!(v.len(), 2);
        assert!(v[0].msg.contains("HashMap"));
        assert!(v[1].msg.contains("Instant"));
    }

    #[test]
    fn determinism_respects_cfg_test() {
        let fs = src(
            "x.rs",
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}",
        );
        let mut v = vec![];
        determinism(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn determinism_allows_with_reason() {
        let fs = src(
            "x.rs",
            "// sdr-lint: allow(determinism) — membership only, order never read\n\
             use std::collections::HashSet;",
        );
        let mut v = vec![];
        determinism(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn panic_safety_flags_all_four_shapes() {
        let fs = src(
            "x.rs",
            "fn f(v: &[u8]) -> u8 { let x = v.first().unwrap(); \
             let y: Result<u8, ()> = Ok(1); y.expect(\"one\"); \
             if v.is_empty() { panic!(\"boom\") } v[0] }",
        );
        let mut v = vec![];
        panic_safety(&fs, &mut v);
        let rules: Vec<_> = v.iter().map(|x| x.msg.clone()).collect();
        assert_eq!(v.len(), 4, "{rules:?}");
    }

    #[test]
    fn panic_safety_ignores_slice_patterns_and_macros_and_types() {
        let fs = src(
            "x.rs",
            "fn f() { let [a, b] = [1, 2]; let v = vec![a, b]; \
             let s: &[u8] = &[1]; let _ = (v, s); }",
        );
        let mut v = vec![];
        panic_safety(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let fs = src("x.rs", "fn f(m: std::sync::Mutex<u8>) { let _g = m.lock().unwrap_or_else(|e| e.into_inner()); }");
        let mut v = vec![];
        panic_safety(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_hygiene_flags_guard_across_send() {
        let fs = src(
            "x.rs",
            "fn f() { let guard = m.lock().unwrap_or_else(|e| e.into_inner()); \
             send_message(d, msg); }",
        );
        let mut v = vec![];
        lock_hygiene(&fs, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("guard"));
    }

    #[test]
    fn lock_hygiene_clears_on_drop_and_scope() {
        let fs = src(
            "x.rs",
            "fn f() { { let g = m.lock(); use_it(&g); } send_message(d, msg); }\n\
             fn h() { let g = m.lock(); drop(g); send_message(d, msg); }",
        );
        let mut v = vec![];
        lock_hygiene(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_hygiene_inner_block_binding_dies_with_block() {
        let fs = src(
            "x.rs",
            "fn f() { let out = { let g = m.lock(); g.take() }; send_message(d, out); }",
        );
        let mut v = vec![];
        lock_hygiene(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crate_hygiene_requires_both_headers() {
        let fs = src("lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}");
        let mut v = vec![];
        crate_hygiene(&fs, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("missing_docs"));
    }

    #[test]
    fn allow_reason_fires_on_empty_reason() {
        let fs = src("x.rs", "// sdr-lint: allow(panic-safety)\nfn f() {}");
        let mut v = vec![];
        allow_reason(&fs, &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn lossy_cast_flags_narrowing_not_widening() {
        let fs = src(
            "x.rs",
            "fn f(n: usize) -> u32 { n as u32 }\n\
             fn g(n: u32) -> u64 { n as u64 }\n\
             fn h(n: usize) -> usize { n as usize }",
        );
        let mut v = vec![];
        lossy_cast(&fs, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert!(v[0].msg.contains("u32::try_from"));
    }

    #[test]
    fn no_sleep_flags_the_call_and_respects_allow_and_cfg_test() {
        let fs = src(
            "x.rs",
            "fn poll() { std::thread::sleep(TICK); }\n\
             // sdr-lint: allow(no-sleep) — backoff after a failed accept\n\
             fn backoff() { thread::sleep(TICK); }\n\
             #[cfg(test)]\nmod tests { fn t() { std::thread::sleep(TICK); } }",
        );
        let mut v = vec![];
        no_sleep(&fs, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (1, NO_SLEEP));
    }

    #[test]
    fn lossy_cast_respects_allow_with_reason() {
        let fs = src(
            "x.rs",
            "// sdr-lint: allow(lossy-cast) — bounded by the dense id contract\n\
             fn f(n: usize) -> u32 { n as u32 }",
        );
        let mut v = vec![];
        lossy_cast(&fs, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
