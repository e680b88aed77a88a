//! The repository's own rules, checked over its sources.
//!
//! Every rule reads the code through one small lexer (comments, doc
//! comments, strings, raw strings, char and byte literals, lifetimes) and
//! one definition of library code: a file under `crates/*/src` without its
//! comments and without every item or statement under `#[cfg(test)]`,
//! wherever that attribute stands. Each rule is one `#[test]`, and each has
//! a fixture beside it that breaks the rule and must be rejected.
//!
//! `cargo test -p cloudbench --test repo_rules -- --nocapture` also prints
//! the counted library lines, the size figure ROADMAP reports.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// The lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ident,
    Lifetime,
    Literal,
    Punct,
    Comment,
}

#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    kind: Kind,
    text: &'a str,
    /// The lines the token starts and ends on (1-based).
    line: usize,
    last_line: usize,
}

impl Tok<'_> {
    fn is(&self, text: &str) -> bool {
        self.text == text
    }
}

/// Multi-character punctuation the rules tell apart: `::` starts a path,
/// `->` and `=>` are not angle brackets, and `==` or `+=` is not `=`. `<<`
/// and `>>` stay two tokens, so `Vec<Vec<u8>>` closes twice.
const PUNCTS: [&str; 22] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

/// The index just past a quoted literal whose body starts at `i`.
fn past_quote(b: &[u8], mut i: usize, close: u8, line: &mut usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
                continue;
            }
            b'\n' => *line += 1,
            c if c == close => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// The index just past a raw string whose `#`s start at `i`, if one does.
fn past_raw(b: &[u8], i: usize, line: &mut usize) -> Option<usize> {
    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
    if b.get(i + hashes) != Some(&b'"') {
        return None;
    }
    let mut j = i + hashes + 1;
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
        } else if b[j] == b'"'
            && b[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(j)
}

fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let (mut i, mut line) = (0, 1);
    let mut toks = Vec::new();
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let (mut start, first_line) = (i, line);
        let kind = if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            Kind::Comment
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += usize::from(b[i] == b'\n');
                    i += 1;
                }
            }
            Kind::Comment
        } else if c == b'\'' {
            // `'x'` and `'\n'` are chars; `'a` with no closing quote after
            // one character is a lifetime.
            let width = match b.get(i + 1) {
                Some(&f) if f >= 0xF0 => 4,
                Some(&f) if f >= 0xE0 => 3,
                Some(&f) if f >= 0xC0 => 2,
                _ => 1,
            };
            if b.get(i + 1) == Some(&b'\\') {
                i = past_quote(b, i + 1, b'\'', &mut line);
                Kind::Literal
            } else if b.get(i + 1 + width) == Some(&b'\'') {
                i += 2 + width;
                Kind::Literal
            } else {
                i += 1;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                Kind::Lifetime
            }
        } else if c == b'"' {
            i = past_quote(b, i + 1, b'"', &mut line);
            Kind::Literal
        } else if c.is_ascii_digit() {
            while i < b.len()
                && (is_ident_byte(b[i])
                    || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
            {
                i += 1;
            }
            Kind::Literal
        } else if is_ident_byte(c) {
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            let raw = if matches!(&src[start..i], "r" | "br" | "cr") {
                past_raw(b, i, &mut line)
            } else {
                None
            };
            match (&src[start..i], b.get(i)) {
                _ if raw.is_some() => {
                    i = raw.unwrap_or(i);
                    Kind::Literal
                }
                ("b" | "c", Some(b'"')) => {
                    i = past_quote(b, i + 1, b'"', &mut line);
                    Kind::Literal
                }
                ("b", Some(b'\'')) => {
                    i = past_quote(b, i + 1, b'\'', &mut line);
                    Kind::Literal
                }
                ("r", Some(b'#')) if b.get(i + 1).is_some_and(|&n| is_ident_byte(n)) => {
                    // A raw identifier `r#name` is the identifier `name`.
                    i += 1;
                    start = i;
                    while i < b.len() && is_ident_byte(b[i]) {
                        i += 1;
                    }
                    Kind::Ident
                }
                _ => Kind::Ident,
            }
        } else {
            let len = PUNCTS
                .iter()
                .find(|p| b[i..].starts_with(p.as_bytes()))
                .map_or(src[i..].chars().next().map_or(1, char::len_utf8), |p| p.len());
            i += len;
            Kind::Punct
        };
        toks.push(Tok { kind, text: &src[start..i], line: first_line, last_line: line });
    }
    toks
}

// ---------------------------------------------------------------------------
// Library code
// ---------------------------------------------------------------------------

/// Whether `words` occur at `toks[i..]`.
fn seq(toks: &[Tok], i: usize, words: &[&str]) -> bool {
    toks.len() >= i + words.len() && words.iter().zip(&toks[i..]).all(|(w, t)| t.is(w))
}

/// The index of the bracket that closes the one at `open`.
fn close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// The index just past the item or statement whose attributes start at
/// `i`. An item that ends in a block (`fn`, `mod`, `impl`, a `{}` macro,
/// `if … else`) ends there; anything else ends at its `;`, or at its `,` in
/// a field or variant list, or before the bracket that closes its parent.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    while seq(toks, i, &["#", "["]) || seq(toks, i, &["#", "!", "["]) {
        i = close(toks, i + usize::from(toks[i + 1].is("!")) + 1) + 1;
    }
    let mut head = i;
    while head < toks.len()
        && (matches!(toks[head].text, "pub" | "unsafe" | "async" | "extern" | "const")
            || toks[head].kind == Kind::Literal)
    {
        head += 1;
        if toks.get(head).is_some_and(|t| t.is("(")) && toks[head - 1].is("pub") {
            head = close(toks, head) + 1;
        }
    }
    let braced = toks.get(head).is_some_and(|t| {
        matches!(
            t.text,
            "fn" | "mod"
                | "impl"
                | "struct"
                | "enum"
                | "trait"
                | "union"
                | "if"
                | "match"
                | "for"
                | "while"
                | "loop"
                | "{"
        )
    }) || toks.get(head + 1).is_some_and(|t| t.is("!"));
    let (mut depth, mut angle) = (0usize, 0usize);
    let mut j = i;
    while j < toks.len() {
        match toks[j].text {
            "(" | "[" | "{" => depth += 1,
            text @ (")" | "]" | "}") => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
                let next = toks.get(j + 1).map_or("", |t| t.text);
                if depth == 0 && text == "}" && braced && next != "else" {
                    return j + 1 + usize::from(next == ";");
                }
            }
            ";" if depth == 0 => return j + 1,
            "," if depth == 0 && angle == 0 && !braced => return j + 1,
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            _ => {}
        }
        j += 1;
    }
    j
}

/// Code without comments.
fn code(src: &str) -> Vec<Tok<'_>> {
    lex(src).into_iter().filter(|t| t.kind != Kind::Comment).collect()
}

/// Library code: `code` without any item or statement under `#[cfg(test)]`
/// (nothing at all under an inner `#![cfg(test)]`).
fn library(src: &str) -> Vec<Tok<'_>> {
    let toks = code(src);
    if (0..toks.len()).any(|i| seq(&toks, i, &["#", "!", "[", "cfg", "(", "test", ")", "]"])) {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if seq(&toks, i, &CFG_TEST) {
            i = item_end(&toks, i);
        } else {
            out.push(toks[i]);
            i += 1;
        }
    }
    out
}

/// The lines `toks` cover: for library code, its non-blank, non-comment
/// lines.
fn counted_lines(toks: &[Tok]) -> usize {
    let lines: BTreeSet<usize> = toks.iter().flat_map(|t| t.line..=t.last_line).collect();
    lines.len()
}

// ---------------------------------------------------------------------------
// The sources
// ---------------------------------------------------------------------------

struct Source {
    /// Relative to the repository root, `/`-separated.
    path: String,
    text: String,
}

impl Source {
    fn new(path: &str, text: &str) -> Source {
        Source { path: path.to_string(), text: text.to_string() }
    }

    fn at(&self, line: usize) -> String {
        format!("{}:{line}", self.path)
    }
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir` (relative to the root), sorted, skipping build
/// output and dot-directories.
fn files_under(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_string()];
    while let Some(rel) = stack.pop() {
        let Ok(entries) = fs::read_dir(root().join(&rel)) else { continue };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
            let Ok(kind) = entry.file_type() else { continue };
            if kind.is_dir() {
                if !name.starts_with('.') && name != "target" && name != "out" {
                    stack.push(path);
                }
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rust_sources(dirs: &[&str]) -> Vec<Source> {
    dirs.iter()
        .flat_map(|d| files_under(d))
        .filter(|p| p.ends_with(".rs"))
        .map(|p| Source { text: fs::read_to_string(root().join(&p)).unwrap(), path: p })
        .collect()
}

/// The library sources: every `.rs` file under `crates/*/src`.
fn libs() -> &'static [Source] {
    static LIBS: OnceLock<Vec<Source>> = OnceLock::new();
    LIBS.get_or_init(|| {
        let crates: Vec<String> = files_under("crates")
            .into_iter()
            .filter_map(|p| p.split('/').nth(1).map(|c| format!("crates/{c}/src")))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        rust_sources(&crates.iter().map(String::as_str).collect::<Vec<_>>())
    })
}

/// The code outside the libraries whose uses count: integration tests,
/// examples, and `perf/` (which this rule reads, never edits).
fn users() -> &'static [Source] {
    static USERS: OnceLock<Vec<Source>> = OnceLock::new();
    USERS.get_or_init(|| {
        let tests: Vec<String> = files_under("crates")
            .into_iter()
            .filter_map(|p| {
                let parts: Vec<&str> = p.split('/').collect();
                (parts.get(2) == Some(&"tests")).then(|| format!("crates/{}/tests", parts[1]))
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut dirs: Vec<&str> = tests.iter().map(String::as_str).collect();
        dirs.extend(["tests", "examples", "perf/src", "perf/tests"]);
        rust_sources(&dirs)
    })
}

fn lib(path: &str) -> &'static Source {
    libs().iter().find(|s| s.path == path).unwrap_or_else(|| panic!("{path} is not a library file"))
}

fn under<'a>(sources: &'a [Source], prefix: &str) -> Vec<&'a Source> {
    sources.iter().filter(|s| s.path.starts_with(prefix)).collect()
}

/// A source lexed once: its library code for a file under `crates/*/src`,
/// all its code for any other.
struct Lexed<'a> {
    src: &'a Source,
    toks: Vec<Tok<'a>>,
}

fn lexed_lib(src: &Source) -> Lexed<'_> {
    Lexed { src, toks: library(&src.text) }
}

fn lexed_code(src: &Source) -> Lexed<'_> {
    Lexed { src, toks: code(&src.text) }
}

fn lexed_libs() -> &'static [Lexed<'static>] {
    static LEXED: OnceLock<Vec<Lexed<'static>>> = OnceLock::new();
    LEXED.get_or_init(|| libs().iter().map(lexed_lib).collect())
}

fn lexed_users() -> &'static [Lexed<'static>] {
    static LEXED: OnceLock<Vec<Lexed<'static>>> = OnceLock::new();
    LEXED.get_or_init(|| users().iter().map(lexed_code).collect())
}

/// Fails with one line per violation.
fn assert_none(rule: &str, violations: Vec<String>) {
    assert!(violations.is_empty(), "{rule}:\n  {}", violations.join("\n  "));
}

// ---------------------------------------------------------------------------
// The invariants
// ---------------------------------------------------------------------------

/// Every occurrence of `words` in `toks`, as `path:line: what`.
fn find_seq(src: &Source, toks: &[Tok], words: &[&str], what: &str) -> Vec<String> {
    (0..toks.len())
        .filter(|&i| seq(toks, i, words))
        .map(|i| format!("{}: {what}", src.at(toks[i].line)))
        .collect()
}

/// An argument list that long is asking for a context struct.
fn too_many_arguments(sources: &[&Source]) -> Vec<String> {
    sources
        .iter()
        .flat_map(|s| {
            find_seq(s, &code(&s.text), &["too_many_arguments"], "allows too_many_arguments")
        })
        .collect()
}

#[test]
fn no_too_many_arguments_allows_in_netsim_or_services() {
    let mut sources = under(libs(), "crates/netsim/");
    sources.extend(under(libs(), "crates/services/"));
    sources.extend(under(users(), "crates/services/"));
    assert_none("too_many_arguments allowed", too_many_arguments(&sources));
}

/// A full download costs what the upload side's size count says for the
/// same bytes, and the stored payload is the plaintext it decodes to:
/// `restore.rs` neither encodes nor decodes. Its per-chunk work runs in the
/// upload pipeline's per-chunk stage on coder tables the caller lends, so it
/// builds no fan-out or scratch of its own.
fn restore_codes(src: &Source) -> Vec<String> {
    let toks = library(&src.text);
    let mut found = find_seq(src, &toks, &["compress", "("], "encodes (compress)");
    for name in ["compress_into", "decompress", "run_indexed"] {
        found.extend(find_seq(src, &toks, &[name], name));
    }
    found.extend(find_seq(src, &toks, &["LzssScratch", "::", "new"], "builds an LzssScratch"));
    found
}

#[test]
fn the_restore_path_prices_the_wire_never_produces_it() {
    assert_none("restore.rs codes", restore_codes(lib("crates/storage/src/restore.rs")));
}

/// cloudsim-storage denies unsafe code and allows it once, for the
/// dispatcher's call into the SHA-extension kernel in `hash.rs`; every other
/// crate forbids it outright.
fn unsafe_allowances(sources: &[&Source]) -> Vec<String> {
    let mut found = Vec::new();
    let allows: Vec<String> = sources
        .iter()
        .flat_map(|s| find_seq(s, &code(&s.text), &["allow", "(", "unsafe_code", ")"], "allow"))
        .collect();
    if allows.len() != 1 || !allows[0].starts_with("crates/storage/src/hash.rs:") {
        found.push(format!("allow(unsafe_code) must appear once, in hash.rs; found {allows:?}"));
    }
    for s in sources.iter().filter(|s| s.path.ends_with("/src/lib.rs")) {
        let (level, why) = match s.path.as_str() {
            "crates/storage/src/lib.rs" => ("deny", "allows unsafe once, so denies it"),
            _ => ("forbid", "must forbid unsafe code"),
        };
        if find_seq(s, &code(&s.text), &["#", "!", "[", level, "(", "unsafe_code", ")"], "")
            .is_empty()
        {
            found.push(format!("{}: {why} (#![{level}(unsafe_code)])", s.at(1)));
        }
    }
    found
}

#[test]
fn one_unsafe_allowance_in_the_workspace() {
    assert_none("unsafe", unsafe_allowances(&libs().iter().collect::<Vec<_>>()));
}

/// The boundary scans and the per-chunk stage both byte pipelines share
/// hand the same constant to `auto_workers`; a second one is a second policy.
fn fan_out_thresholds(sources: &[&Source]) -> Vec<String> {
    let found: Vec<String> = sources
        .iter()
        .flat_map(|s| {
            find_seq(s, &code(&s.text), &["const", "PARALLEL_THRESHOLD_BYTES"], "defined")
        })
        .collect();
    if found.len() == 1 {
        Vec::new()
    } else {
        vec![format!("PARALLEL_THRESHOLD_BYTES must be defined once; found {found:?}")]
    }
}

#[test]
fn one_fan_out_threshold_for_both_byte_pipelines() {
    let mut sources = under(libs(), "crates/storage/");
    sources.extend(under(users(), "crates/storage/"));
    assert_none("fan-out threshold", fan_out_thresholds(&sources));
}

/// Every seed and random stream comes from one splitmix64 derivation,
/// `cloudsim_workload::seed::derive`: its multiplier, in any digit grouping,
/// appears once in library code and the vendored stubs' non-test code, in
/// `seed.rs`.
fn seed_mixes(sources: &[&Source]) -> Vec<String> {
    let found: Vec<String> = sources
        .iter()
        .flat_map(|s| {
            let toks = library(&s.text);
            let mixes = toks.iter().filter(|t| {
                let digits = t.text.to_ascii_lowercase().replace('_', "");
                let rest = digits.strip_prefix("0xbf58476d1ce4e5b9");
                t.kind == Kind::Literal && rest.is_some_and(|r| matches!(r, "" | "u64" | "u128"))
            });
            mixes.map(|t| s.at(t.line)).collect::<Vec<_>>()
        })
        .collect();
    if found.len() == 1 && found[0].starts_with("crates/workload/src/seed.rs:") {
        Vec::new()
    } else {
        vec![format!("the splitmix64 multiplier must appear once, in seed.rs; found {found:?}")]
    }
}

#[test]
fn one_seed_mix_in_the_workspace() {
    let stubs = rust_sources(&["vendor"]);
    let stubs = stubs.iter().filter(|s| s.path.split('/').nth(2) == Some("src"));
    assert_none("seed mixes", seed_mixes(&libs().iter().chain(stubs).collect::<Vec<_>>()));
}

/// The byte pipelines and the split LZSS size count fan out through
/// cloudsim-parallel, which marks its workers so that a nested fan-out runs
/// inline. A thread spawned by hand would be unmarked. Test code may spawn.
fn hand_spawned_threads(sources: &[&Source]) -> Vec<String> {
    sources
        .iter()
        .flat_map(|s| {
            let toks = library(&s.text);
            let mut found = find_seq(s, &toks, &["thread", "::", "spawn"], "spawns a thread");
            found.extend(find_seq(s, &toks, &["thread", "::", "scope"], "opens a thread scope"));
            found
        })
        .collect()
}

#[test]
fn the_storage_crates_threads_come_from_cloudsim_parallel() {
    assert_none("threads", hand_spawned_threads(&under(libs(), "crates/storage/src/")));
}

/// Every value a run or a suite returns depends only on its spec and seed:
/// the clock's one reader is `repro`'s `main`, which times an invocation
/// and reports it on stderr. Test code may read the clock.
fn clock_reads(sources: &[&Source]) -> Vec<String> {
    sources
        .iter()
        .filter(|s| s.path != "crates/bench/src/bin/repro.rs")
        .flat_map(|s| {
            let toks = library(&s.text);
            let mut found = find_seq(s, &toks, &["Instant", "::", "now"], "reads the clock");
            found.extend(find_seq(s, &toks, &["SystemTime", "::", "now"], "reads the clock"));
            found
        })
        .collect()
}

#[test]
fn the_clock_has_one_reader() {
    assert_none("clock reads", clock_reads(&libs().iter().collect::<Vec<_>>()));
}

/// A `SizeMemo` belongs to the run that owns it. One held in a static, a
/// thread-local or a lazily initialised global would carry one run's counts
/// into the next.
fn global_size_memos(sources: &[&Source]) -> Vec<String> {
    let mut found = Vec::new();
    for s in sources {
        let toks = library(&s.text);
        for (i, t) in toks.iter().enumerate() {
            let holder = matches!(t.text, "static" | "OnceLock" | "LazyLock" | "OnceCell")
                || seq(&toks, i, &["thread_local", "!"]);
            if !holder {
                continue;
            }
            let end = item_end(&toks, i).min(toks.len());
            if toks[i..end].iter().any(|t| t.is("SizeMemo")) {
                found.push(format!("{}: a SizeMemo in a {}", s.at(t.line), t.text));
            }
        }
    }
    found
}

#[test]
fn the_size_memo_is_never_process_global() {
    assert_none("global SizeMemo", global_size_memos(&libs().iter().collect::<Vec<_>>()));
}

/// A beyond-paper suite renders itself next to its result struct;
/// `report.rs` keeps the paper's own tables and figures (`PerformanceSuite`
/// is Fig. 6's). Naming another suite type there is the first step back to
/// registering a suite in six places.
fn suite_types_named(src: &Source) -> Vec<String> {
    code(&src.text)
        .iter()
        .filter(|t| t.kind == Kind::Ident && t.text.len() > 5 && t.text.ends_with("Suite"))
        .filter(|t| t.text != "PerformanceSuite")
        .map(|t| format!("{}: names {}", src.at(t.line), t.text))
        .collect()
}

#[test]
fn report_rs_names_no_suite_type() {
    assert_none("report.rs", suite_types_named(lib("crates/core/src/report.rs")));
}

/// cloudsim-parallel runs a fan-out entered from one of its own workers
/// inline, so nothing picks a thread count for a byte pipeline: the testbed
/// and the Fig. 6 suite name no pipeline at all.
fn pipelines_named(sources: &[&Source]) -> Vec<String> {
    sources
        .iter()
        .flat_map(|s| {
            code(&s.text)
                .iter()
                .filter(|t| matches!(t.text, "with_pipeline" | "UploadPipeline"))
                .map(|t| format!("{}: names {}", s.at(t.line), t.text))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn the_testbed_and_the_fig6_suite_name_no_pipeline() {
    let sources = [lib("crates/core/src/testbed.rs"), lib("crates/core/src/benchmarks.rs")];
    assert_none("pipeline named", pipelines_named(&sources));
}

/// `parse_capture` reads through one cursor: the `"key":` scrapers it
/// replaced live on only under `#[cfg(test)]`, as the reference its
/// differential tests compare against.
fn capture_scrapers(src: &Source) -> Vec<String> {
    library(&src.text)
        .iter()
        .filter(|t| matches!(t.text, "raw_field" | "u64_array_field"))
        .map(|t| format!("{}: library code names {}", src.at(t.line), t.text))
        .collect()
}

#[test]
fn the_capture_reader_has_one_cursor() {
    assert_none("capture.rs", capture_scrapers(lib("crates/services/src/capture.rs")));
}

// ---------------------------------------------------------------------------
// Every public fn has a caller, every public const and field a reader
// ---------------------------------------------------------------------------
//
// Every library crate root denies `dead_code`, so `rustc` already fails the
// build on a crate-private fn, const or variant that nothing reaches: it
// follows callers exactly and transitively. The fn, const and variant rules
// below judge only what is declared `pub`, visible outside its crate, where
// matching names across crates is the only tool. The field rule judges
// `pub(crate)` fields too: `rustc` counts a read by a derived `PartialEq` as
// a use, so a field only unit tests read passes the compiler.

/// `toks` without `use` declarations: an import is not a use.
fn without_imports<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is("use") {
            while i < toks.len() && !toks[i].is(";") {
                i += 1;
            }
        } else {
            out.push(toks[i]);
        }
        i += 1;
    }
    out
}

/// Whether the identifier at `k` uses a fn of that name: a call (`name(`,
/// `.name(`, `::name(`, `name::<T>(`), a path (`Type::name`), or a bare fn
/// value (`figure("fig2", fig2)`, `run: fleet_scale,`). A field access
/// `.name`, a struct-literal `name:`, a `let` binding and a definition are
/// not uses.
fn is_use(toks: &[Tok], k: usize, inside: &str) -> bool {
    let text = |i: Option<usize>| i.and_then(|i| toks.get(i)).map_or("", |t| t.text);
    let (prev, next) = (text(k.checked_sub(1)), text(Some(k + 1)));
    if prev == "fn" {
        return false;
    }
    if next == "(" || prev == "::" {
        return true;
    }
    if next == "::" {
        return text(Some(k + 2)) == "<";
    }
    let value = match prev {
        // `Type { a, b }` names fields, not fns.
        "(" | "," | "[" | "&" => inside != "{",
        ":" | "=" | "=>" | "return" => true,
        _ => false,
    };
    value && matches!(next, ")" | "," | ";" | "]" | "}")
}

/// The innermost open bracket around each token, by index; a closer maps
/// to the bracket it closes.
fn parents(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut stack = Vec::new();
    toks.iter()
        .enumerate()
        .map(|(i, t)| match t.text {
            "(" | "[" | "{" => {
                let parent = stack.last().copied();
                stack.push(i);
                parent
            }
            ")" | "]" | "}" => stack.pop(),
            _ => stack.last().copied(),
        })
        .collect()
}

/// Whether the item whose keyword is at `i` is `pub` or `pub(crate)`.
fn public_at(toks: &[Tok], i: usize) -> bool {
    exported_at(toks, i) || (i >= 4 && seq(toks, i - 4, &["pub", "(", "crate", ")"]))
}

/// Whether the item whose keyword is at `i` is `pub`: visible outside its
/// crate.
fn exported_at(toks: &[Tok], i: usize) -> bool {
    i >= 1 && toks[i - 1].is("pub")
}

/// The index of the name of the fn defined at `i` (the `fn` token), if it
/// is `pub` or `pub(crate)`.
fn public_fn(toks: &[Tok], i: usize) -> Option<usize> {
    let keyword = if i >= 1 && toks[i - 1].is("const") { i - 1 } else { i };
    (public_at(toks, keyword) && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident))
        .then_some(i + 1)
}

/// The index of the name of the fn defined at `i` (the `fn` token), if it
/// is `pub`.
fn exported_fn(toks: &[Tok], i: usize) -> Option<usize> {
    let keyword = if i >= 1 && toks[i - 1].is("const") { i - 1 } else { i };
    public_fn(toks, i).filter(|_| exported_at(toks, keyword))
}

/// Uses of every identifier across the library code of `libs` and all code
/// of `users`.
fn uses<'a>(libs: &[Lexed<'a>], users: &[Lexed<'a>]) -> BTreeSet<&'a str> {
    let mut used = BTreeSet::new();
    for lexed in libs.iter().chain(users) {
        let toks = without_imports(&lexed.toks);
        let parent = parents(&toks);
        for (k, t) in toks.iter().enumerate() {
            let inside = parent[k].map_or("", |o| toks[o].text);
            if t.kind == Kind::Ident && is_use(&toks, k, inside) {
                used.insert(t.text);
            }
        }
    }
    used
}

/// `path:line: name` for every `pub fn` in library code that nothing uses.
/// Uses match by name: a call of one type's `len` counts for every `len`.
/// A `pub(crate)` fn is the compiler's to judge.
fn unreached_fns(libs: &[Lexed], users: &[Lexed]) -> Vec<String> {
    let used = uses(libs, users);
    let mut found = Vec::new();
    for Lexed { src: s, toks } in libs {
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = t.is("fn").then(|| exported_fn(toks, i)).flatten().map(|n| toks[n])
            else {
                continue;
            };
            if !used.contains(name.text) {
                found.push(format!("{}: pub fn {}", s.at(name.line), name.text));
            }
        }
    }
    found
}

#[test]
fn every_public_fn_has_a_caller() {
    assert_none(
        "public fns nothing but their own unit tests reach (a deletion can strand its only callee)",
        unreached_fns(lexed_libs(), lexed_users()),
    );
}

/// The index of the name of the const defined at `i` (the `const` token),
/// if it is `pub`: a module-level or an associated const, not a `const fn`.
fn exported_const(toks: &[Tok], i: usize) -> Option<usize> {
    let named = toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident);
    (exported_at(toks, i) && named && seq(toks, i + 2, &[":"])).then_some(i + 1)
}

/// `path:line: name` for every `pub const` in library code that neither
/// library code nor `users` names outside a const declaration. Names
/// match like the fn rule's uses: an import is not a read, and a read of
/// one type's `LEN` counts for every `LEN`. A `pub(crate)` const is the
/// compiler's to judge.
fn unread_consts(libs: &[Lexed], users: &[Lexed]) -> Vec<String> {
    let mut named = BTreeSet::new();
    for lexed in libs.iter().chain(users) {
        let toks = without_imports(&lexed.toks);
        for k in 1..toks.len() {
            let declared = toks[k - 1].is("const") && seq(&toks, k + 1, &[":"]);
            if toks[k].kind == Kind::Ident && !declared {
                named.insert(toks[k].text);
            }
        }
    }
    let mut found = Vec::new();
    for Lexed { src: s, toks } in libs {
        for i in 0..toks.len() {
            let Some(name) = toks[i].is("const").then(|| exported_const(toks, i)).flatten() else {
                continue;
            };
            if !named.contains(toks[name].text) {
                found.push(format!("{}: pub const {}", s.at(toks[name].line), toks[name].text));
            }
        }
    }
    found
}

#[test]
fn every_public_const_has_a_reader() {
    assert_none(
        "public consts nothing but their own unit tests name",
        unread_consts(lexed_libs(), lexed_users()),
    );
}

/// Allowed without a reader, each with its reason.
const FIELD_ALLOWLIST: [(&str, &str); 6] = [
    ("ChunkPlan::deduplicated", "the planner tests' only view of which path a chunk took; upload_bytes alone does not tell a dedup hit from a tiny upload"),
    ("ChunkPlan::delta_encoded", "the planner tests' only view of which path a chunk took; upload_bytes alone does not tell a delta from a compressed upload"),
    ("FlowStats::payload_up", "the netsim TCP and HTTP tests check the model's payload per direction against the captured flow"),
    ("FlowStats::payload_down", "the netsim TCP and HTTP tests check the model's payload per direction against the captured flow"),
    ("PacketRecord::protocol", "perf/ builds packets with it; TransportProtocol has one variant, so nothing needs to read which"),
    ("StoreStats::stored_bytes", "the per-user side of the store's accounting identity: the fleet tests check that the users' stored bytes sum to AggregateStats::referenced_bytes"),
];

/// `(Struct, field, line, exported)` for every `pub` or `pub(crate)` field
/// of a named-field struct; `exported` is true for a `pub` one.
fn public_fields<'a>(toks: &[Tok<'a>]) -> Vec<(&'a str, &'a str, usize, bool)> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is("struct") {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| matches!(toks[j].text, "{" | "(" | ";")) else {
            continue;
        };
        if !toks[open].is("{") {
            continue;
        }
        let end = close(toks, open);
        let mut j = open + 1;
        while j < end {
            let field_end = item_end(toks, j).min(end);
            while seq(toks, j, &["#", "["]) {
                j = close(toks, j + 1) + 1;
            }
            let public = toks[j].is("pub");
            let exported = public && !toks.get(j + 1).is_some_and(|t| t.is("("));
            if public && !exported {
                j = close(toks, j + 1) + 1;
            } else if public {
                j += 1;
            }
            if public && j + 1 < field_end && toks[j + 1].is(":") {
                out.push((toks[i + 1].text, toks[j].text, toks[j].line, exported));
            }
            j = field_end.max(j + 1);
        }
    }
    out
}

/// The fields the JSON writer's `objects!` invocation writes: every name
/// in the block but the struct names, which open a brace.
fn dumped_fields<'a>(toks: &[Tok<'a>], into: &mut BTreeSet<&'a str>) {
    for k in 0..toks.len() {
        if !seq(toks, k, &["objects", "!", "{"]) {
            continue;
        }
        for j in k + 3..close(toks, k + 2) {
            if toks[j].kind == Kind::Ident && !toks[j + 1].is("{") {
                into.insert(toks[j].text);
            }
        }
    }
}

/// `path:line: Struct::field` for every `pub` or `pub(crate)` field of a
/// library struct that no code reads with `.field` and the JSON writer does
/// not write. Crate-private fields stay with this rule: the compiler counts
/// a derived `PartialEq` as their reader.
fn unread_fields(libs: &[Lexed], users: &[Lexed]) -> Vec<String> {
    let mut read = BTreeSet::new();
    for Lexed { toks, .. } in libs.iter().chain(users) {
        for k in 1..toks.len() {
            let next = toks.get(k + 1).map_or("", |t| t.text);
            let write = next == "="
                || (next.len() >= 2
                    && next.ends_with('=')
                    && !matches!(next, "==" | "!=" | "<=" | ">="));
            if toks[k - 1].is(".")
                && toks[k].kind == Kind::Ident
                && next != "("
                && next != "::"
                && !write
            {
                read.insert(toks[k].text);
            }
        }
    }
    for Lexed { toks, .. } in libs {
        dumped_fields(toks, &mut read);
    }
    let mut found = Vec::new();
    for Lexed { src, toks } in libs {
        for (ty, field, line, _) in public_fields(toks) {
            let path = format!("{ty}::{field}");
            if !read.contains(field) && !FIELD_ALLOWLIST.iter().any(|(n, _)| *n == path) {
                found.push(format!("{}: pub field {path}", src.at(line)));
            }
        }
    }
    found
}

#[test]
fn every_public_field_has_a_reader() {
    assert_none(
        "public fields that nothing reads and no --json dump writes",
        unread_fields(lexed_libs(), lexed_users()),
    );
}

// ---------------------------------------------------------------------------
// Every public enum variant is built
// ---------------------------------------------------------------------------

/// Allowed unbuilt, each with its reason.
const VARIANT_ALLOWLIST: [(&str, &str); 0] = [];

/// `(Enum, Variant, line)` for every variant of every `pub enum` in `toks`.
fn public_variants<'a>(toks: &[Tok<'a>]) -> Vec<(&'a str, &'a str, usize)> {
    let mut out = Vec::new();
    for i in 1..toks.len().saturating_sub(1) {
        if !(toks[i].is("enum") && toks[i - 1].is("pub")) {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| toks[j].is("{")) else { continue };
        let end = close(toks, open);
        let mut j = open + 1;
        while j < end {
            let variant_end = item_end(toks, j).min(end);
            let mut k = j;
            while seq(toks, k, &["#", "["]) {
                k = close(toks, k + 1) + 1;
            }
            if k < variant_end && toks[k].kind == Kind::Ident {
                out.push((toks[i + 1].text, toks[k].text, toks[k].line));
            }
            j = variant_end.max(j + 1);
        }
    }
    out
}

/// The start of the path `a::b::c` that ends at `end`.
fn path_start(toks: &[Tok], mut end: usize) -> usize {
    while end >= 2 && toks[end - 1].is("::") && toks[end - 2].kind == Kind::Ident {
        end -= 2;
    }
    end
}

/// Whether the path `toks[from..=last]` stands in a pattern: before a match
/// arm's `=>`, in an or-pattern, after `let` (`if let`, `while let`,
/// `let … else`), or as the pattern of `matches!` — directly or nested in a
/// tuple, tuple-struct or struct pattern. A construction is anything else.
fn in_pattern(toks: &[Tok], parent: &[Option<usize>], mut from: usize, last: usize) -> bool {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text);
    let mut next = last + 1;
    if matches!(text(next), "(" | "{") {
        next = close(toks, next) + 1;
    }
    loop {
        match text(next) {
            "=>" | "|" => return true,
            "=" => return from > 0 && matches!(text(from - 1), "let" | "|"),
            "," | ")" | "]" | "}" => {
                let Some(open) = parent.get(next).copied().flatten() else { return false };
                if text(open) == "(" && open >= 2 && seq(toks, open - 2, &["matches", "!"]) {
                    let mut depth = 0usize;
                    let comma = (open + 1..toks.len()).find(|&c| {
                        match text(c) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                        depth == 0 && text(c) == ","
                    });
                    return comma.is_some_and(|c| c < from);
                }
                // Step out: the enclosing group, with the path it follows.
                let named = open > 0 && text(open) != "[" && toks[open - 1].kind == Kind::Ident;
                from = if named { path_start(toks, open - 1) } else { open };
                next = close(toks, open) + 1;
            }
            _ => return false,
        }
    }
}

/// `path:line: Enum::Variant` for every variant of a `pub enum` in library
/// code that neither library code nor `runners` constructs. `Enum::Variant`
/// counts wherever the enum's name is the path's last segment but one, and
/// `Self::Variant` for every enum with a variant of that name. A
/// `pub(crate) enum`'s variants are the compiler's to judge.
fn unbuilt_variants(libs: &[Lexed], runners: &[Lexed]) -> Vec<String> {
    let variants: Vec<(&Source, (&str, &str, usize))> = libs
        .iter()
        .flat_map(|Lexed { src, toks }| public_variants(toks).into_iter().map(move |v| (*src, v)))
        .collect();
    let enums: BTreeSet<&str> = variants.iter().map(|(_, (e, _, _))| *e).collect();
    let mut built = BTreeSet::new();
    for Lexed { toks, .. } in libs.iter().chain(runners) {
        let parent = parents(toks);
        for k in 2..toks.len() {
            let owner = toks[k - 2].text;
            if toks[k - 1].is("::")
                && toks[k].kind == Kind::Ident
                && (owner == "Self" || enums.contains(owner))
                && !in_pattern(toks, &parent, path_start(toks, k), k)
            {
                built.insert((owner, toks[k].text));
            }
        }
    }
    variants
        .iter()
        .filter(|(_, (e, v, _))| !built.contains(&(*e, *v)) && !built.contains(&("Self", *v)))
        .map(|(s, (e, v, line))| (s.at(*line), format!("{e}::{v}")))
        .filter(|(_, name)| !VARIANT_ALLOWLIST.iter().any(|(n, _)| n == name))
        .map(|(at, name)| format!("{at}: {name}"))
        .collect()
}

/// `perf/src` and the examples, as library code: what runs, not what tests.
fn lexed_runners() -> Vec<Lexed<'static>> {
    users()
        .iter()
        .filter(|s| s.path.starts_with("perf/src/") || s.path.starts_with("examples/"))
        .map(lexed_lib)
        .collect()
}

#[test]
fn every_public_enum_variant_is_built() {
    assert_none(
        "pub enum variants that library code, perf/src and the examples only match, never build",
        unbuilt_variants(lexed_libs(), &lexed_runners()),
    );
}

// ---------------------------------------------------------------------------
// A crate root re-exports only what code reaches through it
// ---------------------------------------------------------------------------

/// The leaves a crate root re-exports — `pub use path::Leaf;`, each name
/// of a `pub use path::{A, B as C};` group (`A`, `C`) — as tokens.
fn root_reexports<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut leaves = Vec::new();
    for i in (0..toks.len()).filter(|&i| seq(toks, i, &["pub", "use"])) {
        let end = (i..toks.len()).find(|&j| toks[j].is(";")).unwrap_or(toks.len());
        for j in i + 2..end {
            let next = toks.get(j + 1).map_or("", |t| t.text);
            if toks[j].kind == Kind::Ident && !toks[j].is("self") && matches!(next, "," | "}" | ";")
            {
                leaves.push(toks[j]);
            }
        }
    }
    leaves
}

/// The names `toks` reaches through the root `root` names (a crate, or
/// `crate` inside it): `root::Name…`, and the first segment of each tree of
/// a `root::{…}` group.
fn named_through<'a>(toks: &[Tok<'a>], root: &str, into: &mut BTreeSet<&'a str>) {
    for i in (0..toks.len()).filter(|&i| seq(toks, i, &[root, "::"])) {
        let Some(next) = toks.get(i + 2) else { continue };
        if next.kind == Kind::Ident {
            into.insert(next.text);
        } else if next.is("{") {
            let end = close(toks, i + 2);
            let parent = parents(&toks[i + 2..end]);
            for (k, t) in toks[i + 3..end].iter().enumerate() {
                let first = matches!(toks[i + 2 + k].text, "{" | ",") && parent[k + 1] == Some(0);
                if t.kind == Kind::Ident && first {
                    into.insert(t.text);
                }
            }
        }
    }
}

/// `path:line: Name` for every leaf a crate root (`crates/*/src/lib.rs`,
/// with the crate's name as code writes it) re-exports that no code names
/// through that root: other code by the crate's name, the crate's own
/// library code by `crate::`. A re-export nothing reaches only widens the
/// root; the item stays at its module path.
fn unreached_reexports(roots: &[(String, &Lexed)], code: &[&Lexed]) -> Vec<String> {
    let mut found = Vec::new();
    for (krate, root) in roots {
        let own = root.src.path.trim_end_matches("lib.rs");
        let mut named = BTreeSet::new();
        for Lexed { src, toks } in code {
            let via = if src.path.starts_with(own) { "crate" } else { krate.as_str() };
            named_through(toks, via, &mut named);
        }
        for leaf in root_reexports(&root.toks) {
            if !named.contains(leaf.text) {
                found.push(format!("{}: pub use {}", root.src.at(leaf.line), leaf.text));
            }
        }
    }
    found
}

#[test]
fn every_root_reexport_is_named_through_the_root() {
    let libs = lexed_libs();
    let roots: Vec<(String, &Lexed)> = (libs.iter())
        .filter(|l| l.src.path.starts_with("crates/") && l.src.path.ends_with("/src/lib.rs"))
        .map(|l| (crate_name(&l.src.path), l))
        .collect();
    let code: Vec<&Lexed> = libs.iter().chain(lexed_users()).collect();
    assert_none(
        "crate-root re-exports nothing names through the crate root",
        unreached_reexports(&roots, &code),
    );
}

// ---------------------------------------------------------------------------
// What only perf/ calls stays fenced
// ---------------------------------------------------------------------------

const DOC_HIDDEN: [&str; 7] = ["#", "[", "doc", "(", "hidden", ")", "]"];

/// The crate a library file belongs to, as code names it
/// (`crates/storage/src/x.rs` is `cloudsim_storage`).
fn crate_name(path: &str) -> String {
    let dir: Vec<&str> = path.split('/').take(2).collect();
    let manifest =
        fs::read_to_string(root().join(dir.join("/")).join("Cargo.toml")).unwrap_or_default();
    let name = manifest.lines().find_map(|l| l.strip_prefix("name = \"")).unwrap_or_default();
    name.trim_end_matches('"').replace('-', "_")
}

fn is_perf_pins(src: &Source) -> bool {
    src.path.ends_with("/perf_pins.rs")
}

/// The `#[doc(hidden)] pub fn` items of `toks`, as `(label, name, range)`:
/// `Type::name` for a method, the bare name otherwise.
fn hidden_fns<'a>(toks: &[Tok<'a>]) -> Vec<(String, &'a str, Range<usize>)> {
    let parent = parents(toks);
    let mut found = Vec::new();
    for i in (0..toks.len()).filter(|&i| seq(toks, i, &DOC_HIDDEN)) {
        let mut head = i;
        while seq(toks, head, &["#", "["]) {
            head = close(toks, head + 1) + 1;
        }
        if !seq(toks, head, &["pub", "fn"]) || head + 2 >= toks.len() {
            continue;
        }
        let name = toks[head + 2].text;
        let owner = parent[head].and_then(|open| {
            let start = (0..open).rev().find(|&j| toks[j].is("impl"))?;
            let mut angle = 0usize;
            let mut last = None;
            for t in &toks[start + 1..open] {
                match t.text {
                    "<" => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    _ if angle == 0 && t.kind == Kind::Ident && t.text != "for" => last = Some(t),
                    _ => {}
                }
            }
            last.map(|t| t.text)
        });
        let label = owner.map_or(name.to_string(), |owner| format!("{owner}::{name}"));
        found.push((label, name, i..item_end(toks, i)));
    }
    found
}

/// What a `perf_pins.rs` module defines or re-exports at its top level: the
/// names after `fn`, `struct` and `enum`, and the leaves of a `pub use`.
fn pins_defined<'a>(toks: &[Tok<'a>]) -> Vec<&'a str> {
    let (mut names, mut depth, mut reexport) = (Vec::new(), 0usize, false);
    for (i, t) in toks.iter().enumerate() {
        let next = toks.get(i + 1).map_or("", |t| t.text);
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "use" if depth == 0 => reexport = i > 0 && toks[i - 1].is("pub"),
            ";" if depth == 0 => reexport = false,
            "fn" | "struct" | "enum" if depth == 0 && !reexport => names.push(next),
            _ if reexport && t.kind == Kind::Ident && matches!(next, ";" | "," | "}") => {
                names.push(t.text)
            }
            _ => {}
        }
    }
    names
}

/// The names ARCHITECTURE's "Pinned by `perf/`" list gives, with their
/// lines: the first backticked word of each `- ` line under that bullet.
fn pinned_list(doc: &Source) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = doc.text.lines().collect();
    let Some(start) = lines.iter().position(|l| l.contains("**Pinned by `perf/`**")) else {
        return Vec::new();
    };
    lines[start + 1..]
        .iter()
        .enumerate()
        .take_while(|(_, l)| !l.starts_with("* ") && !l.starts_with('#'))
        .filter_map(|(n, l)| Some((start + n + 2, l.trim_start().strip_prefix("- `")?)))
        .filter_map(|(n, l)| Some((n, l.split('`').next()?)))
        .collect()
}

/// Every pinned item of `libs`, labelled as the list names it:
/// `crate::perf_pins::item` for what a `perf_pins` module holds,
/// `Type::method` for a hidden method. The list's other entries
/// (`crate::module::item`) are pinned in place: they stay where they are,
/// and library code may not call them either.
fn pinned_items<'a>(libs: &[Lexed<'a>]) -> BTreeMap<String, &'a str> {
    let mut items = BTreeMap::new();
    for Lexed { src, toks } in libs {
        if is_perf_pins(src) {
            for name in pins_defined(toks) {
                items.insert(format!("{}::perf_pins::{name}", crate_name(&src.path)), name);
            }
        } else {
            items.extend(hidden_fns(toks).into_iter().map(|(label, name, _)| (label, name)));
        }
    }
    items
}

/// `path:line: …` for each library use of a pinned item outside the pinned
/// code itself — a call or path of a fn (`name(`, `a::name`), any mention
/// of a type outside the file that defines it, and any path through
/// `perf_pins` — and for each difference between the list and the code.
fn unfenced_pins(libs: &[Lexed], doc: &Source) -> Vec<String> {
    let items = pinned_items(libs);
    let listed = pinned_list(doc);
    let mut found = Vec::new();
    let mut names: BTreeSet<&str> = items.values().copied().collect();
    for (line, entry) in &listed {
        let (pinned, method) = (entry.contains("::perf_pins::"), entry.split("::").count() == 2);
        let name = entry.rsplit("::").next().unwrap_or_default();
        if pinned || method {
            if !items.contains_key(*entry) {
                found.push(format!("{}: `{entry}` is listed but not in the code", doc.at(*line)));
            }
            continue;
        }
        let (krate, module) = entry
            .rsplit_once("::")
            .map_or(("", ""), |(p, _)| p.split_once("::").map_or((p, "lib"), |(k, m)| (k, m)));
        let home = libs.iter().find(|l| {
            l.src.path.ends_with(&format!("/src/{module}.rs")) && crate_name(&l.src.path) == krate
        });
        let defined = home.is_some_and(|l| {
            (1..l.toks.len()).any(|k| {
                l.toks[k].is(name) && matches!(l.toks[k - 1].text, "fn" | "struct" | "enum")
            })
        });
        if !defined {
            found.push(format!("{}: `{entry}` is listed but not in the code", doc.at(*line)));
        }
        names.insert(name);
    }
    for label in items.keys().filter(|l| !listed.iter().any(|(_, e)| e == l)) {
        found.push(format!("{}: `{label}` is pinned but not listed", doc.path));
    }
    for Lexed { src, toks } in libs.iter().filter(|l| !is_perf_pins(l.src)) {
        let toks = without_imports(toks);
        let fenced: Vec<Range<usize>> = hidden_fns(&toks).into_iter().map(|(.., r)| r).collect();
        let text = |i: Option<usize>| i.and_then(|i| toks.get(i)).map_or("", |t| t.text);
        let types_here: BTreeSet<&str> = (1..toks.len())
            .filter(|&k| matches!(toks[k - 1].text, "struct" | "enum"))
            .map(|k| toks[k].text)
            .collect();
        for (k, t) in toks.iter().enumerate() {
            if fenced.iter().any(|r| r.contains(&k)) {
                continue;
            }
            let (prev, next) = (text(k.checked_sub(1)), text(Some(k + 1)));
            let named = if t.is("perf_pins") {
                prev != "mod"
            } else if !names.contains(t.text) {
                false
            } else if t.text.starts_with(|c: char| c.is_ascii_uppercase()) {
                !types_here.contains(t.text)
            } else {
                (next == "(" && prev != "fn") || (prev == "::" && next != "::")
            };
            if named {
                found.push(format!("{}: library code uses {}", src.at(t.line), t.text));
            }
        }
    }
    found.extend(ignored_parameters(libs, &listed));
    found
}

/// `path:line: …` for each library `pub fn` outside a `perf_pins` module
/// that ignores a parameter (`_` or `_name`), unless it is a hidden method
/// the pinned list names: an ignored argument is pinned surface.
fn ignored_parameters(libs: &[Lexed], listed: &[(usize, &str)]) -> Vec<String> {
    let mut found = Vec::new();
    for Lexed { src, toks } in libs.iter().filter(|l| !is_perf_pins(l.src)) {
        let (parent, hidden) = (parents(toks), hidden_fns(toks));
        let pinned = |i: usize| {
            hidden
                .iter()
                .any(|(label, _, r)| r.contains(&i) && listed.iter().any(|(_, e)| e == label))
        };
        for i in (0..toks.len()).filter(|&i| toks[i].is("fn") && !pinned(i)) {
            let Some(name) = public_fn(toks, i) else { continue };
            // The parameter list: the first `(` outside the generics.
            let mut angle = 0isize;
            let Some(open) = (name + 1..toks.len()).find(|&k| {
                angle += toks[k].is("<") as isize - toks[k].is(">") as isize;
                angle == 0 && toks[k].is("(")
            }) else {
                continue;
            };
            for k in open + 1..close(toks, open) {
                let param = parent[k] == Some(open) && matches!(toks[k - 1].text, "(" | ",");
                if param && toks[k].text.starts_with('_') && toks[k + 1].is(":") {
                    let (name, line) = (toks[name].text, src.at(toks[k].line));
                    found.push(format!("{line}: pub fn {name} ignores `{}`", toks[k].text));
                }
            }
        }
    }
    found
}

fn architecture() -> Source {
    let path = "docs/ARCHITECTURE.md";
    Source::new(path, &fs::read_to_string(root().join(path)).unwrap())
}

#[test]
fn library_code_never_calls_what_only_perf_calls() {
    assert_none(
        "pinned items: library uses outside #[cfg(test)], or list and code disagree",
        unfenced_pins(lexed_libs(), &architecture()),
    );
}

// ---------------------------------------------------------------------------
// Docs name only paths that exist
// ---------------------------------------------------------------------------

const PATH_EXTENSIONS: [&str; 6] = [".rs", ".md", ".toml", ".sh", ".yml", ".json"];

/// The repository-file-like words of `text`: runs of path characters that
/// end in a source or document extension.
fn path_words(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')))
        .map(|w| w.trim_end_matches('.').trim_start_matches("./"))
        .filter(|w| PATH_EXTENSIONS.iter().any(|e| w.ends_with(e)) && !w.starts_with('.'))
        .collect()
}

/// Whether `word` names a file of `files`: as a full path, or as the
/// suffix of exactly one, read with or without its `src/` directory
/// (`compress.rs`, `services/client.rs`).
fn resolves(word: &str, files: &[String]) -> bool {
    let suffix = format!("/{word}");
    files.iter().any(|f| f == word)
        || files
            .iter()
            .filter(|f| f.ends_with(&suffix) || f.replace("/src/", "/").ends_with(&suffix))
            .count()
            == 1
}

fn dangling_paths(docs: &[Source], files: &[String]) -> Vec<String> {
    let mut found = Vec::new();
    for doc in docs {
        let lines: Vec<(usize, String)> = if doc.path.ends_with(".rs") {
            lex(&doc.text)
                .iter()
                .filter(|t| t.text.starts_with("//!"))
                .map(|t| (t.line, t.text.to_string()))
                .collect()
        } else {
            doc.text.lines().enumerate().map(|(n, l)| (n + 1, l.to_string())).collect()
        };
        // A fenced block holds commands and examples, whose file names are
        // outputs, not repository files.
        let mut fenced = false;
        for (line, text) in &lines {
            if text.trim_start_matches("//!").trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if fenced {
                continue;
            }
            for word in path_words(text) {
                if !resolves(word, files) {
                    found.push(format!("{}: `{word}` names no repository file", doc.at(*line)));
                }
            }
        }
    }
    found
}

#[test]
fn docs_name_only_paths_that_exist() {
    let files: Vec<String> = files_under("");
    let mut docs: Vec<Source> = ["README.md", "docs/ARCHITECTURE.md"]
        .iter()
        .map(|p| Source { path: p.to_string(), text: fs::read_to_string(root().join(p)).unwrap() })
        .collect();
    docs.extend(libs().iter().map(|s| Source::new(&s.path, &s.text)));
    assert_none("dangling paths in the docs", dangling_paths(&docs, &files));
}

// ---------------------------------------------------------------------------
// The docs cannot grow back
// ---------------------------------------------------------------------------

/// Per document: its most lines, and its most references to a numbered PR
/// (history belongs in CHANGES.md and git). A change may lower a ceiling,
/// never raise it.
const DOC_CEILINGS: [(&str, usize, usize); 3] = [
    ("README.md", 726, 0),
    ("docs/ARCHITECTURE.md", 1_090, 8),
    (".claude/skills/verify/SKILL.md", 219, 0),
];

/// The references in `text` to a numbered PR: `PR` standing alone, then
/// whitespace (a line break included) and a digit.
fn pr_references(text: &str) -> usize {
    let b = text.as_bytes();
    (0..b.len())
        .filter(|&i| b[i..].starts_with(b"PR") && (i == 0 || !is_ident_byte(b[i - 1])))
        .filter(|&i| {
            let gap = b[i + 2..].iter().take_while(|c| c.is_ascii_whitespace()).count();
            gap > 0 && b.get(i + 2 + gap).is_some_and(u8::is_ascii_digit)
        })
        .count()
}

fn docs_over_ceilings(docs: &[Source], ceilings: &[(&str, usize, usize)]) -> Vec<String> {
    let mut found = Vec::new();
    for (path, max_lines, max_prs) in ceilings {
        let doc = docs.iter().find(|d| d.path == *path).expect("every ceiling has its document");
        let (lines, prs) = (doc.text.lines().count(), pr_references(&doc.text));
        if lines > *max_lines {
            found.push(format!("{path}: {lines} lines, ceiling {max_lines}"));
        }
        if prs > *max_prs {
            found.push(format!("{path}: {prs} \"PR n\" references, ceiling {max_prs}"));
        }
    }
    found
}

#[test]
fn the_docs_stay_under_their_ceilings() {
    let docs: Vec<Source> = DOC_CEILINGS
        .iter()
        .map(|(p, ..)| Source::new(p, &fs::read_to_string(root().join(p)).unwrap()))
        .collect();
    assert_none("docs over their ceilings", docs_over_ceilings(&docs, &DOC_CEILINGS));
}

// ---------------------------------------------------------------------------
// The vendor table names exactly the stubs
// ---------------------------------------------------------------------------

/// Where `vendor/README.md`'s stub table (the rows whose first cell is a
/// backticked name), the directories under `vendor/` (read from `files`)
/// and the root `manifest`'s workspace members disagree.
fn vendor_mismatches(readme: &Source, files: &[String], manifest: &str) -> Vec<String> {
    let dirs: BTreeSet<&str> =
        files.iter().filter_map(|f| Some(f.strip_prefix("vendor/")?.split_once('/')?.0)).collect();
    let members = &manifest[manifest.find("members = [").unwrap_or(0)..];
    let members = &members[..members.find(']').unwrap_or(0)];
    let (mut found, mut rows) = (Vec::new(), BTreeSet::new());
    for (n, line) in readme.text.lines().enumerate() {
        let Some(stub) = line.strip_prefix("| `").and_then(|row| row.split('`').next()) else {
            continue;
        };
        if !dirs.contains(stub) || !rows.insert(stub) {
            found.push(format!("{}: row `{stub}` has no directory of its own", readme.at(n + 1)));
        }
    }
    for dir in dirs {
        if !rows.contains(dir) {
            found.push(format!("vendor/{dir}: no row in {}", readme.path));
        }
        if !members.contains(&format!("\"vendor/{dir}\"")) {
            found.push(format!("vendor/{dir}: not a workspace member"));
        }
    }
    found
}

#[test]
fn the_vendor_table_names_exactly_the_stubs() {
    let readme = Source::new(
        "vendor/README.md",
        &fs::read_to_string(root().join("vendor/README.md")).unwrap(),
    );
    let manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    assert_none(
        "the vendor table, vendor/ and the workspace members disagree",
        vendor_mismatches(&readme, &files_under("vendor"), &manifest),
    );
}

// ---------------------------------------------------------------------------
// Each mutant names text that occurs once
// ---------------------------------------------------------------------------

const MUTANT_HEADER: &str = "file\tsource\treplacement\ttest";

/// A field of `tests/mutants.tsv` with its escapes undone: `\n`, `\t` and
/// `\\` stand for a line break, a tab and a backslash.
fn unescape(field: &str) -> String {
    let parts: Vec<String> =
        field.split("\\\\").map(|p| p.replace("\\n", "\n").replace("\\t", "\t")).collect();
    parts.join("\\")
}

/// `path:line: …` for each row of the mutant `table` (comment lines start
/// with `#`; the first other line is the header) that is not four fields
/// with a test, names a file `read` cannot give, or whose source text does
/// not occur exactly once in that file.
fn mutant_mismatches(table: &Source, read: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let mut found = Vec::new();
    let mut rows = table.text.lines().enumerate().filter(|(_, l)| !l.starts_with('#'));
    if rows.next().map(|(_, header)| header) != Some(MUTANT_HEADER) {
        found.push(format!("{}: the header is not `{MUTANT_HEADER}`", table.path));
    }
    for (n, row) in rows {
        let at = table.at(n + 1);
        let fields: Vec<&str> = row.split('\t').collect();
        let [file, source, _, test] = fields[..] else {
            found.push(format!("{at}: {} fields, not 4", fields.len()));
            continue;
        };
        if test.is_empty() {
            found.push(format!("{at}: names no test"));
        }
        let Some(text) = read(file) else {
            found.push(format!("{at}: no file `{file}`"));
            continue;
        };
        let source = unescape(source);
        let count = if source.is_empty() { 0 } else { text.matches(&source).count() };
        if count != 1 {
            found.push(format!("{at}: the source text occurs {count} times in {file}"));
        }
    }
    found
}

#[test]
fn each_mutant_names_text_that_occurs_once() {
    let path = "tests/mutants.tsv";
    let table = Source::new(path, &fs::read_to_string(root().join(path)).unwrap());
    assert_none(
        "mutant rows whose text a refactor moved",
        mutant_mismatches(&table, |file| fs::read_to_string(root().join(file)).ok()),
    );
}

// ---------------------------------------------------------------------------
// The library is std-only
// ---------------------------------------------------------------------------

/// `path:line: name` for each dependency of a crate manifest that is not a
/// package among `manifests`; a `[dev-dependencies]` entry may also name
/// the vendored `proptest`. A `[dependencies.name]` table is one entry.
fn foreign_dependencies(manifests: &[Source]) -> Vec<String> {
    let crates: BTreeSet<&str> = manifests
        .iter()
        .filter_map(|m| {
            let line = m.text.lines().find(|l| l.starts_with("name = \""))?;
            line.split('"').nth(1)
        })
        .collect();
    let mut found = Vec::new();
    for m in manifests {
        let mut section = "";
        for (n, line) in m.text.lines().enumerate() {
            let (name, table) = match line.strip_prefix('[') {
                Some(header) => {
                    section = header.trim_end_matches(']');
                    match section.split_once("dependencies.") {
                        Some((kind, name)) => (name, &section[..kind.len() + "dependencies".len()]),
                        None => continue,
                    }
                }
                None => match line.split_once('=') {
                    Some((name, _)) if !line.starts_with('#') => (name.trim(), section),
                    _ => continue,
                },
            };
            let allowed =
                crates.contains(name) || (table == "dev-dependencies" && name == "proptest");
            if table.ends_with("dependencies") && !allowed {
                found.push(format!("{}: {name}", m.at(n + 1)));
            }
        }
    }
    found
}

#[test]
fn the_library_depends_on_nothing_outside_the_workspace() {
    let manifests: Vec<Source> = files_under("crates")
        .iter()
        .filter(|p| p.split('/').nth(2) == Some("Cargo.toml"))
        .map(|p| Source::new(p, &fs::read_to_string(root().join(p)).unwrap()))
        .collect();
    assert!(manifests.len() > 1, "found no crate manifests");
    assert_none("dependencies from outside crates/", foreign_dependencies(&manifests));
}

// ---------------------------------------------------------------------------
// The size figure
// ---------------------------------------------------------------------------

/// What 1c deletes: the pinned items, and their counted lines inside the
/// `perf_pins` modules and the hidden methods.
fn pinned_surface(libs: &[Lexed]) -> (usize, usize) {
    let lines = libs
        .iter()
        .map(|Lexed { src, toks }| {
            if is_perf_pins(src) {
                return counted_lines(toks);
            }
            let ranges = hidden_fns(toks).into_iter().map(|(.., r)| r);
            counted_lines(&ranges.flat_map(|r| toks[r].to_vec()).collect::<Vec<_>>())
        })
        .sum();
    (pinned_items(libs).len(), lines)
}

/// The library items declared `pub`, visible outside their crate:
/// `(fns, consts, fields)`.
fn exported_surface(libs: &[Lexed]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for Lexed { toks, .. } in libs {
        for i in 0..toks.len() {
            counts.0 += (toks[i].is("fn") && exported_fn(toks, i).is_some()) as usize;
            counts.1 += (toks[i].is("const") && exported_const(toks, i).is_some()) as usize;
        }
        counts.2 += public_fields(toks).iter().filter(|(.., exported)| *exported).count();
    }
    counts
}

#[test]
fn counted_library_lines() {
    let total: usize = lexed_libs().iter().map(|l| counted_lines(&l.toks)).sum();
    println!("counted library lines: {total} (crates/*/src, outside every #[cfg(test)] item)");
    let (items, lines) = pinned_surface(lexed_libs());
    println!("pinned surface: {items} items, {lines} counted lines (perf_pins modules and hidden methods)");
    let (fns, consts, fields) = exported_surface(lexed_libs());
    println!("exported surface: {fns} fns, {consts} consts, {fields} fields");
    assert!(total > 0);
}

// ---------------------------------------------------------------------------
// Each rule rejects a fixture that breaks it
// ---------------------------------------------------------------------------

fn one(path: &str, text: &str) -> Source {
    Source::new(path, text)
}

#[test]
fn the_lexer_keeps_braces_in_literals_and_comments_out_of_the_item_skipper() {
    let src = r####"
#[cfg(test)]
fn helper() -> char {
    let _ = r#"}}} { "#;
    let _ = "\"}";
    let _ = b'{';
    /* } /* nested } */ */
    // }
    '{'
}
fn library_fn<'a>(x: &'a str) -> &'a str { x }
"####;
    let names: Vec<&str> =
        library(src).iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text).collect();
    assert_eq!(names, ["fn", "library_fn", "x", "str", "str", "x"]);
    assert_eq!(counted_lines(&library(src)), 1);
}

#[test]
fn the_filter_skips_test_items_wherever_they_stand() {
    let src = "
#[cfg(test)]
pub(crate) fn above() -> u8 { 1 }
pub fn kept() {}
#[cfg(test)]
thread_local! { static X: u8 = 0; }
fn counted() {
    #[cfg(test)]
    X.with(|x| drop(x));
    let after = 1;
}
#[cfg(test)]
mod tests { fn t() {} }
pub fn last() {}
";
    let names: Vec<&str> = library(src)
        .iter()
        .filter(|t| t.kind == Kind::Ident && t.text != "fn" && t.text != "pub")
        .map(|t| t.text)
        .collect();
    assert_eq!(names, ["kept", "counted", "let", "after", "last"]);
}

#[test]
fn each_invariant_rejects_its_fixture() {
    let allow = one("crates/services/src/x.rs", "#[allow(clippy::too_many_arguments)]\nfn f() {}");
    let mentioned = one("crates/services/src/y.rs", "// too_many_arguments\nfn f() {}");
    assert_eq!(
        too_many_arguments(&[&allow, &mentioned]),
        ["crates/services/src/x.rs:1: allows too_many_arguments"]
    );

    let restore = one(
        "crates/storage/src/restore.rs",
        "fn f() { let s = LzssScratch::new(); }\n#[cfg(test)]\nmod tests { fn t() { decompress(); } }",
    );
    assert_eq!(restore_codes(&restore), ["crates/storage/src/restore.rs:1: builds an LzssScratch"]);

    let hash = one("crates/storage/src/hash.rs", "#[allow(unsafe_code)]\nfn f() {}");
    let other =
        one("crates/net/src/lib.rs", "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\nfn g() {}");
    let storage = one("crates/storage/src/lib.rs", "#![deny(unsafe_code)]");
    let found = unsafe_allowances(&[&hash, &other, &storage]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[1].starts_with("crates/net/src/lib.rs:1: must forbid unsafe code"), "{found:?}");

    let a = one("crates/storage/src/a.rs", "pub const PARALLEL_THRESHOLD_BYTES: usize = 1;");
    let b = one("crates/storage/src/b.rs", "const PARALLEL_THRESHOLD_BYTES: usize = 2;");
    assert_eq!(fan_out_thresholds(&[&a]).len(), 0);
    assert_eq!(fan_out_thresholds(&[&a, &b]).len(), 1);

    let seed = one(
        "crates/workload/src/seed.rs",
        "const M: u64 = 0xBF58476D1CE4E5B9;\n#[cfg(test)]\nconst T: u64 = 0xBF58476D1CE4E5B9;",
    );
    let copy = one(
        "crates/storage/src/c.rs",
        "// 0xBF58476D1CE4E5B9\nfn g() -> u64 { 0xbf58_476d_1ce4_e5b9u64 }",
    );
    let stub = one(
        "vendor/proptest/src/lib.rs",
        "fn next() -> u64 { 0xBF58476D1CE4E5B9 }\n#[cfg(test)]\nfn t() -> u64 { 0xBF58476D1CE4E5B9 }",
    );
    assert_eq!(seed_mixes(&[&seed]).len(), 0);
    assert_eq!(
        seed_mixes(&[&seed, &copy, &stub]),
        ["the splitmix64 multiplier must appear once, in seed.rs; found \
             [\"crates/workload/src/seed.rs:1\", \"crates/storage/src/c.rs:2\", \
             \"vendor/proptest/src/lib.rs:1\"]"]
    );

    let spawn = one(
        "crates/storage/src/p.rs",
        "#[cfg(test)]\nfn t() { std::thread::spawn(|| ()); }\nfn f() {\n    std::thread::scope(|_| ());\n}",
    );
    assert_eq!(
        hand_spawned_threads(&[&spawn]),
        ["crates/storage/src/p.rs:4: opens a thread scope"]
    );

    let repro = one("crates/bench/src/bin/repro.rs", "fn main() { let t = Instant::now(); }");
    let timed = one(
        "crates/services/src/t.rs",
        "#[cfg(test)]\nfn t() { Instant::now(); }\nfn f() -> Duration {\n    std::time::Instant::now().elapsed()\n}\nfn g() { SystemTime::now(); }",
    );
    assert_eq!(
        clock_reads(&[&repro, &timed]),
        [
            "crates/services/src/t.rs:4: reads the clock",
            "crates/services/src/t.rs:6: reads the clock"
        ]
    );

    let memo = one(
        "crates/core/src/m.rs",
        "fn ok() { let m = SizeMemo::default(); }\nthread_local! { static M: SizeMemo = SizeMemo::default(); }\nstatic L: LazyLock<SizeMemo> = LazyLock::new(SizeMemo::default);",
    );
    let found = global_size_memos(&[&memo]);
    assert!(found.iter().all(|f| !f.contains(":1:")) && found.len() >= 2, "{found:?}");
    assert!(found[0].starts_with("crates/core/src/m.rs:2:"), "{found:?}");

    let report = one(
        "crates/core/src/report.rs",
        "use crate::benchmarks::PerformanceSuite;\nuse crate::scale::ScaleSuite;",
    );
    assert_eq!(suite_types_named(&report), ["crates/core/src/report.rs:2: names ScaleSuite"]);

    let testbed = one(
        "crates/core/src/testbed.rs",
        "fn f() {}\nfn g() { SyncClient::new().with_pipeline(p); }",
    );
    assert_eq!(pipelines_named(&[&testbed]), ["crates/core/src/testbed.rs:2: names with_pipeline"]);

    let capture = one(
        "crates/services/src/capture.rs",
        "#[cfg(test)]\nfn raw_field() {}\nfn parse() { u64_array_field(); }",
    );
    assert_eq!(
        capture_scrapers(&capture),
        ["crates/services/src/capture.rs:3: library code names u64_array_field"]
    );

    let services_pins = one(
        "crates/services/src/perf_pins.rs",
        "use crate::scale::run_population;\npub use cloudsim_storage::UploadPipeline;\npub fn run_scale(_w: usize) { run_population() }",
    );
    let storage_pins = one(
        "crates/storage/src/perf_pins.rs",
        "pub struct UploadPipeline;\nimpl UploadPipeline { pub fn sequential() -> Self { UploadPipeline } }",
    );
    let callers = one(
        "crates/services/src/s.rs",
        "impl C {\n    #[doc(hidden)]\n    pub fn for_user(_p: UploadPipeline) -> C { C::new() }\n}\nfn f() { perf_pins::run_scale(1); }\nfn g() { let p = UploadPipeline::sequential(); }\n#[cfg(test)]\nfn t() { C::for_user(UploadPipeline::sequential()); }",
    );
    let list = one(
        "docs/ARCHITECTURE.md",
        "* **Pinned by `perf/`** as follows.\n  - `cloudsim_services::perf_pins::run_scale` — a forward.\n  - `cloudsim_services::perf_pins::UploadPipeline`\n  - `cloudsim_storage::perf_pins::UploadPipeline`\n  - `C::gone`\n  - `D::with_pipeline`\n* **Next.**\n  - `C::for_user`",
    );
    // Ignored parameters: only a listed hidden method may take one outside
    // `perf_pins`; private fns and closures are not surface.
    let ignores = one(
        "crates/services/src/p.rs",
        "impl D {\n    #[doc(hidden)]\n    pub fn with_pipeline(_: P) -> D { D }\n}\npub fn merge<F: Fn(u8) -> u8>(parts: u8, _started: Instant) {}\nfn private(_: u8) {}\npub fn closure() { let f = |_: u8| (); }",
    );
    let pinned = [&services_pins, &storage_pins, &callers, &ignores].map(lexed_lib);
    assert_eq!(
        unfenced_pins(&pinned, &list),
        [
            "docs/ARCHITECTURE.md:5: `C::gone` is listed but not in the code",
            "docs/ARCHITECTURE.md: `C::for_user` is pinned but not listed",
            "crates/services/src/s.rs:5: library code uses perf_pins",
            "crates/services/src/s.rs:5: library code uses run_scale",
            "crates/services/src/s.rs:6: library code uses UploadPipeline",
            "crates/services/src/s.rs:3: pub fn for_user ignores `_p`",
            "crates/services/src/p.rs:5: pub fn merge ignores `_started`",
        ]
    );

    // Reached through the root: `ObjectStore` in a group, `Chunk` by the
    // crate's own `crate::`, `Pinned` by path. `GcStats` is named only at
    // its module path and by another crate's `crate::`, `Renamed` never.
    let root = one(
        "crates/storage/src/lib.rs",
        "pub use store::{ObjectStore, Inner as Renamed, GcStats};\npub use chunker::Chunk;\n#[doc(hidden)]\npub use perf_pins::Pinned;",
    );
    let other = one(
        "crates/services/src/s.rs",
        "use cloudsim_storage::{ObjectStore, store::{GcStats, Inner}};\nfn f() -> cloudsim_storage::Pinned { todo!() }",
    );
    let own = one("crates/storage/src/x.rs", "fn g(c: crate::Chunk) {}");
    let elsewhere = one("crates/core/src/y.rs", "fn h() -> crate::GcStats { todo!() }");
    let (root, code) = (lexed_lib(&root), [&other, &own, &elsewhere].map(lexed_lib));
    assert_eq!(
        unreached_reexports(
            &[("cloudsim_storage".into(), &root)],
            &code.iter().collect::<Vec<_>>()
        ),
        [
            "crates/storage/src/lib.rs:1: pub use Renamed",
            "crates/storage/src/lib.rs:1: pub use GcStats"
        ]
    );

    let readme =
        one("vendor/README.md", "| stub |\n|---|\n| `proptest` |\n| `gone` |\n| `proptest` |\n");
    let files = ["vendor/README.md", "vendor/proptest/Cargo.toml", "vendor/rand/src/lib.rs"];
    assert_eq!(
        vendor_mismatches(&readme, &files.map(String::from), "members = [\"vendor/proptest\"]"),
        [
            "vendor/README.md:4: row `gone` has no directory of its own",
            "vendor/README.md:5: row `proptest` has no directory of its own",
            "vendor/rand: no row in vendor/README.md",
            "vendor/rand: not a workspace member",
        ]
    );

    let table = one(
        "tests/mutants.tsv",
        "# a comment\nfile\tsource\treplacement\ttest\na.rs\tx\\ty\tz\t-p a t\n\
         b.rs\tq\tz\t-p a t\na.rs\ttwice\tz\na.rs\ttwice\tz\t-p a t\na.rs\tonce\tz\t\n\
         a.rs\t\tz\t-p a t\na.rs\tx\\\\n\t\t-p a t\n",
    );
    let files = |file: &str| (file == "a.rs").then(|| "x\ty once twice twice x\\n".to_string());
    assert_eq!(
        mutant_mismatches(&table, files),
        [
            "tests/mutants.tsv:4: no file `b.rs`",
            "tests/mutants.tsv:5: 3 fields, not 4",
            "tests/mutants.tsv:6: the source text occurs 2 times in a.rs",
            "tests/mutants.tsv:7: names no test",
            "tests/mutants.tsv:8: the source text occurs 0 times in a.rs",
        ]
    );
    let headless = one("tests/mutants.tsv", "a.rs\tonce\tz\t-p a t\n");
    assert_eq!(
        mutant_mismatches(&headless, files),
        ["tests/mutants.tsv: the header is not `file\tsource\treplacement\ttest`"]
    );

    let core = one(
        "crates/core/Cargo.toml",
        "[package]\nname = \"core\"\n[dependencies]\nstore = { workspace = true }\n\
         serde = \"1\"\n[dependencies.libc]\nversion = \"0.2\"\n[dev-dependencies]\n\
         proptest = { workspace = true }\nrand = \"0.8\"\n[target.'cfg(unix)'.dependencies]\n\
         nix = \"0.27\"\n",
    );
    let store = one("crates/store/Cargo.toml", "[package]\nname = \"store\"\n[dev-dependencies]\n");
    assert_eq!(
        foreign_dependencies(&[core, store]),
        [
            "crates/core/Cargo.toml:5: serde",
            "crates/core/Cargo.toml:6: libc",
            "crates/core/Cargo.toml:10: rand",
            "crates/core/Cargo.toml:12: nix",
        ]
    );

    // The handover: an unused crate-private fn, const or variant is the
    // compiler's (`#![deny(dead_code)]`), an exported one the rules'; an
    // unread field is the rule's either way.
    let lib = one(
        "crates/geo/src/h.rs",
        "pub fn exported() {}\npub(crate) fn internal() {}\npub const OUT: u8 = 1;\n\
         pub(crate) const IN: u8 = 2;\npub enum Open { Unbuilt }\npub(crate) enum Closed { Unbuilt }\n\
         pub struct S { pub(crate) unread: u8 }\n",
    );
    let libs = [lexed_lib(&lib)];
    assert_eq!(unreached_fns(&libs, &[]), ["crates/geo/src/h.rs:1: pub fn exported"]);
    assert_eq!(unread_consts(&libs, &[]), ["crates/geo/src/h.rs:3: pub const OUT"]);
    assert_eq!(unbuilt_variants(&libs, &[]), ["crates/geo/src/h.rs:5: Open::Unbuilt"]);
    assert_eq!(unread_fields(&libs, &[]), ["crates/geo/src/h.rs:7: pub field S::unread"]);
}

#[test]
fn the_caller_rule_counts_calls_not_words() {
    let lib = one(
        "crates/trace/src/hist.rs",
        "pub struct Summary { pub empty: bool, hits: u64 }
impl Summary {
    pub fn empty() -> Self { todo!() }
    pub fn hits(&self) -> u64 { self.hits }
    pub fn called(&self) -> u64 { 1 }
    pub(crate) fn as_value(x: u64) -> u64 { x }
    pub fn by_path() {}
}
fn user(s: Summary) -> bool {
    let hits = s.called();
    let f = Summary::by_path;
    [1].map(as_value);
    s.empty && hits > 0
}
#[cfg(test)]
mod tests { fn t(s: super::Summary) { s.hits(); super::Summary::empty(); } }
",
    );
    let user = one("tests/t.rs", "fn t() { let x = Summary { empty: true, hits: 0 }; }");
    assert_eq!(
        unreached_fns(&[lexed_lib(&lib)], &[lexed_code(&user)]),
        ["crates/trace/src/hist.rs:3: pub fn empty", "crates/trace/src/hist.rs:4: pub fn hits"]
    );
}

#[test]
fn the_const_rule_counts_reads_not_declarations_or_imports() {
    let lib = one(
        "crates/storage/src/c.rs",
        "pub const READ: u8 = 1;
pub const UNREAD: u8 = 2;
pub(crate) const TESTED: u8 = 3;
const PRIVATE: u8 = 4;
pub struct S;
impl S {
    pub const ASSOC: u8 = 5;
    pub const ASSOC_READ: u8 = 6;
    pub const fn f() -> u8 { READ + Self::ASSOC_READ }
}
#[cfg(test)]
mod tests { fn t() -> u8 { super::TESTED } }
",
    );
    let user = one("tests/t.rs", "use storage::c::{UNREAD, ASSOC};\nfn t() -> u8 { S::f() }");
    assert_eq!(
        unread_consts(&[lexed_lib(&lib)], &[lexed_code(&user)]),
        [
            "crates/storage/src/c.rs:2: pub const UNREAD",
            "crates/storage/src/c.rs:7: pub const ASSOC"
        ]
    );
}

#[test]
fn the_field_rule_counts_reads_and_dumps() {
    let lib = one(
        "crates/core/src/s.rs",
        "pub struct Dumped { pub shown: u64, secret: u8 }
pub struct Plain { pub read: u64, pub written: u64, pub listed: u64 }
objects! {
    Dumped { shown }
}
fn f(p: &mut Plain) -> u64 {
    p.written = 1;
    let _ = vec![listed, 1];
    p.read
}
",
    );
    assert_eq!(
        unread_fields(&[lexed_lib(&lib)], &[]),
        [
            "crates/core/src/s.rs:2: pub field Plain::written",
            "crates/core/src/s.rs:2: pub field Plain::listed",
        ]
    );
}

#[test]
fn the_variant_rule_counts_constructions_not_patterns() {
    let lib = one(
        "crates/workload/src/m.rs",
        "pub enum Mode { Built, Matched(u8), InLet { x: u8 }, Nested, ByPerf, BySelf, Compared }
enum Private { Never }
impl Mode {
    pub fn new() -> Self { Self::BySelf }
}
fn f(m: Mode, o: Option<Mode>) -> u8 {
    let _ = Mode::Built;
    if o == Some(Mode::Compared) { return 2; }
    if let Mode::InLet { x } = m { return x; }
    if matches!(o, Some(Mode::Nested) | None) { return 1; }
    let Some(Mode::Matched(_)) = o else { return 0 };
    match m {
        Mode::Matched(x) => x,
        Mode::Built | Mode::Nested => 0,
        _ => 1,
    }
}
#[cfg(test)]
mod tests { fn t() -> super::Mode { super::Mode::Matched(1) } }
",
    );
    let perf = one("perf/src/w.rs", "fn w() -> Vec<Mode> { vec![Mode::ByPerf] }");
    assert_eq!(
        unbuilt_variants(&[lexed_lib(&lib)], &[lexed_lib(&perf)]),
        [
            "crates/workload/src/m.rs:1: Mode::Matched",
            "crates/workload/src/m.rs:1: Mode::InLet",
            "crates/workload/src/m.rs:1: Mode::Nested",
        ]
    );
}

#[test]
fn the_doc_ratchet_rejects_a_doc_past_a_ceiling() {
    let text = "Since PR 3 and PR\n4, not SPR 5, PR-6, PRs or PR.\nPR 7\n";
    assert_eq!(pr_references(text), 3);
    let doc = one("README.md", text);
    assert_eq!(docs_over_ceilings(&[doc], &[("README.md", 3, 3)]), Vec::<String>::new());
    let doc = one("README.md", &format!("{text}PR 8"));
    assert_eq!(
        docs_over_ceilings(&[doc], &[("README.md", 3, 3)]),
        ["README.md: 4 lines, ceiling 3", "README.md: 4 \"PR n\" references, ceiling 3"]
    );
}

#[test]
fn the_docs_rule_rejects_a_path_that_resolves_nowhere() {
    let files = ["crates/storage/src/compress.rs", "crates/a/src/lib.rs", "crates/b/src/lib.rs"]
        .map(String::from);
    let doc = one(
        "README.md",
        "See `compress.rs` and storage/compress.rs.\nEXPERIMENTS.md records it; so does lib.rs.\n```\nrepro --json out.json\n```",
    );
    assert_eq!(
        dangling_paths(&[doc], &files),
        [
            "README.md:2: `EXPERIMENTS.md` names no repository file",
            "README.md:2: `lib.rs` names no repository file",
        ]
    );
}
