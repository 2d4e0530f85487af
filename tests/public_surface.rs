//! Public-surface check: every `pub` item of the library crates must have
//! a caller outside its own definition, or a line in
//! `tests/public_surface.allow` saying why it is public anyway.
//!
//! An item's *definition* is its own body; for a type it also takes in
//! every `impl` block of that type in its crate. A *caller* is any other
//! mention of the item's name as an identifier in non-test code: the
//! library crates' sources, the facade (`src/`), `examples/`, the CLI,
//! `crates/bench/src` and `perfbench/src`. Comments, string literals and
//! `use` statements (so `pub use` re-exports) are not callers, and each
//! file is cut at its first `#[cfg(test)]`, as `scripts/verify.sh`'s
//! panic guard cuts it; modules declared only under `#[cfg(test)]` are
//! test code altogether. Matching is by name, so an unused method that
//! shares its name with a used one passes: the check can miss dead items,
//! never flag a live one.
//!
//! The allowlist can only shrink: an entry whose item gained a caller, or
//! no longer exists, fails the check just as an unlisted caller-less item
//! does. DESIGN.md's "Public surface" section gives the rule.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Library crates whose `pub` items are audited. `testkit` and `bench` are
/// test and measurement harnesses, not library surface.
const LIBRARY_CRATES: &[&str] = &[
    "core", "metrics", "profile", "channel", "cluster", "reconstruct", "codec", "dataset",
    "faults", "parallel", "pipeline", "serve",
];

/// Non-library directories whose sources count as callers.
const CALLER_DIRS: &[&str] = &["src", "examples", "crates/cli/src", "crates/bench/src", "perfbench/src"];

const ALLOWLIST: &str = "tests/public_surface.allow";

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Tokenises Rust source into identifiers and single-character
/// punctuation, dropping comments, string/char literals, lifetimes and
/// numbers.
fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
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
                    i += 1;
                }
            }
        } else if c == b'"' || ((c == b'b' || c == b'r') && raw_or_byte_string(&b[i..]).is_some()) {
            i += string_len(&b[i..]);
        } else if c == b'\'' {
            // A char literal closes within a few bytes; a lifetime does not.
            let lit = if b.get(i + 1) == Some(&b'\\') {
                b[i + 3..].iter().position(|&x| x == b'\'').map(|p| p + 4)
            } else {
                let ch = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                (b.get(i + 1 + ch) == Some(&b'\'')).then_some(ch + 2)
            };
            match lit {
                Some(len) => i += len,
                None => {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.') {
                if b[i] == b'.' && !b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    break;
                }
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            if word == "r" && b.get(i) == Some(&b'#') {
                // Raw identifier `r#name`.
                i += 1;
                continue;
            }
            out.push(Tok::Ident(word.to_string()));
        } else {
            let ch = src[i..].chars().next().unwrap_or(' ');
            out.push(Tok::Punct(ch));
            i += ch.len_utf8();
        }
    }
    out
}

/// For `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`: the number of `#`s, if `s`
/// starts such a literal.
fn raw_or_byte_string(s: &[u8]) -> Option<usize> {
    let mut j = 0;
    if s.first() == Some(&b'b') {
        j += 1;
    }
    let raw = s.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let hashes = s[j..].iter().take_while(|&&x| x == b'#').count();
    (s.get(j + hashes) == Some(&b'"') && (raw || hashes == 0)).then_some(hashes)
}

/// Byte length of the string literal at the start of `s`.
fn string_len(s: &[u8]) -> usize {
    let hashes = raw_or_byte_string(s).unwrap_or(0);
    let raw = s.starts_with(b"r") || s.starts_with(b"br");
    let mut i = s.iter().position(|&x| x == b'"').unwrap_or(0) + 1;
    while i < s.len() {
        if !raw && s[i] == b'\\' {
            i += 2;
        } else if s[i] == b'"' && s[i + 1..].iter().take(hashes).filter(|&&x| x == b'#').count() == hashes {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    s.len()
}

fn ident(t: Option<&Tok>) -> Option<&str> {
    match t {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is(t: Option<&Tok>, c: char) -> bool {
    t == Some(&Tok::Punct(c))
}

/// Cuts the token stream at the first `#[cfg(test)]`.
fn cut_at_tests(toks: &mut Vec<Tok>) {
    let pattern = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    if let Some(at) = toks.windows(pattern.len()).position(|w| w == pattern) {
        toks.truncate(at);
    }
}

/// One non-test source file of the tree.
struct Source {
    /// The library crate it belongs to, if any.
    krate: Option<&'static str>,
    toks: Vec<Tok>,
}

fn load(path: &Path, krate: Option<&'static str>) -> Source {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut toks = tokenize(&text);
    cut_at_tests(&mut toks);
    Source { krate, toks }
}

/// The crate's non-test module files, found by following `mod name;`
/// declarations from `lib.rs` (those after the `#[cfg(test)]` cut are
/// test modules and are not followed).
fn crate_sources(root: &Path, krate: &'static str) -> Vec<Source> {
    let mut out = Vec::new();
    let mut todo = vec![root.join("crates").join(krate).join("src/lib.rs")];
    while let Some(path) = todo.pop() {
        let src = load(&path, Some(krate));
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        let dir = match stem {
            "lib" | "mod" => path.parent().map(Path::to_path_buf),
            _ => path.parent().map(|p| p.join(stem)),
        }
        .unwrap_or_default();
        for w in src.toks.windows(3) {
            if let (Some("mod"), Some(name), true) = (ident(w.first()), ident(w.get(1)), is(w.get(2), ';')) {
                let file = dir.join(format!("{name}.rs"));
                todo.push(if file.exists() { file } else { dir.join(name).join("mod.rs") });
            }
        }
        out.push(src);
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A `pub` item and the token ranges of its own definition.
#[derive(Debug)]
struct Item {
    key: String,
    name: String,
    file: usize,
    span: (usize, usize),
    is_type: bool,
    krate: &'static str,
}

/// The index one past the end of the item starting its header at `i`: the
/// `;` at bracket depth 0, or the `}` closing its body (unless `semi_only`,
/// for `const`/`static`/`type` items, whose initialiser may hold braces).
fn item_end(toks: &[Tok], mut i: usize, semi_only: bool) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i] {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 && !semi_only {
                    return i + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Self type of the `impl` whose keyword is at `i`, and the index of its
/// opening brace.
fn impl_header(toks: &[Tok], i: usize) -> (Option<String>, usize) {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut name = None;
    // Skip the impl's own generic parameters.
    if is(toks.get(j), '<') {
        loop {
            match toks.get(j) {
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                None => break,
                _ => {}
            }
            j += 1;
        }
    }
    while let Some(t) = toks.get(j) {
        match t {
            Tok::Punct('{') if angle == 0 => break,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !is(toks.get(j - 1), '-') => angle -= 1,
            Tok::Ident(w) if angle == 0 && w == "where" => {
                while j < toks.len() && !is(toks.get(j), '{') {
                    j += 1;
                }
                break;
            }
            Tok::Ident(w) if angle == 0 && w == "for" => name = None,
            Tok::Ident(w) if angle == 0 && !matches!(w.as_str(), "dyn" | "mut" | "const") => {
                name = Some(w.clone());
            }
            _ => {}
        }
        j += 1;
    }
    (name, j)
}

/// A token range `(file, start, end)`.
type Span = (usize, usize, usize);

/// The spans of every `impl` block, keyed by crate and self type.
type ImplSpans = HashMap<(&'static str, String), Vec<Span>>;

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "union"];
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "default"];

/// Collects the `pub` items of one source and the spans of its `impl`
/// blocks (keyed by self type).
fn scan_items(
    file: usize,
    src: &Source,
    items: &mut Vec<Item>,
    impls: &mut ImplSpans,
) {
    let krate = src.krate.unwrap_or_default();
    let toks = &src.toks;
    // Stack of open braces: the impl self type each one opened, if any.
    let mut stack: Vec<Option<String>> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct('{') => stack.push(None),
            Tok::Punct('}') => {
                stack.pop();
            }
            // `impl Trait` in argument, return or generic position is a
            // type, not a block.
            Tok::Ident(w)
                if w == "impl"
                    && !matches!(
                        i.checked_sub(1).map(|p| &toks[p]),
                        Some(Tok::Punct('&' | ':' | '>' | '(' | '<' | ','))
                    ) =>
            {
                let (name, open) = impl_header(toks, i);
                if let Some(name) = &name {
                    let end = item_end(toks, i, false);
                    impls.entry((krate, name.clone())).or_default().push((file, i, end));
                }
                stack.push(name);
                i = open + 1;
                continue;
            }
            Tok::Ident(w) if w == "pub" && !is(toks.get(i + 1), '(') => {
                let mut j = i + 1;
                while let Some(q) = ident(toks.get(j)) {
                    if QUALIFIERS.contains(&q) && ident(toks.get(j + 1)).is_some_and(|n| {
                        ITEM_KINDS.contains(&n) || QUALIFIERS.contains(&n)
                    }) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                if let (Some(kind), Some(name)) = (ident(toks.get(j)), ident(toks.get(j + 1))) {
                    if ITEM_KINDS.contains(&kind) {
                        let key = match stack.last() {
                            Some(Some(ty)) => format!("{krate}::{ty}::{name}"),
                            _ => format!("{krate}::{name}"),
                        };
                        let semi_only = matches!(kind, "const" | "static" | "type");
                        let end = item_end(toks, j, semi_only);
                        items.push(Item {
                            key,
                            name: name.to_string(),
                            file,
                            span: (i, end),
                            is_type: matches!(kind, "struct" | "enum" | "trait" | "union" | "type"),
                            krate,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Every identifier occurrence outside `use` statements, per file.
fn references(sources: &[Source]) -> HashMap<&str, Vec<(usize, usize)>> {
    let mut refs: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, src) in sources.iter().enumerate() {
        let mut i = 0;
        while i < src.toks.len() {
            match &src.toks[i] {
                Tok::Ident(w) if w == "use" => {
                    while i < src.toks.len() && !is(src.toks.get(i), ';') {
                        i += 1;
                    }
                }
                Tok::Ident(w) => refs.entry(w).or_default().push((f, i)),
                _ => {}
            }
            i += 1;
        }
    }
    refs
}

/// The non-test sources of the library crates and the caller directories.
fn tree_sources(root: &Path) -> Vec<Source> {
    let mut sources = Vec::new();
    for krate in LIBRARY_CRATES {
        sources.extend(crate_sources(root, krate));
    }
    for dir in CALLER_DIRS {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        sources.extend(files.iter().map(|p| load(p, None)));
    }
    sources
}

/// Keys of the library sources' `pub` items with no caller outside their
/// own definition.
fn callerless(sources: &[Source]) -> BTreeSet<String> {
    let mut items = Vec::new();
    let mut impls = HashMap::new();
    for (f, src) in sources.iter().enumerate() {
        if src.krate.is_some() {
            scan_items(f, src, &mut items, &mut impls);
        }
    }
    let refs = references(sources);
    let inside = |(file, at): (usize, usize), (f, start, end): Span| {
        file == f && (start..end).contains(&at)
    };
    let mut dead = BTreeSet::new();
    for item in &items {
        let own = (item.file, item.span.0, item.span.1);
        let type_impls = if item.is_type { impls.get(&(item.krate, item.name.clone())) } else { None };
        let called = refs.get(item.name.as_str()).into_iter().flatten().any(|&at| {
            !inside(at, own) && !type_impls.into_iter().flatten().any(|&block| inside(at, block))
        });
        if !called {
            dead.insert(item.key.clone());
        }
    }
    // An item and a same-named item that is live share a key; the live
    // one wins.
    let live: BTreeSet<_> = items.iter().map(|i| &i.key).filter(|k| !dead.contains(*k)).collect();
    dead.retain(|k| !live.contains(k));
    dead
}

/// Allowlist entries: `key  reason`, one a line; `#` starts a comment line.
fn allowlist(root: &Path) -> BTreeMap<String, String> {
    let text = fs::read_to_string(root.join(ALLOWLIST)).unwrap_or_default();
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (key, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        assert!(out.insert(key.to_string(), reason.trim().to_string()).is_none(), "{ALLOWLIST}: `{key}` is listed twice");
    }
    out
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_callerless_public_item_is_listed() {
    let dead = callerless(&tree_sources(root()));
    let allowed = allowlist(root());
    let unlisted: Vec<_> = dead.iter().filter(|k| !allowed.contains_key(*k)).collect();
    assert!(
        unlisted.is_empty(),
        "public items with no caller outside their own definition (delete them, make them \
         private, or list them with a reason in {ALLOWLIST}):\n    {}",
        unlisted.iter().map(|k| k.as_str()).collect::<Vec<_>>().join("\n    ")
    );
}

#[test]
fn every_allowlist_entry_names_a_callerless_item() {
    let dead = callerless(&tree_sources(root()));
    let stale: Vec<_> = allowlist(root()).into_keys().filter(|k| !dead.contains(k)).collect();
    assert!(
        stale.is_empty(),
        "{ALLOWLIST} entries whose item gained a caller or no longer exists (remove the \
         line; the list only shrinks):\n    {}",
        stale.join("\n    ")
    );
}

#[test]
fn allowlist_entries_name_library_crates_and_give_reasons() {
    for (key, reason) in allowlist(root()) {
        let krate = key.split("::").next().unwrap_or_default();
        assert!(LIBRARY_CRATES.contains(&krate), "{ALLOWLIST}: `{key}` names no library crate");
        assert!(reason.split_whitespace().count() >= 3, "{ALLOWLIST}: `{key}` gives no reason");
    }
}

#[test]
fn tokenizer_skips_comments_strings_and_lifetimes() {
    let toks = tokenize("fn a<'x>(s: &'x str) -> char { /* b */ let _ = \"c\"; 'd' } // e\nr#\"f\"#");
    let words: Vec<_> = toks.iter().filter_map(|t| ident(Some(t))).collect();
    assert_eq!(words, ["fn", "a", "s", "str", "char", "let", "_"]);
}

#[test]
fn tokenizer_skips_escaped_chars_and_raw_strings_with_quotes() {
    let toks = tokenize(r##"x('\'', '\\', b'"', br#"y "z" w"#, "q\"r", r#ident)"##);
    let words: Vec<_> = toks.iter().filter_map(|t| ident(Some(t))).collect();
    assert_eq!(words, ["x", "b", "ident"]);
}

#[test]
fn impl_blocks_and_own_bodies_are_not_callers() {
    let mut toks = tokenize(
        "pub struct A; impl A { pub fn f(&self) -> A { self.f() } } \
         impl<T: Clone> Into<T> for A { fn into(self) -> T { g() } } pub fn g() {} \
         #[cfg(test)] mod tests { fn t() { A.f(); } }",
    );
    cut_at_tests(&mut toks);
    let src = Source { krate: Some("k"), toks };
    let mut items = Vec::new();
    let mut impls = HashMap::new();
    scan_items(0, &src, &mut items, &mut impls);
    let keys: Vec<_> = items.iter().map(|i| i.key.as_str()).collect();
    assert_eq!(keys, ["k::A", "k::A::f", "k::g"]);
    assert_eq!(impls[&("k", "A".to_string())].len(), 2);
}

#[test]
fn use_lines_and_test_modules_do_not_count_as_callers() {
    let source = |krate, text: &str| {
        let mut toks = tokenize(text);
        cut_at_tests(&mut toks);
        Source { krate, toks }
    };
    let sources = [
        source(
            Some("k"),
            "pub fn used() {} pub fn reexported() {} pub fn tested() {} \
             pub(crate) fn private() {} pub struct S; impl S { pub fn m(&self) {} }",
        ),
        source(
            None,
            "pub use k::reexported; use k::S; fn main() { used(); } \
             #[cfg(test)] mod tests { fn t() { tested(); S.m(); } }",
        ),
    ];
    let dead: Vec<_> = callerless(&sources).into_iter().collect();
    assert_eq!(dead, ["k::S", "k::S::m", "k::reexported", "k::tested"]);
}
