//! The `pub` surface of `crates/*/src` is the surface the shipped code
//! uses. Every `pub fn` / `pub const` must be named, as a whole word, in
//! some *other* non-test file. Every `pub struct` / `enum` / `trait` /
//! `type` must be named there too, or in a signature of its own file: a
//! non-test line that is no comment, declaration or `impl` header (a type
//! reaches its callers through the fns that take or return it). An item
//! that does neither carries a `// pub: <reason>` note on the line above.
//!
//! Non-test files are `crates/*/src`, `src/`, `examples/` and
//! `benchmark/src`, each outside its `#[cfg(test)]` items and outside the
//! files declared behind `#[cfg(test)] mod x;`; `tests/`,
//! `crates/*/tests` and `crates/*/benches` keep no name alive. A `pub use`
//! re-export names an item without using it, so it does not count; a
//! `use … X as Y` credits every use of `Y` to `X`. A comment (`//`,
//! `///`, `//!`) names nothing: its text is dropped before matching. Enum
//! variants and fields are not checked: their names are too common to
//! scan by word — and a common-word name (`new`, `len`) can still be kept
//! alive by an unrelated use of the word.
//!
//! The `unsafe` surface is the ZVC kernels': the word occurs in
//! `crates/*/src` only in `crates/compress/src/zvc/x86.rs` (the intrinsic
//! moves) and `zvc/kernel.rs` (the drivers and the dispatch table).

mod support;

use std::collections::HashSet;
use std::fs;
use std::path::Path;

use support::{crate_srcs, is_word, non_test_sources, raw_string_hashes, rust_files};

/// `code` without the text of its line comments (`//`, `///`, `//!`):
/// a comment calls nothing. String, raw-string and char literals are
/// copied whole, so a `//` inside one is no comment.
fn strip_comments(code: &str) -> String {
    let text: Vec<char> = code.chars().collect();
    let at = |i: usize| text.get(i).copied().unwrap_or('\0');
    let mut out = String::with_capacity(code.len());
    let mut i = 0;
    while i < text.len() {
        let stop = match text[i] {
            '/' if at(i + 1) == '/' => {
                i = (i..text.len())
                    .find(|&j| text[j] == '\n')
                    .unwrap_or(text.len());
                continue;
            }
            '"' => {
                let mut j = i + 1;
                while j < text.len() && text[j] != '"' {
                    j += if text[j] == '\\' { 2 } else { 1 };
                }
                j + 1
            }
            'r' if raw_string_hashes(&text, i).is_some() => {
                let hashes = raw_string_hashes(&text, i).unwrap_or(0);
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let body = i + 2 + hashes;
                (body..text.len())
                    .find(|&j| text[j..].starts_with(&close))
                    .map_or(text.len(), |j| j + close.len())
            }
            // A char literal (`'"'`, `'\''`); otherwise a lifetime.
            '\'' if at(i + 1) == '\\' => (i + 3..text.len())
                .find(|&j| text[j] == '\'')
                .map_or(text.len(), |j| j + 1),
            '\'' if at(i + 2) == '\'' => i + 3,
            _ => i + 1,
        };
        let stop = stop.min(text.len());
        out.extend(&text[i..stop]);
        i = stop;
    }
    out
}

/// `text` without its `pub use` statements; the `(item, alias)` pair of
/// every `X as Y` in its `use` statements, re-exports included, goes to
/// `aliases`.
fn strip_reexports(text: &str, aliases: &mut Vec<(String, String)>) -> String {
    let mut kept = String::with_capacity(text.len());
    // The `use` statement being read: whether it re-exports, and its text.
    let mut stmt: Option<(bool, String)> = None;
    for line in text.lines() {
        let t = line.trim_start();
        if stmt.is_none() && (t.starts_with("use ") || t.starts_with("pub use ")) {
            stmt = Some((t.starts_with("pub "), String::new()));
        }
        if !matches!(stmt, Some((true, _))) {
            kept.push_str(line);
            kept.push('\n');
        }
        let Some((_, words)) = &mut stmt else {
            continue;
        };
        words.push_str(line);
        words.push(' ');
        if line.contains(';') {
            let w: Vec<&str> = words.split(|c| !is_word(c)).collect();
            let renames = w.windows(3).filter(|w| w[1] == "as");
            aliases.extend(renames.map(|w| (w[0].to_owned(), w[2].to_owned())));
            stmt = None;
        }
    }
    kept
}

/// The name a `pub fn` / `pub const` / `pub struct` / `enum` / `trait` /
/// `type` line declares, if it is one, and whether it names a type.
fn declared(line: &str) -> Option<(&str, bool)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let fns = ["const fn ", "unsafe fn ", "fn ", "const "];
    let types = ["struct ", "enum ", "trait ", "type "];
    let (rest, is_type) = (fns.iter().map(|q| (q, false)))
        .chain(types.iter().map(|q| (q, true)))
        .find_map(|(q, t)| Some((rest.strip_prefix(q)?, t)))?;
    let name = rest
        .split(|c| !is_word(c))
        .next()
        .filter(|n| !n.is_empty())?;
    Some((name, is_type))
}

/// The words of `code` a type's own file uses it by: every line but
/// comments, declarations and `impl` headers. A type reaches its callers
/// through the signatures that take or return it (`Context::stats`
/// returns `CacheStats`, which no caller needs to name), so those count.
fn signature_words(code: &str) -> HashSet<&str> {
    code.lines()
        .filter(|l| {
            let t = l.trim_start();
            !(t.starts_with("//") || t.starts_with("impl") || declared(l).is_some())
        })
        .flat_map(|l| l.split(|c| !is_word(c)))
        .collect()
}

/// The `pub` declarations of the kind asked for (types, or fns and
/// consts) that nothing keeps alive, as `file: name` lines.
fn unreferenced(types: bool) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shipped: Vec<_> = crate_srcs(root)
        .iter()
        .flat_map(|src| non_test_sources(src))
        .collect();
    let others = ["src", "examples", "benchmark/src"].map(|d| non_test_sources(&root.join(d)));
    let callers: Vec<_> = shipped.iter().chain(others.iter().flatten()).collect();

    let mut aliases = Vec::new();
    let uses: Vec<String> = callers
        .iter()
        .map(|(_, t)| strip_reexports(&strip_comments(t), &mut aliases))
        .collect();
    let words: Vec<HashSet<&str>> = uses
        .iter()
        .map(|t| t.split(|c| !is_word(c)).collect())
        .collect();

    let code: Vec<String> = shipped.iter().map(|(_, t)| strip_comments(t)).collect();
    let own: Vec<HashSet<&str>> = code.iter().map(|t| signature_words(t)).collect();

    let mut unreferenced = Vec::new();
    for (i, (file, code)) in shipped.iter().enumerate() {
        let rel = file.strip_prefix(root).expect("walk started at the root");
        let mut above = "";
        for line in code.lines() {
            let noted = above.trim_start().starts_with("// pub: ");
            above = line;
            let Some((name, is_type)) = declared(line).filter(|d| d.1 == types) else {
                continue;
            };
            let aliased = aliases
                .iter()
                .filter(|(x, _)| x == name)
                .map(|(_, y)| y.as_str());
            let names: Vec<&str> = std::iter::once(name).chain(aliased).collect();
            let named_in = |j: usize| names.iter().any(|n| words[j].contains(n));
            let in_signature = is_type && own[i].contains(name);
            if !noted && !in_signature && !(0..callers.len()).any(|j| j != i && named_in(j)) {
                unreferenced.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    unreferenced.join("\n")
}

#[test]
fn every_pub_fn_and_const_is_named_in_another_file() {
    let found = unreferenced(false);
    assert!(
        found.is_empty(),
        "`pub fn` / `pub const` named in no other non-test file (delete, move into the \
         test that uses it, drop `pub`, or note `// pub: <reason>` on the line above):\n{found}"
    );
}

#[test]
fn every_pub_type_is_named_outside_its_declaration() {
    let found = unreferenced(true);
    assert!(
        found.is_empty(),
        "`pub` type named in no signature of its file and no other non-test file (delete, \
         move into the test that uses it, drop `pub`, or note `// pub: <reason>` on the line \
         above):\n{found}"
    );
}

#[test]
fn unsafe_occurs_only_beside_the_zvc_kernels() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for file in rust_files(&root.join("crates")) {
        let rel = file.strip_prefix(root).expect("walk started at the root");
        let in_src = rel.iter().nth(2) == Some("src".as_ref());
        let kernels = [
            "crates/compress/src/zvc/x86.rs",
            "crates/compress/src/zvc/kernel.rs",
        ];
        if !in_src || kernels.iter().any(|k| rel == Path::new(k)) {
            continue;
        }
        let text = fs::read_to_string(&file).expect("a .rs file the walk just listed");
        if text.split(|c| !is_word(c)).any(|w| w == "unsafe") {
            found.push(rel.display().to_string());
        }
    }
    assert!(
        found.is_empty(),
        "`unsafe` outside zvc/x86.rs and zvc/kernel.rs (comments count: say it another way):\n{}",
        found.join("\n")
    );
}
