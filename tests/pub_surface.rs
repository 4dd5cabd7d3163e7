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
//! `use … X as Y` credits every use of `Y` to `X`. Enum variants and
//! fields are not checked: their names are too common to scan by word.
//!
//! The `unsafe` surface is the ZVC kernels': the word occurs in
//! `crates/*/src` only under `crates/compress/src/zvc/`.

mod support;

use std::collections::HashSet;
use std::fs;
use std::path::Path;

use support::{crate_srcs, is_word, non_test_sources, rust_files};

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
/// through the signatures that take or return it (`fig11` returns
/// `Fig11Report`, which no caller needs to name), so those count.
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
        .map(|(_, t)| strip_reexports(t, &mut aliases))
        .collect();
    let words: Vec<HashSet<&str>> = uses
        .iter()
        .map(|t| t.split(|c| !is_word(c)).collect())
        .collect();

    let own: Vec<HashSet<&str>> = shipped.iter().map(|(_, t)| signature_words(t)).collect();

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
        if !in_src || rel.starts_with("crates/compress/src/zvc") {
            continue;
        }
        let text = fs::read_to_string(&file).expect("a .rs file the walk just listed");
        if text.split(|c| !is_word(c)).any(|w| w == "unsafe") {
            found.push(rel.display().to_string());
        }
    }
    assert!(
        found.is_empty(),
        "`unsafe` outside crates/compress/src/zvc/ (comments count: say it another way):\n{}",
        found.join("\n")
    );
}
