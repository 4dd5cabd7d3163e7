//! What a build without `cfg(test)` compiles of the workspace's sources,
//! read as text: the `.rs` walk and the `#[cfg(test)]` item stripper that
//! `pub_surface.rs` and `source_lines.rs` share. Std only, no parser: the
//! stripper knows comments, string, raw-string and char literals, and
//! bracket nesting, which is all it needs to find where an item ends.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir` (no `target/` directory), sorted.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() && !path.ends_with("target") {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

/// `crates/<c>/src` of every crate of the workspace, sorted.
pub fn crate_srcs(root: &Path) -> Vec<PathBuf> {
    let crates = fs::read_dir(root.join("crates")).expect("the workspace has a crates/ directory");
    let mut srcs: Vec<PathBuf> = crates
        .flatten()
        .map(|e| e.path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    srcs.sort();
    srcs
}

pub fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A file's code outside its `#[cfg(test)]` items.
pub struct NonTest<'a> {
    /// The lines outside `#[cfg(test)]` items, in order.
    pub lines: Vec<&'a str>,
    /// The modules declared without a body behind `#[cfg(test)]`
    /// (`#[cfg(test)] mod x;`): whole files compiled only under test.
    pub test_mods: Vec<String>,
}

impl NonTest<'_> {
    pub fn text(&self) -> String {
        self.lines.iter().flat_map(|l| [l, "\n"]).collect()
    }
}

/// Splits `text` into the lines a non-test build compiles and the
/// `#[cfg(test)]` items it does not: from the attribute's own line to the
/// line where the item's closing `}` or `;` stands.
pub fn strip_test_items(text: &str) -> NonTest<'_> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = NonTest {
        lines: Vec::new(),
        test_mods: Vec::new(),
    };
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            out.lines.push(lines[i]);
            i += 1;
            continue;
        }
        let (end, item) = item_end(&lines[i + 1..]);
        let words: Vec<&str> = item
            .split(|c| !is_word(c))
            .filter(|w| !w.is_empty())
            .collect();
        let is_mod = item.trim_end().ends_with(';') && words.contains(&"mod");
        if let (true, Some(name)) = (is_mod, words.last()) {
            out.test_mods.push((*name).to_owned());
        }
        i += 1 + end + 1;
    }
    out
}

/// The index (into `lines`) of the line on which the item starting at
/// `lines[0]` ends, and the item's code (comments and literals left out,
/// through its closing `}` or `;`).
fn item_end(lines: &[&str]) -> (usize, String) {
    let text: Vec<char> = lines.join("\n").chars().collect();
    let at = |i: usize| text.get(i).copied().unwrap_or('\0');
    let (mut braces, mut nest, mut line) = (0usize, 0usize, 0usize);
    let mut code = String::new();
    let mut i = 0;
    // Moves `i` to `stop` (exclusive), counting the newlines it passes.
    let skip_to = |i: &mut usize, stop: usize, line: &mut usize| {
        *line += text[*i..stop.min(text.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count();
        *i = stop;
    };
    while i < text.len() {
        let c = text[i];
        match c {
            '/' if at(i + 1) == '/' => {
                let stop = (i..text.len())
                    .find(|&j| text[j] == '\n')
                    .unwrap_or(text.len());
                skip_to(&mut i, stop, &mut line);
                continue;
            }
            '/' if at(i + 1) == '*' => {
                let (mut depth, mut j) = (1, i + 2);
                while j < text.len() && depth > 0 {
                    if text[j] == '/' && at(j + 1) == '*' {
                        (depth, j) = (depth + 1, j + 2);
                    } else if text[j] == '*' && at(j + 1) == '/' {
                        (depth, j) = (depth - 1, j + 2);
                    } else {
                        j += 1;
                    }
                }
                skip_to(&mut i, j, &mut line);
                continue;
            }
            '"' => {
                let mut j = i + 1;
                while j < text.len() && text[j] != '"' {
                    j += if text[j] == '\\' { 2 } else { 1 };
                }
                skip_to(&mut i, j + 1, &mut line);
                continue;
            }
            'r' if raw_string_hashes(&text, i).is_some() => {
                let hashes = raw_string_hashes(&text, i).unwrap_or(0);
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let body = i + 2 + hashes;
                let stop = (body..text.len())
                    .find(|&j| text[j..].starts_with(&close))
                    .map_or(text.len(), |j| j + close.len());
                skip_to(&mut i, stop, &mut line);
                continue;
            }
            // A char literal (`'{'`, `'\''`, `'\u{7b}'`); otherwise a lifetime.
            '\'' if at(i + 1) == '\\' => {
                let stop = (i + 3..text.len())
                    .find(|&j| text[j] == '\'')
                    .unwrap_or(text.len());
                skip_to(&mut i, stop + 1, &mut line);
                continue;
            }
            '\'' if at(i + 2) == '\'' => {
                i += 3;
                continue;
            }
            '\n' => line += 1,
            '(' | '[' => nest += 1,
            ')' | ']' => nest = nest.saturating_sub(1),
            '{' => braces += 1,
            '}' => braces = braces.saturating_sub(1),
            _ => {}
        }
        code.push(c);
        let closed = c == '}' && braces == 0 && nest == 0;
        if closed || (c == ';' && braces == 0 && nest == 0) {
            return (line, code);
        }
        i += 1;
    }
    (line, code)
}

/// The `#` count of a raw string (`r"…"`, `r#"…"#`, `br"…"`) opening at
/// `text[i] == 'r'`, if one does.
pub fn raw_string_hashes(text: &[char], i: usize) -> Option<usize> {
    let before = |k: usize| i.checked_sub(k).map(|j| text[j]);
    let starts_token = match before(1) {
        None => true,
        Some('b') => before(2).is_none_or(|c| !is_word(c)),
        Some(c) => !is_word(c),
    };
    let hashes = text[i + 1..].iter().take_while(|&&c| c == '#').count();
    (starts_token && text.get(i + 1 + hashes) == Some(&'"')).then_some(hashes)
}

/// The directory a module file's child modules live in: `a/` for
/// `a/mod.rs`, `a/lib.rs` and `a/main.rs`, `a/b/` for `a/b.rs`.
pub fn child_dir(file: &Path) -> PathBuf {
    let dir = file.parent().unwrap_or(Path::new(""));
    match file.file_stem().and_then(|s| s.to_str()) {
        Some("mod" | "lib" | "main") | None => dir.to_path_buf(),
        Some(stem) => dir.join(stem),
    }
}

/// The source files of a crate that a non-test build compiles, each with
/// its non-test lines: every `.rs` under `src` except the modules some
/// file declares behind `#[cfg(test)]` (and everything below them).
pub fn non_test_sources(src: &Path) -> Vec<(PathBuf, String)> {
    let files = rust_files(src);
    let texts: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).expect("a .rs file the walk just listed"))
        .collect();
    let mut test_only: HashSet<PathBuf> = HashSet::new();
    let mut test_dirs: Vec<PathBuf> = Vec::new();
    for (file, text) in files.iter().zip(&texts) {
        for m in strip_test_items(text).test_mods {
            let dir = child_dir(file);
            test_only.insert(dir.join(format!("{m}.rs")));
            test_dirs.push(dir.join(m));
        }
    }
    files
        .iter()
        .zip(&texts)
        .filter(|(f, _)| !test_only.contains(*f) && !test_dirs.iter().any(|d| f.starts_with(d)))
        .map(|(f, t)| (f.clone(), strip_test_items(t).text()))
        .collect()
}
