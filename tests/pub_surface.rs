//! The `pub fn` / `pub const` surface of `crates/*/src` is the called
//! surface: every such name must appear, as a whole word, in some *other*
//! `.rs` file of the workspace (or `benchmark/src`), or carry a
//! `// pub: <reason>` note on the line above. Types are exempt (a
//! returned struct is reachable without being named), and so are the
//! hardware models the tests pin against the paper, which stay whole.
//!
//! The `unsafe` surface is the ZVC kernels': the word occurs in
//! `crates/*/src` only under `crates/compress/src/zvc/`.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Fig. 10's pipeline, the ZVC engine and the in-DRAM store (`crates/gpu-sim/src`).
const PAPER_MODELS: [&str; 3] = ["pipeline.rs", "engine.rs", "dram_store.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name a `pub fn` / `pub const` line declares, if it is one.
fn declared(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "unsafe fn ", "fn ", "const "]
        .iter()
        .find_map(|q| rest.strip_prefix(q))?;
    rest.split(|c| !is_word(c)).next().filter(|n| !n.is_empty())
}

#[test]
fn every_pub_fn_and_const_is_named_in_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let read = |f| fs::read_to_string(f).expect("a .rs file the walk just listed");
    let texts: Vec<String> = files.iter().map(read).collect();
    let words: Vec<HashSet<&str>> = texts
        .iter()
        .map(|t| t.split(|c| !is_word(c)).collect())
        .collect();

    let mut unreferenced = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let rel = file.strip_prefix(root).expect("walk started at the root");
        let in_src = rel.starts_with("crates") && rel.iter().nth(2) == Some("src".as_ref());
        let is_model = |m: &&str| rel == Path::new("crates/gpu-sim/src").join(m);
        if !in_src || PAPER_MODELS.iter().any(is_model) {
            continue;
        }
        // Unit-test modules close their file in this workspace.
        let code = texts[i].split("#[cfg(test)]\nmod ").next().unwrap_or("");
        let mut above = "";
        for line in code.lines() {
            let noted = above.trim_start().starts_with("// pub: ");
            above = line;
            let Some(name) = declared(line) else { continue };
            if !noted && !(0..files.len()).any(|j| j != i && words[j].contains(name)) {
                unreferenced.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    let found = unreferenced.join("\n");
    assert!(
        found.is_empty(),
        "`pub fn` / `pub const` named in no other file (delete, drop `pub`, or note \
         `// pub: <reason>` on the line above):\n{found}"
    );
}

#[test]
fn unsafe_occurs_only_beside_the_zvc_kernels() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    let mut found = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("walk started at the root");
        let in_src = rel.iter().nth(2) == Some("src".as_ref());
        if !in_src || rel.starts_with("crates/compress/src/zvc") {
            continue;
        }
        let text = fs::read_to_string(file).expect("a .rs file the walk just listed");
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
