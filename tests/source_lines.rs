//! The yardstick for "less code": per crate, the lines of `crates/<c>/src`
//! that a non-test build compiles — everything outside `#[cfg(test)]`
//! items, and outside the files declared behind `#[cfg(test)] mod x;`.
//! `cargo test -q --test source_lines -- --nocapture` prints the table;
//! no count is pinned, so the number moves with the code and a change
//! that claims to shrink the shipped code quotes it before and after.

mod support;

use std::fs;
use std::path::Path;

use support::{child_dir, crate_srcs, non_test_sources, rust_files, strip_test_items};

/// The three shapes of test-only code: a whole file behind `mod x;`, an
/// item in the middle of a file, and the trailing test module, with
/// braces and semicolons inside comments and literals along the way.
const FIXTURE: &str = r##"//! A module with test-only code in it.
use std::fmt;

#[cfg(test)]
pub(crate) mod oracle;

pub fn kept() -> &'static str {
    "}{;"
}

#[cfg(test)]
fn helper(c: char) -> bool {
    c == '}' || c == '{' || c == '\'' // }
}

#[cfg(test)]
#[allow(dead_code)]
const TABLE: [u8; 2] = [b'{', b'}'];

pub struct Kept<'a>(&'a str);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn braces_in_literals() {
        let s = format!("{{{}", r#"}"#);
        /* } { */
        assert_eq!(s, "{}");
    }
}
"##;

#[test]
fn the_counter_skips_all_three_shapes_of_test_code() {
    let stripped = strip_test_items(FIXTURE);
    let kept = [
        "//! A module with test-only code in it.",
        "use std::fmt;",
        "",
        "",
        "pub fn kept() -> &'static str {",
        "    \"}{;\"",
        "}",
        "",
        "",
        "",
        "pub struct Kept<'a>(&'a str);",
        "",
    ];
    assert_eq!(stripped.lines, kept);
    assert_eq!(stripped.test_mods, ["oracle"]);
    // `mod oracle;` in `deflate/mod.rs` is `deflate/oracle.rs`; in `zvc.rs`
    // it would be `zvc/oracle.rs`.
    assert_eq!(
        child_dir(Path::new("src/deflate/mod.rs")),
        Path::new("src/deflate")
    );
    assert_eq!(child_dir(Path::new("src/lib.rs")), Path::new("src"));
    assert_eq!(child_dir(Path::new("src/zvc.rs")), Path::new("src/zvc"));
}

#[test]
fn non_test_lines_per_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let count = |text: &str| text.lines().count();
    println!("{:<12} {:>8} {:>8}", "crate", "non-test", "all");
    let (mut shipped, mut all) = (0, 0);
    for src in crate_srcs(root) {
        let c_all: usize = rust_files(&src)
            .iter()
            .map(|f| count(&fs::read_to_string(f).expect("a .rs file the walk just listed")))
            .sum();
        let c_shipped: usize = non_test_sources(&src).iter().map(|(_, t)| count(t)).sum();
        let name = src.parent().and_then(|d| d.file_name()).unwrap_or_default();
        let name = name.to_string_lossy();
        println!("{name:<12} {c_shipped:>8} {c_all:>8}");
        assert!(c_shipped <= c_all);
        (shipped, all) = (shipped + c_shipped, all + c_all);
    }
    println!("{:<12} {shipped:>8} {all:>8}", "total");
    assert!(shipped > 0, "no source found under crates/*/src");
}
