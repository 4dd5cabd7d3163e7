//! Seeded fuzzing of the CLI's scenario filter.
//!
//! `--filter` specs come straight from the command line, so the contract
//! is strict: any list of strings either parses to a [`ScenarioFilter`]
//! or returns an error — never a panic — every filter that parses
//! matches every scenario of the paper grid without a panic, and a list
//! holding a spec whose key is not one of [`KEYS`] is an error, whatever
//! its values (none at all included). The spec
//! lists are built from the parser's own vocabulary (`=`, `,`, the keys,
//! zoo names, layout / codec / engine / fabric labels) mixed with the
//! values most likely to trip it: `node` plus digits, digit strings past
//! `usize::MAX`, empty strings and non-ASCII.

use std::panic::{self, AssertUnwindSafe};

use cdma_core::scenario::{ScenarioFilter, ScenarioSet};

/// xorshift64* — deterministic, seeded, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

const CASES: usize = 4000;

/// Each key the parser knows (one spelling each) with values it admits.
const AXES: &[(&str, &[&str])] = &[
    (
        "net",
        &[
            "AlexNet",
            "alexnet",
            "OverFeat",
            "NiN",
            "VGG",
            "SqueezeNet",
            "GoogLeNet",
        ],
    ),
    ("network", &["VGG", "nin"]),
    ("layout", &["nchw", "NHWC", "chwn"]),
    ("alg", &["zv", "rl", "zl", "cs", "hf", "ad"]),
    ("algorithm", &["zvc", "Adaptive", "rle"]),
    ("engine", &["dense", "csc", "csc+act", "cscact"]),
    ("batch", &["1", "32", "+7", "18446744073709551615"]),
    ("fabric", &["flat", "node8", "node+3", "NODE1"]),
];

/// Every key the parser accepts.
const KEYS: &[&str] = &[
    "net",
    "network",
    "layout",
    "alg",
    "algorithm",
    "engine",
    "batch",
    "fabric",
];

/// Whether `spec`'s key is one of [`KEYS`] (a spec without `=` has none).
fn known_key(spec: &str) -> bool {
    spec.split_once('=')
        .is_some_and(|(key, _)| KEYS.contains(&key))
}

/// Keys no axis answers to.
const BAD_KEYS: &[&str] = &["tenancy", "NET", "", " net", "net "];

/// Values no key admits, or that only look like it: `node` + nothing,
/// zero, signs, digits past `usize::MAX`, non-ASCII (a case fold that
/// changes length, full-width letters, a combining mark, an emoji, a
/// NUL) and emptiness.
const BAD_VALUES: &[&str] = &[
    "ResNet-50",
    "node",
    "node0",
    "node-1",
    "node18446744073709551616",
    "0",
    "-1",
    "18446744073709551616",
    "99999999999999999999999999",
    "İ",
    "ß",
    "ＡｌｅｘＮｅｔ",
    "e\u{301}",
    "🙂",
    "\u{0}",
    " ",
    "",
];

/// A value: mostly one its key admits, else any axis's, else a bad one,
/// with a digit run glued on now and then.
fn value(rng: &mut Rng, own: &[&str]) -> String {
    let mut v = match rng.below(8) {
        0..=5 => rng.pick(own).to_owned(),
        6 => {
            let other = AXES[rng.below(AXES.len())].1;
            rng.pick(other).to_owned()
        }
        _ => rng.pick(BAD_VALUES).to_owned(),
    };
    if rng.below(16) == 0 {
        for _ in 0..1 + rng.below(24) {
            v.push(char::from(b'0' + rng.below(10) as u8));
        }
    }
    v
}

/// One spec: mostly `key=v1,v2,…`, sometimes under a bad key, without
/// the `=`, or with extra `=` / `,` spliced in.
fn spec(rng: &mut Rng) -> String {
    let (key, own) = AXES[rng.below(AXES.len())];
    let key = if rng.below(10) == 0 {
        rng.pick(BAD_KEYS)
    } else {
        key
    };
    let values: Vec<String> = (0..rng.below(4)).map(|_| value(rng, own)).collect();
    let mut spec = match rng.below(12) {
        0 => values.concat(),
        _ => format!("{key}={}", values.join(",")),
    };
    if rng.below(12) == 0 {
        let at = rng.below(spec.len() + 1);
        if spec.is_char_boundary(at) {
            spec.insert_str(at, rng.pick(&["=", ",", "=,"]));
        }
    }
    spec
}

/// A list of 0..=3 specs.
fn spec_list(rng: &mut Rng) -> Vec<String> {
    (0..rng.below(4)).map(|_| spec(rng)).collect()
}

#[test]
fn random_spec_lists_parse_or_error_and_match_without_panicking() {
    let grid = ScenarioSet::paper_grid();
    let mut rng = Rng(0x5EED_F117_E400);
    // Filters that restrict some axis, and spec lists rejected.
    let (mut restricting, mut rejected) = (0usize, 0usize);
    for case in 0..CASES {
        let specs = spec_list(&mut rng);
        let bad_key = !specs.iter().all(|s| known_key(s));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            ScenarioFilter::parse(&specs).map(|filter| {
                let hits = grid.scenarios().iter().filter(|s| filter.matches(s));
                (filter.is_empty(), hits.count())
            })
        }));
        match outcome {
            Ok(Ok((unrestricted, hits))) => {
                assert!(!bad_key, "case {case}: {specs:?} has an unknown key");
                assert!(
                    !unrestricted || hits == grid.len(),
                    "case {case}: {specs:?}"
                );
                restricting += usize::from(!unrestricted);
            }
            Ok(Err(msg)) => {
                assert!(
                    !msg.is_empty(),
                    "case {case}: {specs:?} gave an empty error"
                );
                rejected += 1;
            }
            Err(_) => panic!("case {case}: {specs:?} panicked"),
        }
    }
    // Both sides of the parser are reached, not only its error paths
    // (seeded: 435 restricting filters, 2579 rejected lists).
    assert!(
        restricting > CASES / 10,
        "{restricting} of {CASES} restrict"
    );
    assert!(rejected > CASES / 10, "{rejected} of {CASES} rejected");
}

/// The fixed cases the random lists are most likely to miss.
#[test]
fn edge_specs_parse_or_error() {
    let parses = |specs: &[&str]| ScenarioFilter::parse(specs).is_ok();
    assert!(parses(&[]));
    assert!(parses(&["net=,VGG,,"]));
    assert!(!parses(&["net="]));
    assert!(!parses(&["net=,,,"]));
    assert!(!parses(&["tenancy="]));
    assert!(!parses(&["="]));
    assert!(!parses(&["bogus=,,"]));
    assert!(parses(&["fabric=node18446744073709551615"]));
    assert!(!parses(&[""]));
    assert!(!parses(&["=AlexNet"]));
    assert!(!parses(&["batch=0"]));
    assert!(!parses(&["batch=18446744073709551616"]));
    assert!(!parses(&["fabric=node0"]));
    assert!(!parses(&["fabric=node18446744073709551616"]));
    assert!(!parses(&["net=ＡｌｅｘＮｅｔ"]));
    assert!(!parses(&["layout=İ"]));
}
