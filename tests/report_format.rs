//! The report writers' contract: escape-correct JSON and CSV under
//! seeded property loops, the NaN/inf policy, deterministic key order,
//! and byte-identical output across fresh contexts and job counts.

use cdma::core::experiment;
use cdma::core::report::{csv_field, json_string, render_json, Cell};
use cdma::core::scenario::{Context, Runner, ScenarioFilter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters the generators draw from — printable ASCII plus every
/// class the writers must escape (quotes, backslashes, separators,
/// control characters, multi-byte unicode).
const POOL: &[char] = &[
    'a', 'Z', '0', ' ', '.', '-', '_', '"', '\\', '/', ',', ';', '\n', '\r', '\t', '\u{1}',
    '\u{8}', '\u{c}', '\u{1f}', 'é', 'Ω', '你', '🦀',
];

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..24);
    (0..len)
        .map(|_| POOL[rng.gen_range(0usize..POOL.len())])
        .collect()
}

/// Minimal JSON string-literal parser (quotes included), independent of
/// the writer under test.
fn json_unescape(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            // Raw control characters are illegal inside a JSON string.
            if (c as u32) < 0x20 {
                return None;
            }
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next().unwrap_or('x')).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Minimal RFC-4180 field parser, independent of the writer under test.
fn csv_unquote(s: &str) -> Option<String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        let mut out = String::new();
        let mut chars = inner.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '"' {
                // Must be a doubled quote.
                if chars.next()? != '"' {
                    return None;
                }
                out.push('"');
            } else {
                out.push(c);
            }
        }
        Some(out)
    } else {
        // Unquoted fields must contain no separators or quotes.
        if s.contains([',', '"', '\n', '\r']) {
            return None;
        }
        Some(s.to_owned())
    }
}

#[test]
fn json_strings_round_trip_under_random_input() {
    let mut rng = StdRng::seed_from_u64(0xEC0DE);
    for i in 0..2000 {
        let s = random_string(&mut rng);
        let escaped = json_string(&s);
        let back =
            json_unescape(&escaped).unwrap_or_else(|| panic!("case {i}: unparseable {escaped:?}"));
        assert_eq!(back, s, "case {i}");
    }
}

#[test]
fn csv_fields_round_trip_under_random_input() {
    let mut rng = StdRng::seed_from_u64(0xC5F);
    for i in 0..2000 {
        let s = random_string(&mut rng);
        let quoted = csv_field(&s);
        let back =
            csv_unquote(&quoted).unwrap_or_else(|| panic!("case {i}: unparseable {quoted:?}"));
        assert_eq!(back, s, "case {i}");
    }
}

#[test]
fn numeric_cells_round_trip_and_honor_the_nan_policy() {
    let mut rng = StdRng::seed_from_u64(0xF10A7);
    for _ in 0..2000 {
        let v = rng.gen_range(-1.0e12..1.0e12);
        let json = Cell::Num(v).json();
        let back: f64 = json.parse().expect("numeric literal");
        assert_eq!(back.to_bits(), v.to_bits(), "shortest round trip for {v}");
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Cell::Num(bad).json(), "null");
        assert_eq!(Cell::Num(bad).csv(), "");
    }
}

#[test]
fn report_json_key_order_is_fixed() {
    let ctx = Context::fast();
    let report = experiment::run(
        "fig12",
        &ctx,
        &Runner,
        &ScenarioFilter::all().network("AlexNet"),
    )
    .expect("fig12 exists");
    let json = render_json(report.as_ref());
    let pos = |key: &str| {
        json.find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("missing key {key}"))
    };
    assert!(pos("experiment") < pos("title"));
    assert!(pos("title") < pos("tables"));
    assert!(pos("tables") < pos("columns"));
    assert!(pos("columns") < pos("rows"));
    assert!(pos("rows") < pos("notes"));
    assert!(pos("notes") < pos("artifacts"));
}

#[test]
fn two_fresh_contexts_render_byte_identical_json() {
    let render = || {
        let ctx = Context::fast();
        let report =
            experiment::run("fig11", &ctx, &Runner, &ScenarioFilter::all()).expect("fig11 exists");
        render_json(report.as_ref())
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "fresh contexts must render identically");
}
