//! The parsers that read files from outside the program — a metrics
//! snapshot, a series export, a counterexample replay file — answer every
//! damaged input with `Ok` or `Err`, never a panic.
//!
//! Each parser is fed every prefix of a well-formed input (a truncated
//! file) and every single-byte substitution from a fixed alphabet of
//! bytes that matter to its syntax (a corrupted file). The replay file is
//! also re-executed whenever it still parses, since `replay` builds and
//! steps a machine from whatever the file says.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sesame_check::{
    check, parse_replay, replay, to_replay_string, CanonicalConfig, CheckOptions, GwcMutation,
};
use sesame_telemetry::{SeriesExport, Snapshot};

const METRICS: &str = include_str!("../golden/contention_metrics.json");
const SERIES: &str = include_str!("../golden/contention_series.json");

/// Bytes that open, close, separate or spell JSON values.
const JSON_ALPHABET: &[u8] = b"{}[]\",:-9e";

/// Bytes that separate, negate or spell a replay file's lines and values.
const REPLAY_ALPHABET: &[u8] = b"=,\n-90x";

/// Every prefix of `text`, then every substitution of one byte from
/// `alphabet` (skipping UTF-8 continuation bytes, so each input stays a
/// `str`).
fn damaged(text: &str, alphabet: &[u8]) -> Vec<String> {
    let mut out: Vec<String> = (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(|i| text[..i].to_string())
        .collect();
    for (i, &old) in text.as_bytes().iter().enumerate() {
        if !old.is_ascii() {
            continue;
        }
        for &new in alphabet.iter().filter(|&&new| new != old) {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] = new;
            out.push(String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8"));
        }
    }
    out
}

/// Runs `parse` over every damaged copy of `text`; fails listing the
/// inputs it panicked on.
fn assert_never_panics(name: &str, text: &str, alphabet: &[u8], parse: impl Fn(&str)) {
    let inputs = damaged(text, alphabet);
    let panicked: Vec<&String> = inputs
        .iter()
        .filter(|input| catch_unwind(AssertUnwindSafe(|| parse(input))).is_err())
        .collect();
    assert!(
        panicked.is_empty(),
        "{name}: {} of {} damaged inputs panicked, first: {:?}",
        panicked.len(),
        inputs.len(),
        panicked.first()
    );
}

#[test]
fn a_damaged_snapshot_is_an_error_not_a_panic() {
    assert!(Snapshot::from_json(METRICS).is_ok());
    assert_never_panics("snapshot", METRICS, JSON_ALPHABET, |s| {
        let _ = Snapshot::from_json(s);
    });
}

#[test]
fn a_damaged_series_export_is_an_error_not_a_panic() {
    assert!(SeriesExport::from_json(SERIES).is_ok());
    assert_never_panics("series", SERIES, JSON_ALPHABET, |s| {
        let _ = SeriesExport::from_json(s);
    });
}

#[test]
fn a_damaged_replay_file_is_an_error_not_a_panic() {
    let cfg = CanonicalConfig {
        contenders: 2,
        rounds: 1,
        gwc_mutation: GwcMutation::StaleGrantReuse,
        ..CanonicalConfig::default()
    };
    let report = check(cfg, CheckOptions::default());
    let file = to_replay_string(&report.counterexample.expect("counterexample"));
    let (parsed, choices) = parse_replay(&file).expect("well-formed replay file");
    assert!(replay(parsed, &choices).is_ok());
    assert_never_panics("replay", &file, REPLAY_ALPHABET, |s| {
        if let Ok((cfg, choices)) = parse_replay(s) {
            let _ = replay(cfg, &choices);
        }
    });
}
