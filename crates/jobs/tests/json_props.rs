//! Property tests for the flat-JSON codec every JSONL boundary shares
//! (`placer_telemetry::json`), driven through the job protocol:
//!
//! 1. any string put through `push_escaped` parses back equal, as a key
//!    and as a value;
//! 2. any finite `f64` written by `push_f64` parses back bit-identical;
//! 3. byte flips, truncation and duplicated keys applied to a valid
//!    `JobReport` line make the parser (and the job-file reader on top of
//!    it) return `Ok` or `Err`, never panic.

use placer_jobs::{parse_jobs, JobReport, JobStatus};
use placer_telemetry::json::{parse_object, push_escaped, push_f64, Json};
use proptest::prelude::*;

/// Characters the escaper treats specially, drawn often so short strings
/// still hit every branch.
const SPECIAL: [char; 10] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
];

/// A string from `(class, code)` draws: an escaper special, ASCII, or any
/// Unicode scalar value (surrogate codes fall back to U+FFFD).
fn make_string(draws: Vec<(u32, u32)>) -> String {
    draws
        .into_iter()
        .map(|(class, code)| match class {
            0 => SPECIAL[code as usize % SPECIAL.len()],
            1 => char::from((code % 0x80) as u8),
            _ => char::from_u32(code).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn report_line(id: &str, wall_ms: f64, hpwl: f64) -> String {
    JobReport {
        id: id.into(),
        circuit: "cc_ota".into(),
        placer: "eplace-a".into(),
        status: JobStatus::Complete,
        seed: 7,
        simd: "scalar",
        retries: 0,
        wall_ms,
        deadline_slack_ms: Some(12.5),
        hpwl: Some(hpwl),
        area: Some(1.5e3),
        legal: Some(true),
        iterations: Some(40),
        fom: None,
        checkpoint: None,
        eco: Some("fast"),
        dirty_fraction: Some(0.125),
        error: Some("tab\there".into()),
    }
    .to_line()
}

const REPORT_KEYS: [&str; 6] = ["v", "id", "status", "wall_ms", "legal", "eco"];
const VALUES: [&str; 6] = ["1", "\"x\"", "true", "null", "-0", "\"\\u00e9\""];

/// Applies one mutation to `bytes`: `kind` 0 flips bits of one byte, 1
/// truncates, 2 appends a duplicate of a report key before the closing
/// brace.
fn mutate(bytes: &mut Vec<u8>, kind: u32, at: usize, mask: u8) {
    if bytes.is_empty() {
        return;
    }
    let at = at % bytes.len();
    match kind {
        0 => bytes[at] ^= mask,
        1 => bytes.truncate(at),
        _ => {
            let dup = format!(
                ", \"{}\": {}",
                REPORT_KEYS[at % REPORT_KEYS.len()],
                VALUES[mask as usize % VALUES.len()]
            );
            let close = bytes
                .iter()
                .rposition(|&b| b == b'}')
                .unwrap_or(bytes.len());
            bytes.splice(close..close, dup.into_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escaped_strings_parse_back_equal(
        draws in prop::collection::vec((0u32..3, 0u32..0x11_0000), 0..48),
    ) {
        let s = make_string(draws);
        let mut line = String::from("{\"");
        push_escaped(&mut line, &s);
        line.push_str("\": \"");
        push_escaped(&mut line, &s);
        line.push_str("\"}");
        let kv = parse_object(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        prop_assert_eq!(kv, vec![(s.clone(), Json::Str(s))]);
    }

    #[test]
    fn finite_numbers_parse_back_bit_identical(bits in 0u64..=u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let mut line = String::from("{\"v\":");
        push_f64(&mut line, v);
        line.push('}');
        let kv = parse_object(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        prop_assert_eq!(kv[0].1.as_num().map(f64::to_bits), Some(bits), "{}", line);
    }

    #[test]
    fn mutated_report_lines_never_panic(
        id in prop::collection::vec((0u32..3, 0u32..0x11_0000), 1..12),
        wall_ms in 0.0..1e4f64,
        hpwl in 1.0..1e6f64,
        mutations in prop::collection::vec((0u32..3, 0usize..4096, 1u8..=255), 1..4),
    ) {
        let id = make_string(id);
        let line = report_line(&id, wall_ms, hpwl);
        let kv = parse_object(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        prop_assert_eq!(kv[1].1.as_str(), Some(id.as_str()));

        let mut bytes = line.into_bytes();
        let only_duplicates = mutations.iter().all(|&(kind, _, _)| kind == 2);
        for (kind, at, mask) in mutations {
            mutate(&mut bytes, kind, at, mask);
        }
        let mutated = String::from_utf8_lossy(&bytes);
        let parsed = parse_object(&mutated);
        if only_duplicates {
            // A repeated key is still one well-formed flat object.
            prop_assert!(parsed.is_ok(), "{:?}: {:?}", mutated, parsed);
        }
        // The job-file reader on top must return a structured result too.
        let _ = parse_jobs(&mutated);
    }
}
