//! Hostile input never panics: the trace readers (`read_csv`,
//! `read_fio_jsonl`, `Trace::read_jsonl`) and the JSON parser behind two
//! of them and the checkpoint manifests return `Ok` or `Err` on
//! arbitrary bytes. The parser bounds its nesting depth instead of
//! recursing until the stack overflows, and the readers only hand out
//! arrival times the picosecond clock can still add latencies to.

use proptest::prelude::*;
use srcsim::sim_engine::SimTime;
use srcsim::workload::trace_io::{read_csv, read_fio_jsonl, FioReadOptions};
use srcsim::workload::Trace;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fragments that steer random input toward the readers' interesting
/// paths: field names, delimiters, escapes, numbers at the edges of
/// `f64`, `u64` and the timestamp limit, and invalid UTF-8.
const FRAGMENTS: &[&[u8]] = &[
    b"{",
    b"}",
    b"[",
    b"]",
    b":",
    b",",
    b"\"",
    b"\\",
    b"\\u00e9",
    b"\\ud800",
    b"\n",
    b"#",
    b" ",
    b"\"ts_us\"",
    b"\"op\"",
    b"\"offset\"",
    b"\"len\"",
    b"\"id\"",
    b"\"lba\"",
    b"\"size\"",
    b"\"arrival\"",
    b"\"Read\"",
    b"\"Write\"",
    b"R",
    b"W",
    b"read",
    b"0",
    b"1",
    b"-",
    b".",
    b"e",
    b"+",
    b"NaN",
    b"inf",
    b"1e400",
    b"9.3e12",
    b"18446744073709551616",
    b"-9223372036854775809",
    b"null",
    b"true",
    "é".as_bytes(),
    b"\xff",
    b"\xe2\x82",
];

/// One input: each `(kind, x)` contributes a raw byte `x` (`kind == 0`)
/// or a fragment picked by `x`.
fn bytes(parts: &[(u8, u16)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(kind, x) in parts {
        if kind == 0 {
            out.push(x as u8);
        } else {
            out.extend_from_slice(FRAGMENTS[x as usize % FRAGMENTS.len()]);
        }
    }
    out
}

/// Arrival times a reader may hand out: at most 2^63 ps, leaving as
/// much headroom again for latencies.
fn arrivals_in_range(t: &Trace) -> bool {
    t.requests()
        .iter()
        .all(|r| r.arrival <= SimTime::from_ps(1 << 63))
}

fn nested_arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn json_nesting_limit_is_128() {
    assert!(serde_json::parse_value(&nested_arrays(128)).is_ok());
    let mixed = format!("{}1{}", "{\"a\":[".repeat(64), "]}".repeat(64));
    assert!(serde_json::parse_value(&mixed).is_ok(), "128 mixed levels");
    let err = serde_json::parse_value(&nested_arrays(129)).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    // Deep enough to overflow the stack of a recursive parser.
    let err = serde_json::parse_value(&nested_arrays(100_000)).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn read_csv_never_panics(parts in proptest::collection::vec((0u8..3, 0u16..256), 0..160)) {
        let input = bytes(&parts);
        let out = catch_unwind(AssertUnwindSafe(|| read_csv(Cursor::new(&input))));
        prop_assert!(out.is_ok(), "panicked on {:?}", String::from_utf8_lossy(&input));
        if let Ok(Ok(t)) = out {
            prop_assert!(arrivals_in_range(&t));
        }
    }

    #[test]
    fn read_fio_jsonl_never_panics(
        parts in proptest::collection::vec((0u8..3, 0u16..256), 0..160),
        sort in 0u8..2,
    ) {
        let input = bytes(&parts);
        let options = FioReadOptions { sort_by_arrival: sort == 1 };
        let out = catch_unwind(AssertUnwindSafe(|| read_fio_jsonl(Cursor::new(&input), &options)));
        prop_assert!(out.is_ok(), "panicked on {:?}", String::from_utf8_lossy(&input));
        if let Ok(Ok(t)) = out {
            prop_assert!(arrivals_in_range(&t));
        }
    }

    #[test]
    fn trace_read_jsonl_never_panics(parts in proptest::collection::vec((0u8..3, 0u16..256), 0..160)) {
        let input = bytes(&parts);
        let out = catch_unwind(AssertUnwindSafe(|| Trace::read_jsonl(Cursor::new(&input))));
        prop_assert!(out.is_ok(), "panicked on {:?}", String::from_utf8_lossy(&input));
    }

    #[test]
    fn parse_value_never_panics(parts in proptest::collection::vec((0u8..3, 0u16..256), 0..160)) {
        let input = String::from_utf8_lossy(&bytes(&parts)).into_owned();
        let out = catch_unwind(AssertUnwindSafe(|| serde_json::parse_value(&input)));
        prop_assert!(out.is_ok(), "panicked on {input:?}");
    }
}
