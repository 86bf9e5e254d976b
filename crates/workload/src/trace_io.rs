//! Import/export of block-trace files in the common CSV shape used by
//! SNIA IOTTA block traces (the paper's raw material): one record per
//! line, `timestamp,op,lba,size`, where timestamp is in microseconds,
//! op is `R`/`W` (case-insensitive; `0`/`1` also accepted), lba is in
//! 4 KiB sectors and size in bytes.
//!
//! This lets users feed their own traces to every harness in the
//! workspace, and extract the fitted statistics the synthetic generator
//! needs (the paper's methodology: fit an MMPP to the real trace's
//! moments, then generate).
//!
//! [`read_fio_jsonl`] additionally accepts the JSON-lines shape emitted
//! by fio's log hooks and blktrace converters: one object per line with
//! a microsecond timestamp, an op, a byte offset and a byte length.
//! Parsed traces plug into the sweep engine through
//! [`crate::source::ReplaySpec`].

use crate::request::{IoType, Request, SECTOR_BYTES};
use crate::synthetic::StreamProfile;
use crate::trace::Trace;
use serde::Value;
use sim_engine::{SimDuration, SimTime};
use std::io::{BufRead, Write};

/// Parse error with line context.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Largest accepted trace timestamp in µs: half of [`SimTime`]'s 2^64 ps
/// range (≈ 106.8 days), so `arrival + latency` keeps as much headroom
/// again before the picosecond clock could overflow.
const MAX_TIMESTAMP_US: f64 = (1u64 << 63) as f64 / 1e6;

/// The one timestamp check both readers share: `ts` (µs) must be
/// finite, nonnegative and at most [`MAX_TIMESTAMP_US`]; `field` prefixes
/// the error message.
fn arrival_time(ts: f64, line: usize, field: &str) -> Result<SimTime, ParseError> {
    if (0.0..=MAX_TIMESTAMP_US).contains(&ts) {
        Ok(SimTime::ZERO + SimDuration::from_us_f64(ts))
    } else {
        Err(ParseError {
            line,
            message: format!(
                "{field}timestamp must be finite, nonnegative and at most \
                 {MAX_TIMESTAMP_US} µs, got {ts}"
            ),
        })
    }
}

fn parse_op(tok: &str) -> Option<IoType> {
    match tok.trim().to_ascii_lowercase().as_str() {
        "r" | "read" | "0" => Some(IoType::Read),
        "w" | "write" | "1" => Some(IoType::Write),
        _ => None,
    }
}

/// Read a CSV trace. Lines starting with `#` and blank lines are
/// skipped. Timestamps must be finite, from 0 to 2^63 ps ≈ 9.22e12 µs
/// (≈ 106.8 days). Request ids are assigned in file order; the trace is
/// sorted by arrival.
pub fn read_csv<R: BufRead>(reader: R) -> Result<Trace, ParseError> {
    let mut requests = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| ParseError {
            line: lineno,
            message: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',');
        let mut next = |what: &str| {
            parts
                .next()
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or(ParseError {
                    line: lineno,
                    message: format!("missing field: {what}"),
                })
        };
        let ts: f64 = next("timestamp")?.parse().map_err(|e| ParseError {
            line: lineno,
            message: format!("bad timestamp: {e}"),
        })?;
        let op = parse_op(next("op")?).ok_or(ParseError {
            line: lineno,
            message: "op must be R/W/read/write/0/1".into(),
        })?;
        let lba: u64 = next("lba")?.parse().map_err(|e| ParseError {
            line: lineno,
            message: format!("bad lba: {e}"),
        })?;
        let size: u64 = next("size")?.parse().map_err(|e| ParseError {
            line: lineno,
            message: format!("bad size: {e}"),
        })?;
        if size == 0 {
            return Err(ParseError {
                line: lineno,
                message: "size must be positive".into(),
            });
        }
        let arrival = arrival_time(ts, lineno, "")?;
        if let Some(extra) = parts.next() {
            return Err(ParseError {
                line: lineno,
                message: format!(
                    "unexpected extra field after size: {:?} (expected timestamp,op,lba,size)",
                    extra.trim()
                ),
            });
        }
        requests.push(Request {
            id: requests.len() as u64,
            op,
            lba,
            size,
            arrival,
        });
    }
    Ok(Trace::from_requests(requests))
}

/// Write a trace in the same CSV shape (with a header comment).
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# timestamp_us,op,lba_sectors,size_bytes")?;
    for r in trace.requests() {
        writeln!(
            w,
            "{:.3},{},{},{}",
            r.arrival.as_us_f64(),
            if r.op.is_read() { "R" } else { "W" },
            r.lba,
            r.size
        )?;
    }
    Ok(())
}

/// Options for [`read_fio_jsonl`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FioReadOptions {
    /// Accept records whose timestamps go backwards by sorting the trace
    /// on arrival after parsing (request ids are reassigned in arrival
    /// order). Off by default: replayed traces drive a discrete-event
    /// simulation, so a timestamp that moves backwards is almost always
    /// a corrupt or mis-converted recording and is reported as a
    /// [`ParseError`] naming the offending line.
    pub sort_by_arrival: bool,
}

fn fio_field<'a>(v: &'a Value, lineno: usize, name: &str) -> Result<&'a Value, ParseError> {
    v.get(name).ok_or_else(|| ParseError {
        line: lineno,
        message: format!("missing field `{name}`"),
    })
}

fn fio_f64(v: &Value, lineno: usize, name: &str) -> Result<f64, ParseError> {
    match fio_field(v, lineno, name)? {
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        Value::Float(f) => Ok(*f),
        other => Err(ParseError {
            line: lineno,
            message: format!("field `{name}`: expected a number, got {}", other.kind()),
        }),
    }
}

fn fio_u64(v: &Value, lineno: usize, name: &str) -> Result<u64, ParseError> {
    match fio_field(v, lineno, name)? {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        other => Err(ParseError {
            line: lineno,
            message: format!(
                "field `{name}`: expected a nonnegative integer, got {}",
                other.kind()
            ),
        }),
    }
}

/// Read a fio/blktrace-style JSON-lines trace: one JSON object per line,
/// blank lines and `#` comments skipped. Recognized fields (all
/// required):
///
/// * `ts_us` — arrival timestamp in microseconds (a finite number from
///   0 to 2^63 ps ≈ 9.22e12 µs ≈ 106.8 days; non-decreasing across
///   records unless [`FioReadOptions::sort_by_arrival`] is set);
/// * `op` — `"R"`/`"W"`/`"read"`/`"write"` (case-insensitive) or the
///   blktrace numeric convention `0` (read) / `1` (write);
/// * `offset` — byte offset on the device (converted to 4 KiB-sector
///   LBAs; sub-sector offsets round down);
/// * `len` — transfer length in bytes (positive).
///
/// Request ids are assigned in arrival order; validation failures name
/// the line and field.
pub fn read_fio_jsonl<R: BufRead>(
    reader: R,
    options: &FioReadOptions,
) -> Result<Trace, ParseError> {
    let mut requests = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut out_of_order = false;
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| ParseError {
            line: lineno,
            message: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let record = serde_json::parse_value(trimmed).map_err(|e| ParseError {
            line: lineno,
            message: format!("bad JSON record: {e}"),
        })?;
        if record.as_object().is_none() {
            return Err(ParseError {
                line: lineno,
                message: format!("expected a JSON object, got {}", record.kind()),
            });
        }
        let ts = fio_f64(&record, lineno, "ts_us")?;
        let arrival = arrival_time(ts, lineno, "field `ts_us`: ")?;
        if ts < last_ts {
            if options.sort_by_arrival {
                out_of_order = true;
            } else {
                return Err(ParseError {
                    line: lineno,
                    message: format!(
                        "field `ts_us`: timestamp goes backwards ({ts} after {last_ts}); \
                         enable FioReadOptions::sort_by_arrival to accept out-of-order records"
                    ),
                });
            }
        }
        last_ts = last_ts.max(ts);
        let op = match fio_field(&record, lineno, "op")? {
            Value::Str(s) => parse_op(s),
            Value::UInt(0) | Value::Int(0) => Some(IoType::Read),
            Value::UInt(1) | Value::Int(1) => Some(IoType::Write),
            _ => None,
        }
        .ok_or_else(|| ParseError {
            line: lineno,
            message: "field `op`: must be R/W/read/write/0/1".into(),
        })?;
        let offset = fio_u64(&record, lineno, "offset")?;
        let len = fio_u64(&record, lineno, "len")?;
        if len == 0 {
            return Err(ParseError {
                line: lineno,
                message: "field `len`: length must be positive".into(),
            });
        }
        requests.push(Request {
            id: requests.len() as u64,
            op,
            lba: offset / SECTOR_BYTES,
            size: len,
            arrival,
        });
    }
    let trace = Trace::from_requests(requests);
    // The sorted recovery path reorders records, leaving file-order ids
    // non-monotone; merging with the empty trace reassigns them.
    Ok(if out_of_order {
        trace.merge(Trace::new())
    } else {
        trace
    })
}

/// Write a trace in the fio JSON-lines shape read by [`read_fio_jsonl`]
/// (timestamps keep 3 decimals of µs, matching [`write_csv`], so the two
/// formats parse back to identical traces).
pub fn write_fio_jsonl<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    for r in trace.requests() {
        writeln!(
            w,
            "{{\"ts_us\":{:.3},\"op\":\"{}\",\"offset\":{},\"len\":{}}}",
            r.arrival.as_us_f64(),
            if r.op.is_read() { "R" } else { "W" },
            r.lba * SECTOR_BYTES,
            r.size
        )?;
    }
    Ok(())
}

/// Fit per-class [`StreamProfile`]s from a trace — the statistics the
/// paper extracts from SNIA traces to drive the MMPP generator
/// (`(mean, SCV)` of inter-arrival time and request size, per class).
/// Returns `(read_profile, write_profile)`; a class with fewer than two
/// requests yields `None`.
pub fn fit_profiles(trace: &Trace) -> (Option<StreamProfile>, Option<StreamProfile>) {
    let fit = |op: IoType| {
        let s = trace.class_stats(op);
        if s.count < 2 || s.iat_mean_us <= 0.0 || s.size_mean <= 0.0 {
            return None;
        }
        Some(StreamProfile {
            iat_mean_us: s.iat_mean_us,
            iat_scv: s.iat_scv.max(0.05),
            size_mean: s.size_mean,
            size_scv: s.size_scv.max(0.05),
        })
    };
    (fit(IoType::Read), fit(IoType::Write))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{generate_micro, MicroConfig};
    use crate::synthetic::{generate_synthetic, SyntheticConfig};
    use std::io::Cursor;

    #[test]
    fn parses_well_formed_csv() {
        let data = "\
# a comment
10.5,R,100,4096

20.0,w,200,8192
30.25,1,300,16384
";
        let t = read_csv(Cursor::new(data)).unwrap();
        assert_eq!(t.len(), 3);
        let r = t.requests();
        assert_eq!(r[0].op, IoType::Read);
        assert_eq!(r[0].lba, 100);
        assert_eq!(r[1].op, IoType::Write);
        assert_eq!(r[2].op, IoType::Write);
        assert!((r[2].arrival.as_us_f64() - 30.25).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (bad, what) in [
            ("abc,R,1,4096", "timestamp"),
            ("1.0,X,1,4096", "op"),
            ("1.0,R,zzz,4096", "lba"),
            ("1.0,R,1,", "size"),
            ("1.0,R,1,0", "positive"),
            ("-1.0,R,1,4096", "nonnegative"),
            ("1.0,R", "missing"),
            // Non-finite timestamps, and one just past the 2^63 ps limit
            // (≈ 9.22e12 µs): accepted, each would become t = 0 or a
            // saturated clock that wraps once latency is added.
            ("NaN,R,1,4096", "finite"),
            ("inf,R,1,4096", "finite"),
            ("9.3e12,R,1,4096", "at most"),
        ] {
            let err = read_csv(Cursor::new(bad)).unwrap_err();
            assert_eq!(err.line, 1, "case {bad}");
            let msg = err.to_string();
            assert!(
                msg.to_lowercase().contains(&what.to_lowercase()),
                "case {bad}: {msg}"
            );
        }
        // Just inside the limit still parses, to the exact picosecond.
        let t = read_csv(Cursor::new("9.2e12,R,1,4096")).unwrap();
        assert_eq!(
            t.requests()[0].arrival,
            SimTime::from_ps(9_200_000_000_000_000_000)
        );
    }

    #[test]
    fn rejects_surplus_trailing_fields() {
        let err = read_csv(Cursor::new("1.0,R,1,4096,99")).unwrap_err();
        assert_eq!(err.line, 1);
        let msg = err.to_string();
        assert!(
            msg.contains("extra field") && msg.contains("99"),
            "error should name the surplus field: {msg}"
        );
        // A trailing comma is also a surplus (empty) field.
        let err = read_csv(Cursor::new("2.0,R,1,4096\n1.0,W,2,512,")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("extra field"), "{err}");
    }

    #[test]
    fn csv_round_trip() {
        let t = generate_micro(
            &MicroConfig {
                read_count: 100,
                write_count: 100,
                ..MicroConfig::default()
            },
            3,
        );
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let t2 = read_csv(Cursor::new(buf)).unwrap();
        assert_eq!(t2.len(), t.len());
        for (a, b) in t.requests().iter().zip(t2.requests()) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.lba, b.lba);
            assert_eq!(a.size, b.size);
            // Timestamps round-tripped at ns precision (CSV keeps 3
            // decimals of µs).
            assert!(a.arrival.since(b.arrival).as_us_f64().abs() < 0.001);
        }
    }

    #[test]
    fn fit_profiles_recovers_generator_moments() {
        // Generate a synthetic trace, fit it, and check the fitted
        // profile is close to the generating one — the paper's
        // fit-then-generate loop closes.
        let cfg = SyntheticConfig::vdi(8_000, 8_000);
        let t = generate_synthetic(&cfg, 5);
        let (r, w) = fit_profiles(&t);
        let r = r.expect("read profile");
        let w = w.expect("write profile");
        assert!((r.iat_mean_us - cfg.read.iat_mean_us).abs() / cfg.read.iat_mean_us < 0.1);
        assert!((r.size_mean - cfg.read.size_mean).abs() / cfg.read.size_mean < 0.1);
        assert!(
            r.iat_scv > 1.5,
            "bursty input should fit bursty: {}",
            r.iat_scv
        );
        assert!((w.size_mean - cfg.write.size_mean).abs() / cfg.write.size_mean < 0.1);
    }

    #[test]
    fn fit_profiles_clamps_constant_size_scv() {
        // All requests the same size: the sample size SCV is 0, which
        // the MMPP generator cannot consume — it must be clamped to the
        // same floor as the IAT SCV.
        let requests: Vec<Request> = (0..100)
            .map(|i| Request {
                id: i,
                op: if i % 2 == 0 {
                    IoType::Read
                } else {
                    IoType::Write
                },
                lba: i * 8,
                size: 4096,
                arrival: SimTime::ZERO + SimDuration::from_us_f64(10.0 + 7.3 * i as f64),
            })
            .collect();
        let t = Trace::from_requests(requests);
        let (r, w) = fit_profiles(&t);
        let r = r.expect("read profile");
        let w = w.expect("write profile");
        assert!(r.size_scv >= 0.05, "clamped: {}", r.size_scv);
        assert!(w.size_scv >= 0.05, "clamped: {}", w.size_scv);
    }

    #[test]
    fn parses_well_formed_fio_jsonl() {
        let data = r#"# exported by fio-to-jsonl
{"ts_us": 10.5, "op": "R", "offset": 409600, "len": 4096}

{"ts_us": 20, "op": "write", "offset": 8192, "len": 8192}
{"ts_us": 30.25, "op": 1, "offset": 4097, "len": 16384}
"#;
        let t = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap();
        assert_eq!(t.len(), 3);
        let r = t.requests();
        assert_eq!(r[0].op, IoType::Read);
        assert_eq!(r[0].lba, 100); // 409600 bytes / 4096
        assert_eq!(r[1].op, IoType::Write);
        assert_eq!(r[1].lba, 2);
        assert_eq!(r[2].lba, 1); // sub-sector offset rounds down
        assert!((r[2].arrival.as_us_f64() - 30.25).abs() < 1e-9);
        assert_eq!(r.iter().map(|q| q.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn fio_rejects_invalid_records_naming_line_and_field() {
        let cases = [
            (
                r#"{"ts_us": 1, "op": "R", "offset": 0, "len": 0}"#,
                1,
                "`len`",
            ),
            (
                r#"{"ts_us": -2, "op": "R", "offset": 0, "len": 512}"#,
                1,
                "`ts_us`",
            ),
            (
                r#"{"ts_us": 1, "op": "X", "offset": 0, "len": 512}"#,
                1,
                "`op`",
            ),
            (r#"{"ts_us": 1, "op": "R", "len": 512}"#, 1, "`offset`"),
            (
                r#"{"ts_us": 1, "op": "R", "offset": -4, "len": 512}"#,
                1,
                "`offset`",
            ),
            (
                r#"{"ts_us": "soon", "op": "R", "offset": 0, "len": 512}"#,
                1,
                "`ts_us`",
            ),
            // JSON has no NaN literal; 1e400 parses to infinity, and
            // 9.3e12 µs is just past the 2^63 ps limit.
            (
                r#"{"ts_us": 1e400, "op": "R", "offset": 0, "len": 512}"#,
                1,
                "`ts_us`",
            ),
            (
                r#"{"ts_us": 9.3e12, "op": "R", "offset": 0, "len": 512}"#,
                1,
                "`ts_us`",
            ),
            (
                "{\"ts_us\":1,\"op\":\"R\",\"offset\":0,\"len\":512}\n[1,2]",
                2,
                "object",
            ),
            ("not json at all", 1, "JSON"),
        ];
        for (data, line, needle) in cases {
            let err = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap_err();
            assert_eq!(err.line, line, "case {data}");
            assert!(
                err.to_string().contains(needle),
                "case {data}: error should mention {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn fio_accepts_timestamps_just_inside_the_limit() {
        let data = r#"{"ts_us": 9.2e12, "op": "R", "offset": 0, "len": 512}"#;
        let t = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap();
        assert_eq!(
            t.requests()[0].arrival,
            SimTime::from_ps(9_200_000_000_000_000_000)
        );
    }

    #[test]
    fn fio_rejects_deeply_nested_record_naming_the_line() {
        // One `[` per parser recursion: without a depth limit, 100,000
        // overflow the stack and abort the process.
        let data = format!(
            "{{\"ts_us\": 1, \"op\": \"R\", \"offset\": 0, \"len\": 512}}\n{}",
            "[".repeat(100_000)
        );
        let err = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn fio_rejects_backwards_timestamps_and_offers_recovery() {
        let data = "\
{\"ts_us\": 30, \"op\": \"R\", \"offset\": 0, \"len\": 512}
{\"ts_us\": 10, \"op\": \"W\", \"offset\": 4096, \"len\": 1024}
{\"ts_us\": 20, \"op\": \"R\", \"offset\": 8192, \"len\": 2048}
";
        // Strict mode: error names line 2 and the field, and points at
        // the recovery knob.
        let err = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap_err();
        assert_eq!(err.line, 2);
        let msg = err.to_string();
        assert!(
            msg.contains("`ts_us`") && msg.contains("backwards"),
            "{msg}"
        );
        assert!(msg.contains("sort_by_arrival"), "{msg}");

        // Opt-in recovery: sorted by arrival, ids reassigned monotone.
        let t = read_fio_jsonl(
            Cursor::new(data),
            &FioReadOptions {
                sort_by_arrival: true,
            },
        )
        .unwrap();
        let arrivals: Vec<f64> = t.requests().iter().map(|r| r.arrival.as_us_f64()).collect();
        assert_eq!(arrivals, vec![10.0, 20.0, 30.0]);
        let ids: Vec<u64> = t.requests().iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![0, 1, 2],
            "ids must be reassigned in arrival order"
        );
        assert_eq!(t.requests()[0].op, IoType::Write);
    }

    #[test]
    fn fio_ties_are_not_backwards() {
        let data = "\
{\"ts_us\": 10, \"op\": \"R\", \"offset\": 0, \"len\": 512}
{\"ts_us\": 10, \"op\": \"W\", \"offset\": 4096, \"len\": 1024}
";
        let t = read_fio_jsonl(Cursor::new(data), &FioReadOptions::default()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fio_round_trip() {
        let t = generate_micro(
            &MicroConfig {
                read_count: 200,
                write_count: 200,
                ..MicroConfig::default()
            },
            11,
        );
        let mut buf = Vec::new();
        write_fio_jsonl(&t, &mut buf).unwrap();
        let t2 = read_fio_jsonl(Cursor::new(buf), &FioReadOptions::default()).unwrap();
        assert_eq!(t2.len(), t.len());
        for (a, b) in t.requests().iter().zip(t2.requests()) {
            assert_eq!((a.id, a.op, a.lba, a.size), (b.id, b.op, b.lba, b.size));
            assert!(a.arrival.since(b.arrival).as_us_f64().abs() < 0.001);
        }
    }

    #[test]
    fn csv_and_fio_jsonl_parse_to_identical_traces() {
        // Both writers quantize timestamps to 3 decimals of µs and carry
        // the same (op, lba, size) payload, so the two on-disk formats
        // must parse back to bit-identical traces.
        let t = generate_synthetic(&SyntheticConfig::vdi(300, 150), 7);
        let mut csv = Vec::new();
        write_csv(&t, &mut csv).unwrap();
        let mut jsonl = Vec::new();
        write_fio_jsonl(&t, &mut jsonl).unwrap();
        let from_csv = read_csv(Cursor::new(csv)).unwrap();
        let from_jsonl = read_fio_jsonl(Cursor::new(jsonl), &FioReadOptions::default()).unwrap();
        assert_eq!(from_csv.requests(), from_jsonl.requests());
    }

    proptest::proptest! {
        /// `write_jsonl` ↔ `read_jsonl` is lossless for arbitrary
        /// request mixes (serde carries exact picosecond arrivals).
        #[test]
        fn prop_jsonl_round_trip(
            recs in proptest::collection::vec((0u64..1u64 << 40, 0u8..2, 1u64..1u64 << 20, 1u64..1u64 << 16), 1..60),
        ) {
            let reqs: Vec<Request> = recs
                .iter()
                .enumerate()
                .map(|(i, &(ps, op, lba, size))| Request {
                    id: i as u64,
                    op: if op == 0 { IoType::Read } else { IoType::Write },
                    lba,
                    size,
                    arrival: SimTime::from_ps(ps),
                })
                .collect();
            let t = Trace::from_requests(reqs);
            let mut buf = Vec::new();
            t.write_jsonl(&mut buf).unwrap();
            let t2 = Trace::read_jsonl(Cursor::new(buf)).unwrap();
            proptest::prop_assert_eq!(t.requests(), t2.requests());
        }
    }

    #[test]
    fn fit_profiles_empty_class() {
        let t = generate_micro(
            &MicroConfig {
                read_count: 50,
                write_count: 0,
                ..MicroConfig::default()
            },
            1,
        );
        let (r, w) = fit_profiles(&t);
        assert!(r.is_some());
        assert!(w.is_none());
    }
}
