//! Property-based tests for the `wsn-serve` wire protocol codec
//! (`wsn_dse::protocol`): request round-trips through JSON and through
//! the command-line decoder, torn/partial/garbage lines, oversized
//! frames and byte-exact report recovery.
//!
//! The robustness contract under test: **parsing never panics** — every
//! malformed line maps to a structured [`ProtocolError`] with a stable
//! code — and a `result` frame's report survives framing byte-for-byte.

use proptest::prelude::*;
use wsn_dse::protocol::{
    extract_raw_field, parse_json, result_frame, running_frame, FaultsJob, Frame, Json, NetworkJob,
    ParetoJob, Request, RunJob, SimulateJob, MAX_FRAME_BYTES,
};
use wsn_node::EngineKind;

/// Strategy: an optional client tag, including escaping-hostile ones.
fn id_strategy() -> impl Strategy<Value = Option<String>> {
    prop::sample::select(vec![
        None,
        Some("a".to_owned()),
        Some("job-7".to_owned()),
        Some("tag with \"quotes\"".to_owned()),
        Some("back\\slash\\".to_owned()),
        Some("multi\nline\ttab".to_owned()),
        Some("uni\u{2603}code \u{1f600}".to_owned()),
        Some("ctrl\u{1}char".to_owned()),
        Some("{\"looks\":\"like json\"}".to_owned()),
    ])
}

fn engine_strategy() -> impl Strategy<Value = EngineKind> {
    prop::sample::select(vec![EngineKind::Envelope, EngineKind::Full])
}

fn timeout_strategy() -> impl Strategy<Value = Option<u64>> {
    prop::sample::select(vec![None, Some(0), Some(1), Some(250), Some(86_400_000)])
}

/// Strategy: an optional value drawn from `values`.
fn optional<T: Clone>(values: &[T]) -> impl Strategy<Value = Option<T>> {
    prop::sample::select(
        std::iter::once(None)
            .chain(values.iter().cloned().map(Some))
            .collect::<Vec<_>>(),
    )
}

/// Strategy: one request of any type, fields drawn across their valid
/// ranges (floats restricted to exactly-representable round-trip-safe
/// grids so `PartialEq` comparison after a text round-trip is exact).
fn request_strategy() -> impl Strategy<Value = Request> {
    (
        (
            0usize..9,
            id_strategy(),
            engine_strategy(),
            timeout_strategy(),
        ),
        (0u64..10_000, 1u64..50, 0u64..1000, 1u64..20),
        (
            prop::sample::select(vec![25.0f64, 75.0, 120.5, 200.25]),
            prop::sample::select(vec![60.0f64, 600.0, 3600.0, 7200.5]),
            prop::sample::select(vec![0.0f64, 0.125, 0.5, 1.0]),
            prop::sample::select(vec![0.0f64, 1e-5, 0.000125]),
        ),
        (
            (1u64..40, 0u64..500),
            prop::sample::select(vec![1e6f64, 4e6, 8e6]),
            (
                prop::sample::select(vec![0.0f64, 1.5, 30.0]),
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
            ),
            (
                optional(&[0.02f64, 0.05]),
                optional(&[0.0f64, 20.0]),
                optional(&[5.0f64, 30.0]),
                optional(&[
                    "tx_per_hour".to_owned(),
                    "goodput_per_hour,collision_rate".to_owned(),
                ]),
            ),
        ),
    )
        .prop_map(
            |(
                (kind, id, engine, timeout_ms),
                (seed, runs, fault_seed, seeds),
                (f0, horizon, fault_rate, dt),
                (
                    (nodes, fleet_seed),
                    clock,
                    (spread, ideal, dse, adaptive),
                    (slot, range, grid_pitch, objectives),
                ),
            )| {
                match kind {
                    0 => Request::Run(RunJob {
                        id,
                        seed,
                        runs,
                        f0,
                        horizon,
                        engine,
                        dt,
                        fault_seed,
                        fault_rate,
                        timeout_ms,
                    }),
                    1 => Request::Simulate(SimulateJob {
                        id,
                        clock,
                        watchdog: 320.0,
                        interval: 5.0,
                        f0,
                        horizon,
                        engine,
                        dt,
                        fault_seed,
                        fault_rate,
                        timeout_ms,
                    }),
                    2 => Request::Faults(FaultsJob {
                        id,
                        clock,
                        watchdog: 320.0,
                        interval: 5.0,
                        f0,
                        horizon,
                        fault_seed,
                        fault_rate: fault_rate.max(0.125),
                        seeds,
                        engine,
                        dt,
                        timeout_ms,
                    }),
                    3 => Request::Network(Box::new(NetworkJob {
                        id,
                        nodes,
                        fleet_seed,
                        f0,
                        horizon,
                        freq_spread: spread,
                        phase_spread: spread * 2.0,
                        ideal,
                        slot,
                        interference: range,
                        delivery: range.map(|r| r + 10.0),
                        ring_radius: 10.0 + spread,
                        grid_pitch,
                        dse,
                        seed,
                        runs,
                        clock,
                        watchdog: 320.0,
                        interval: 5.0,
                        engine,
                        dt,
                        fault_seed,
                        fault_rate,
                        timeout_ms,
                    })),
                    4 => Request::Pareto(Box::new(ParetoJob {
                        id,
                        fleet: dse,
                        nodes,
                        fleet_seed,
                        f0,
                        horizon,
                        freq_spread: spread,
                        phase_spread: spread * 2.0,
                        ideal,
                        slot,
                        interference: range,
                        delivery: range.map(|r| r + 10.0),
                        ring_radius: 10.0 + spread,
                        grid_pitch,
                        fault_seed,
                        fault_rate,
                        objectives,
                        adaptive,
                        budget: 4 + runs,
                        batch: seeds,
                        front_cap: 2 + seeds,
                        explore: fault_rate,
                        seed,
                        runs,
                        engine,
                        dt,
                        timer_space: ideal && adaptive,
                        timeout_ms,
                    })),
                    5 => Request::Cancel { job: seed },
                    6 => Request::Stats,
                    7 => Request::Ping,
                    _ => Request::Shutdown,
                }
            },
        )
}

/// The command line a client would type for `req`: every member of its
/// JSON form but `type` as an option (`fault_rate` → `--fault-rate`),
/// `true` as a bare flag and `false` left out.
fn argv_form(req: &Request) -> (String, Vec<String>) {
    let Ok(Json::Obj(members)) = parse_json(&req.to_json()) else {
        panic!("a request encodes as a JSON object");
    };
    let mut kind = String::new();
    let mut argv = Vec::new();
    for (name, value) in members {
        let option = format!("--{}", name.replace('_', "-"));
        match value {
            Json::Str(text) if name == "type" => kind = text,
            Json::Str(text) => argv.extend([option, text]),
            Json::Num(v) => argv.extend([option, v.to_string()]),
            Json::Bool(true) => argv.push(option),
            Json::Bool(false) => {}
            other => panic!("unexpected member {name}: {other:?}"),
        }
    }
    (kind, argv)
}

/// Strategy: a line of protocol-hostile characters (JSON structural
/// bytes, escapes, digits, multibyte scalars, control characters).
fn garbage_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(
            "{}[]\",:\\ \t\nnulltruefalse0123456789.-+eE\u{1}\u{7f}\u{2603}\u{1f600}xyz"
                .chars()
                .collect::<Vec<char>>(),
        ),
        0..64usize,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy: raw JSON value snippets chosen to stress the span
/// extraction behind [`extract_raw_field`] (braces/brackets inside
/// strings, escaped quotes, nesting, exotic numbers).
fn report_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "null",
            "true",
            "-1.5e-3",
            "9007199254740992",
            "[1,2,[3,{\"deep\":[]}]]",
            "\"plain\"",
            "\"with \\\"escaped\\\" quotes\"",
            "\"}]{[ structural chars in a string\"",
            "{\"x\":\"}]\\\" nasty\",\"y\":[1,{\"z\":\"]\"}]}",
            "{\"cache\":{\"hits\":3,\"misses\":4}}",
        ]),
        1..6usize,
    )
    .prop_map(|values| {
        let members: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("\"k{i}\":{v}"))
            .collect();
        format!("{{{}}}", members.join(","))
    })
}

proptest! {
    /// Encode → decode is the identity for every request type.
    #[test]
    fn request_round_trips(req in request_strategy()) {
        let line = req.to_json();
        let back = Request::parse(&line);
        prop_assert_eq!(back.as_ref().ok(), Some(&req), "line: {}", line);
        // A second round-trip is byte-stable (canonical form).
        prop_assert_eq!(back.unwrap().to_json(), line);
    }

    /// A command line and its JSON form decode to the same request: the
    /// argv form of every request, decoded as `wsn_client` decodes it,
    /// gives the request back.
    #[test]
    fn argv_and_json_decode_alike(req in request_strategy()) {
        let (kind, argv) = argv_form(&req);
        let back = Request::from_argv(&kind, &argv, &[], true).map(|(request, _)| request);
        prop_assert_eq!(back.as_ref().ok(), Some(&req), "argv: {:?}", argv);
        prop_assert_eq!(Request::parse(&req.to_json()).ok(), Some(req));
    }

    /// Garbage never panics and never yields an unstructured error, on
    /// both codec directions.
    #[test]
    fn garbage_lines_yield_structured_errors(line in garbage_strategy()) {
        if let Err(e) = Request::parse(&line) {
            prop_assert!(!e.code.is_empty());
            prop_assert!(!e.message.is_empty());
            // The error frame itself is always well-formed protocol.
            prop_assert!(matches!(
                Frame::parse(&e.to_frame()),
                Ok(Frame::ProtocolRejected { .. })
            ));
        }
        if let Err(e) = Frame::parse(&line) {
            prop_assert!(!e.code.is_empty());
        }
    }

    /// Every strict prefix of a valid request line (a torn frame) is a
    /// structured parse error, never a panic and never a silent success
    /// that changes the request.
    #[test]
    fn torn_frames_never_panic(req in request_strategy(), cut in 0usize..4096) {
        let line = req.to_json();
        let mut cut = cut % line.len();
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let torn = &line[..cut];
        match Request::parse(torn) {
            Err(e) => prop_assert!(!e.code.is_empty()),
            // A prefix of an object literal is never a complete object.
            Ok(other) => prop_assert_eq!(other, req),
        }
    }

    /// Frames beyond `MAX_FRAME_BYTES` are rejected up front with the
    /// dedicated code, regardless of content.
    #[test]
    fn oversized_frames_are_rejected(extra in 1usize..4096) {
        let line = "x".repeat(MAX_FRAME_BYTES + extra);
        prop_assert_eq!(Request::parse(&line).unwrap_err().code, "oversized_frame");
        prop_assert_eq!(Frame::parse(&line).unwrap_err().code, "oversized_frame");
    }

    /// A report embedded in a `result` frame is recovered byte-for-byte
    /// by both the raw extractor and the frame parser.
    #[test]
    fn result_reports_survive_framing(report in report_strategy(), id in id_strategy(), job in 0u64..10_000) {
        let frame = result_frame(job, id.as_deref(), &report);
        prop_assert_eq!(extract_raw_field(&frame, "report"), Some(report.as_str()));
        match Frame::parse(&frame) {
            Ok(Frame::Result { job: j, id: i, report: r }) => {
                prop_assert_eq!(j, job);
                prop_assert_eq!(i, id);
                prop_assert_eq!(r, report);
            }
            other => prop_assert!(false, "unexpected parse: {:?}", other),
        }
    }

    /// Progress frames echo the job number and tag exactly.
    #[test]
    fn progress_frames_round_trip(id in id_strategy(), job in 0u64..10_000) {
        match Frame::parse(&running_frame(job, id.as_deref())) {
            Ok(Frame::Running { job: j, id: i }) => {
                prop_assert_eq!(j, job);
                prop_assert_eq!(i, id);
            }
            other => prop_assert!(false, "unexpected parse: {:?}", other),
        }
    }
}
