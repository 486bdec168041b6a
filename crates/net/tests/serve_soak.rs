//! Soak/chaos test for the serving layer: N concurrent clients hammer
//! a server whose engine ladder injects panics ([`wsn_node::ChaosEngine`]
//! over a calibrated surrogate tier) while the shared cache persists to
//! disk. The server must:
//!
//! * bring every submitted job to a terminal frame (no client left
//!   hanging) without crashing,
//! * degrade through the ladder (`degraded_served > 0` in `stats`)
//!   instead of failing jobs outright,
//! * still answer `ping` afterwards, shut down cleanly, and
//! * leave the persistent cache uncorrupted — a fresh [`EvalCache`]
//!   re-opening the directory adopts records and quarantines nothing.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};

use wsn_dse::protocol::{write_frame, Frame, Request, RunJob, SimulateJob};
use wsn_dse::EvalCache;
use wsn_net::{ServeConfig, Server};

const CLIENTS: usize = 3;
const JOBS_PER_CLIENT: usize = 3;

fn send(stream: &mut TcpStream, line: &str) {
    write_frame(stream, line).expect("send");
}

/// One soak client: submits a mix of run and simulate jobs on a single
/// connection, then reads frames until every job is terminal. Returns
/// `(results, errors)` counts.
fn soak_client(addr: SocketAddr, client: usize) -> (usize, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for j in 0..JOBS_PER_CLIENT {
        let tag = format!("c{client}j{j}");
        let request = if j % 2 == 0 {
            Request::Run(RunJob {
                id: Some(tag),
                seed: (client * 10 + j) as u64,
                horizon: 600.0,
                ..Default::default()
            })
        } else {
            Request::Simulate(SimulateJob {
                id: Some(tag),
                interval: 5.0 + client as f64,
                horizon: 600.0,
                ..Default::default()
            })
        };
        send(&mut stream, &request.to_json());
    }
    let mut results = 0;
    let mut errors = 0;
    while results + errors < JOBS_PER_CLIENT {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "server closed the connection mid-soak");
        match Frame::parse(&line).expect("well-formed frame") {
            Frame::Result { .. } => results += 1,
            Frame::JobError { .. } => errors += 1,
            Frame::Cancelled { .. } => panic!("nothing was cancelled in this soak"),
            Frame::ProtocolRejected { code, message } => {
                panic!("valid request rejected: {code}: {message}")
            }
            _ => {}
        }
    }
    (results, errors)
}

#[test]
fn chaos_soak_degrades_gracefully_and_keeps_the_cache_clean() {
    let cache_dir = std::env::temp_dir().join(format!("wsn-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            cache_dir: Some(cache_dir.clone()),
            chaos_rate: 0.3,
            chaos_seed: 42,
            ..Default::default()
        },
    )
    .expect("bind chaos server");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());

    // N concurrent clients, each multiplexing several jobs.
    let totals: Vec<(usize, usize)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || soak_client(addr, c)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("soak client"))
            .collect()
    });
    let (results, errors) = totals
        .iter()
        .fold((0, 0), |(r, e), &(cr, ce)| (r + cr, e + ce));
    assert_eq!(results + errors, CLIENTS * JOBS_PER_CLIENT);
    // The ladder exists so chaos degrades instead of failing: with a
    // surrogate tier underneath, at least some jobs must still succeed.
    assert!(
        results > 0,
        "every job failed despite the degradation ladder"
    );

    // The ladder actually absorbed panics, and the server still talks.
    let mut stream = TcpStream::connect(addr).expect("post-soak connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send(&mut stream, &Request::Stats.to_json());
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    let Frame::Stats { raw } = Frame::parse(&line).expect("stats frame") else {
        panic!("expected stats frame, got {line:?}")
    };
    let doc = wsn_dse::protocol::parse_json(&raw).expect("stats json");
    let degraded = doc
        .get("degraded_served")
        .and_then(|v| v.as_u64())
        .expect("degraded_served");
    assert!(
        degraded > 0,
        "chaos at rate 0.3 never reached the surrogate tier: {raw}"
    );

    send(&mut stream, &Request::Ping.to_json());
    line.clear();
    reader.read_line(&mut line).expect("pong reply");
    assert!(matches!(Frame::parse(&line), Ok(Frame::Pong)));

    // Graceful shutdown flushes the persistent cache.
    send(&mut stream, &Request::Shutdown.to_json());
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(matches!(Frame::parse(&line), Ok(Frame::ShuttingDown)));
    handle.join().expect("server thread");

    // Re-open the survived cache with a fresh instance: records load,
    // none are quarantined (i.e. the chaos never corrupted the file).
    let reopened = EvalCache::new();
    reopened
        .persist_to(&cache_dir)
        .expect("re-open persisted cache");
    let stats = reopened.stats();
    assert!(
        stats.disk_loads > 0,
        "the soak should have persisted evaluations: {stats:?}"
    );
    assert_eq!(
        stats.quarantined, 0,
        "corrupt records after soak: {stats:?}"
    );
    std::fs::remove_dir_all(&cache_dir).expect("cleanup");
}
