//! Trace completeness of a served run: once a traced server has stopped,
//! every span its connection threads, batcher and pool workers emitted
//! is in the sink (`emitted == collected + dropped`). Connection threads
//! are detached, so they must flush their span rings before the drain
//! sees them finish; the batcher must flush before it hands a round's
//! results back.
//!
//! This file is its own test binary so no other test shares the
//! process-global trace state. The loss is a race, so the check repeats
//! over many rounds, alternating an inline (one-thread) pool, where the
//! batcher simulates words itself, with a two-thread pool.

use std::io::{BufReader, Write};
use std::net::TcpStream;

use hlpower_obs::json;
use hlpower_obs::trace;
use hlpower_serve::{client, Server, ServerConfig};

const ROUNDS: usize = 20;
const CLIENTS: u64 = 4;

fn gray_counter_src() -> String {
    let path = format!("{}/../../examples/gray_counter4.v", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn estimate_body(src: &str, seed: u64, glitch: bool) -> String {
    let mode = if glitch { ", \"mode\": \"glitch\", \"width\": 256" } else { "" };
    format!(
        "{{\"netlist\": {}, \"seed\": {seed}{mode}, \"options\": {{\"batch_cycles\": 20, \
         \"max_batches\": 24, \"target_relative_error\": 0.0, \"z\": 1.96}}}}",
        json::escaped(src)
    )
}

/// Posts every body over one keep-alive connection, then closes it.
fn keep_alive_session(addr: &str, bodies: &[String]) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for body in bodies {
        write!(
            writer,
            "POST /estimate HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        writer.flush().expect("flush request");
        let resp = client::read_response(&mut reader).expect("read response");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
}

#[test]
fn every_served_span_reaches_the_sink_before_the_server_stops() {
    let src = gray_counter_src();
    trace::set_enabled(true);
    for round in 0..ROUNDS {
        trace::reset();
        let threads = 1 + round % 2;
        let server =
            Server::start(ServerConfig { threads, ..ServerConfig::default() }).expect("start");
        let addr = server.addr().to_string();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (addr, src) = (&addr, &src);
                s.spawn(move || {
                    let seed = round as u64 * CLIENTS + c;
                    let bodies = [
                        estimate_body(src, seed, false),
                        estimate_body(src, seed, true),
                        estimate_body(src, seed, false),
                    ];
                    keep_alive_session(addr, &bodies);
                    let metrics = client::request(addr, "GET", "/metrics", None).expect("metrics");
                    assert_eq!(metrics.status, 200);
                });
            }
        });
        server.stop();
        let collected = trace::take_events();
        assert!(
            collected.iter().any(|e| e.name == "serve.word"),
            "round {round}: no batcher span collected"
        );
        assert_eq!(
            trace::emitted(),
            collected.len() as u64 + trace::dropped(),
            "round {round} ({threads} pool thread(s)): {} collected, {} dropped",
            collected.len(),
            trace::dropped()
        );
    }
    trace::set_enabled(false);
}
