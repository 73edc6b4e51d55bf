//! The load generator: closed-loop keep-alive clients over real sockets.

use crate::workload::{Class, ClientStream, Inputs, Op};
use create_server::KeepAliveClient;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response to keep for the correctness checks.
#[derive(Debug, Clone)]
pub struct Kept {
    /// The request.
    pub op: Op,
    /// The response body.
    pub body: String,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Sending client.
    pub client: u16,
    /// Nanoseconds from the window's start to the send.
    pub start_ns: u64,
    /// Nanoseconds from send to the last response byte.
    pub latency_ns: u64,
    /// The request.
    pub op: Op,
    /// Latency class.
    pub class: Class,
    /// 2xx on a healthy connection.
    pub ok: bool,
}

/// What one phase of load produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Every request, in per-client order.
    pub samples: Vec<Sample>,
    /// Responses kept for checking.
    pub kept: Vec<Kept>,
    /// Ids of acknowledged submissions.
    pub acked_ids: Vec<String>,
    /// Nanoseconds from the start to the last response.
    pub elapsed_ns: u64,
}

/// Which responses the checks re-verify: a fixed stride over each
/// client's (seeded) sequence, capped, so keeping them costs the window
/// nothing but a body copy.
fn keep(op: &Op, ordinal: u64, kept_so_far: usize) -> bool {
    match op {
        Op::Search(..) => ordinal % 29 == 3 && kept_so_far < 48,
        Op::Cohort(_) => ordinal % 7 == 1 && kept_so_far < 48,
        Op::Submit(_) | Op::Flush => false,
    }
}

/// Runs every client's stream for `duration` and returns the streams
/// (positioned after their last request) with what they measured.
pub fn run_phase(
    addr: SocketAddr,
    inputs: &Arc<Inputs>,
    streams: Vec<ClientStream>,
    duration: Duration,
) -> (Vec<ClientStream>, PhaseResult) {
    let start = Instant::now();
    let deadline = start + duration;
    let handles: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(client, stream)| {
            let inputs = Arc::clone(inputs);
            std::thread::spawn(move || {
                client_loop(addr, &inputs, client as u16, stream, start, deadline)
            })
        })
        .collect();
    let mut streams = Vec::new();
    let mut result = PhaseResult::default();
    for handle in handles {
        let (stream, part) = handle.join().expect("client thread");
        streams.push(stream);
        result.samples.extend(part.samples);
        result.kept.extend(part.kept);
        result.acked_ids.extend(part.acked_ids);
        result.elapsed_ns = result.elapsed_ns.max(part.elapsed_ns);
    }
    (streams, result)
}

fn connect(addr: SocketAddr) -> Option<KeepAliveClient> {
    let client = KeepAliveClient::connect(addr).ok()?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .ok()?;
    Some(client)
}

fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    client: u16,
    mut stream: ClientStream,
    start: Instant,
    deadline: Instant,
) -> (ClientStream, PhaseResult) {
    let mut out = PhaseResult::default();
    let mut conn = connect(addr);
    let mut ordinal = 0u64;
    let mut kept_search = 0usize;
    let mut kept_cohort = 0usize;
    while Instant::now() < deadline {
        let op = stream.next_op();
        let class = inputs.class(&op);
        let bytes = inputs.request_bytes(&op);
        let submit_id = match op {
            Op::Submit(n) => Some(inputs.held_out(n).id),
            _ => None,
        };
        let kept_count = if class == Class::Search {
            kept_search
        } else {
            kept_cohort
        };
        let keep_body = keep(&op, ordinal, kept_count);
        ordinal += 1;
        let sent = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.send_raw(&bytes).and_then(|()| {
                if keep_body {
                    c.read_response().map(|r| (r.status, Some(r.body_str())))
                } else {
                    c.read_status().map(|s| (s, None))
                }
            }),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no connection",
            )),
        };
        let done = Instant::now();
        let ok = match &reply {
            Ok((status, _)) => (200..300).contains(status),
            Err(_) => false,
        };
        if reply.is_err() {
            // A broken connection fails this request; later ones reconnect.
            conn = connect(addr);
        }
        if let Ok((_, Some(body))) = reply {
            if ok {
                out.kept.push(Kept { op, body });
                if class == Class::Search {
                    kept_search += 1;
                } else {
                    kept_cohort += 1;
                }
            }
        }
        if ok {
            if let Some(id) = submit_id {
                out.acked_ids.push(id);
            }
        }
        stream.acknowledge(&op, ok);
        out.samples.push(Sample {
            client,
            start_ns: (sent - start).as_nanos() as u64,
            latency_ns: (done - sent).as_nanos() as u64,
            op,
            class,
            ok,
        });
        out.elapsed_ns = (done - start).as_nanos() as u64;
    }
    (stream, out)
}

/// One request on a fresh connection, outside any timed phase.
pub fn request(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, String), String> {
    let mut conn = connect(addr).ok_or("connect failed")?;
    conn.send_raw(bytes).map_err(|e| e.to_string())?;
    let reply = conn.read_response().map_err(|e| e.to_string())?;
    Ok((reply.status, reply.body_str()))
}

/// `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let bytes = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    match request(addr, bytes.as_bytes())? {
        (200, body) => Ok(body),
        (status, body) => Err(format!("GET {path}: {status} {body}")),
    }
}
