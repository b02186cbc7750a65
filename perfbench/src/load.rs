//! The two timed phases. Both use `nproc` threads, each owning one
//! keep-alive connection, and cycle through the pre-rendered sequence.
//!
//! * Open loop: request `i` is due at `start + i / rate`. A free
//!   connection sleeps until the due time and sends; its latency runs from
//!   the due time to the last response byte, so a stall is charged to every
//!   request it delays. A failed request's latency is `+∞`.
//! * Closed loop: every connection sends its next request as soon as the
//!   previous one is answered, for whole cycles of the sequence that fill
//!   at least a fixed time; throughput counts the `200` responses.

use crate::corpus::Request;
use crate::http::{Conn, Reply};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request's fate in a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Whether it was an `/ingest`.
    pub ingest: bool,
    /// Due (open loop) or send (closed loop) time to last byte, in ms;
    /// `+∞` when the request failed.
    pub latency_ms: f64,
    /// How late the generator sent it: send time minus the later of its
    /// due time and the moment a connection was free to take it, in ms.
    pub lag_ms: f64,
}

impl Sample {
    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.latency_ms.is_finite()
    }
}

/// Every sample of one phase plus its wall time.
#[derive(Debug, Default)]
pub struct Phase {
    /// Samples in completion order per connection, connections concatenated.
    pub samples: Vec<Sample>,
    /// From the phase start to the last response, in seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Requests that succeeded.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok()).count()
    }

    /// Requests that failed.
    pub fn failed(&self) -> usize {
        self.samples.len() - self.ok()
    }
}

/// Whether `reply` is a success for `req`: status `200` and, where the
/// oracle's bytes for that position are known, exactly those bytes.
fn accept(reply: &std::io::Result<Reply>, expected: Option<&Vec<u8>>) -> bool {
    match reply {
        Ok(r) => r.status == 200 && expected.is_none_or(|want| *want == r.body),
        Err(_) => false,
    }
}

/// The open-loop phase: `round(rate × seconds)` requests on a fixed
/// schedule, starting at sequence position `offset`.
pub fn open_loop(
    addr: &str,
    seq: &[Request],
    expected: Option<&[Vec<u8>]>,
    offset: usize,
    rate: f64,
    seconds: f64,
    conns: usize,
) -> Phase {
    let n = (rate * seconds).round() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    let mut last = start;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let free = Instant::now();
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        let pos = (offset + i) % seq.len();
                        let req = &seq[pos];
                        let sent = Instant::now();
                        let reply = conn.send(&req.raw);
                        let done = Instant::now();
                        last = done;
                        let ok = accept(&reply, expected.map(|e| &e[pos]));
                        out.push(Sample {
                            ingest: req.is_ingest(),
                            latency_ms: if ok {
                                ms(done.saturating_duration_since(due))
                            } else {
                                f64::INFINITY
                            },
                            lag_ms: ms(sent.saturating_duration_since(due.max(free))),
                        });
                    }
                    (out, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect::<Vec<_>>()
    });
    collect(per_conn, start)
}

/// The closed-loop phase: `conns` connections back to back for at least
/// `seconds`, over whole cycles of the sequence starting at the first
/// cycle boundary at or after position `offset`. Stopping on a boundary
/// keeps the phase's mix exactly the workload's: a phase cut by the clock
/// alone would count one ~100 ms `/ingest` more or less depending on where
/// the deadline fell.
pub fn closed_loop(
    addr: &str,
    seq: &[Request],
    expected: Option<&[Vec<u8>]>,
    offset: usize,
    seconds: f64,
    conns: usize,
) -> Phase {
    let len = seq.len();
    let first = offset.div_ceil(len) * len;
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // Past the deadline a connection may not claim a cycle's first request.
    let claim = || {
        let stop = Instant::now() >= deadline;
        next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
            (!stop || i % len != 0 || i == first).then_some(i + 1)
        })
    };
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    let mut last = start;
                    while let Ok(i) = claim() {
                        let pos = i % len;
                        let req = &seq[pos];
                        let sent = Instant::now();
                        let reply = conn.send(&req.raw);
                        let done = Instant::now();
                        last = done;
                        let ok = accept(&reply, expected.map(|e| &e[pos]));
                        out.push(Sample {
                            ingest: req.is_ingest(),
                            latency_ms: if ok { ms(done - sent) } else { f64::INFINITY },
                            lag_ms: 0.0,
                        });
                    }
                    (out, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect::<Vec<_>>()
    });
    collect(per_conn, start)
}

fn collect(per_conn: Vec<(Vec<Sample>, Instant)>, start: Instant) -> Phase {
    let mut phase = Phase::default();
    let mut end = start;
    for (samples, last) in per_conn {
        phase.samples.extend(samples);
        end = end.max(last);
    }
    phase.elapsed_s = end.saturating_duration_since(start).as_secs_f64();
    phase
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
