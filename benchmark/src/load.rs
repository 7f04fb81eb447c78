//! Closed-loop rounds over the serving stack: one client thread per
//! connection, each waiting for replies before it sends more.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::check::{mismatch, Failure};
use crate::spans::Spans;
use crate::wire::Wire;
use crate::RunResult;

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests (warm-up).
    Ops(u64),
    /// Once at least one request was sent and this instant has passed
    /// (timed rounds).
    At(Instant),
}

impl Stop {
    pub fn more(self, sent: u64, now: Instant) -> bool {
        match self {
            Stop::Ops(n) => sent < n,
            Stop::At(t) => sent == 0 || now < t,
        }
    }
}

/// What one connection did in one round.
pub struct Tally {
    /// Connection index, used as the trace thread id.
    pub conn: u32,
    pub ops: u64,
    pub failed: u64,
    /// When its last reply arrived.
    pub last: Instant,
    /// Per-op latency, ns (untraced rounds only).
    pub latencies: Vec<u64>,
    /// One `op` span per request (traced rounds only).
    pub spans: Option<Spans>,
}

impl Tally {
    /// Records one finished op.
    pub fn op(&mut self, id: u64, sent: Instant, done: Instant) {
        self.ops += 1;
        self.last = done;
        match &mut self.spans {
            Some(spans) => {
                spans.push("op", sent, done, None, id, self.conn);
            }
            None => self.latencies.push((done - sent).as_nanos() as u64),
        }
    }
}

/// One connection's closed loop: keeps up to `window` requests in flight
/// until `stop`, then drains. `next` appends the next request line to the
/// buffer and returns its op id and what its check needs; `check` judges
/// each reply, in request order, given the op id it answers.
pub fn windowed<R>(
    wire: &mut Wire,
    window: usize,
    stop: Stop,
    tally: &mut Tally,
    mut next: impl FnMut(&mut Vec<u8>) -> (u64, R),
    mut check: impl FnMut(u64, R, &[u8], &mut Tally) -> Result<(), Failure>,
) -> Result<(), Failure> {
    let mut inflight: VecDeque<(u64, R, Instant)> = VecDeque::with_capacity(window);
    let mut batch = Vec::with_capacity(window);
    let mut out = Vec::with_capacity(window * 128);
    let mut sent = 0u64;
    loop {
        out.clear();
        while inflight.len() + batch.len() < window && stop.more(sent, Instant::now()) {
            batch.push(next(&mut out));
            sent += 1;
        }
        if !batch.is_empty() {
            let now = Instant::now();
            wire.send(&out)?;
            inflight.extend(batch.drain(..).map(|(id, r)| (id, r, now)));
        }
        if inflight.is_empty() {
            return Ok(());
        }
        wire.recv_lines(|line| {
            let done = Instant::now();
            let (id, r, sent_at) = inflight
                .pop_front()
                .ok_or_else(|| mismatch("reply without a request"))?;
            check(id, r, line, tally)?;
            tally.op(id, sent_at, done);
            Ok(())
        })?;
    }
}

/// Runs `drive` on every connection state in its own thread and waits for
/// all of them. Returns the tallies in connection order.
pub fn round<S: Send>(
    states: &mut [S],
    stop: Stop,
    spans_epoch: Option<Instant>,
    drive: impl Fn(&mut S, Stop, &mut Tally) -> Result<(), Failure> + Sync,
) -> Result<Vec<Tally>, Failure> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let drive = &drive;
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| {
                scope.spawn(move || {
                    let mut tally = Tally {
                        conn: i as u32,
                        ops: 0,
                        failed: 0,
                        last: start,
                        latencies: Vec::new(),
                        spans: spans_epoch.map(Spans::new),
                    };
                    drive(state, stop, &mut tally).map(|()| tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure::Io("client thread panicked".into())))
            })
            .collect()
    })
}

/// Folds a timed round's tallies into the run: its rate is ops completed
/// over the time from the round's start to its last reply. Returns that time.
pub fn record(
    out: &mut RunResult,
    traced: bool,
    start: Instant,
    tallies: Vec<Tally>,
    spans: &mut Spans,
) -> Duration {
    let ops: u64 = tallies.iter().map(|t| t.ops).sum();
    let last = tallies.iter().map(|t| t.last).max().unwrap_or(start);
    out.failed += tallies.iter().map(|t| t.failed).sum::<u64>();
    let mut latencies = Vec::with_capacity(tallies.iter().map(|t| t.latencies.len()).sum());
    for t in tallies {
        latencies.extend(t.latencies);
        if let Some(s) = t.spans {
            spans.absorb(s);
        }
    }
    out.round(traced, ops, (last - start).as_secs_f64(), &mut latencies)
}
