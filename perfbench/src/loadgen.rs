//! Open-loop load generation: operations are due on a fixed schedule
//! whatever the server does, and each is timed from when it was due, so a
//! stall is charged to every request it delays. The generator also
//! reports its own lateness, so a run where it fell behind can be told
//! apart from a slow server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::{SpanId, SpanLog};

/// What an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A query request; the payload selects the request body.
    Read(usize),
    /// An edit request (the n-th edit of the phase).
    Edit(usize),
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// When it is due, ns since the run epoch.
    pub due_ns: u64,
    /// What to send.
    pub kind: OpKind,
}

/// Due time of the `i`-th operation of a stream at `rate` per second that
/// starts at `offset_ns`.
pub fn due_ns(i: usize, rate: f64, offset_ns: u64) -> u64 {
    offset_ns + (i as f64 * 1e9 / rate).round() as u64
}

/// The generator's own lateness: how long after the operation could have
/// gone out (it was due, and a connection slot was free to claim it) it
/// actually went out.
pub fn lateness_ns(due_ns: u64, claim_ns: u64, send_ns: u64) -> u64 {
    send_ns.saturating_sub(due_ns.max(claim_ns))
}

/// Latency charged to an operation: completion minus due time.
pub fn latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// One stream of operations at `rate` per second for `seconds`, due from
/// `offset_ns` on; payload indexes count on from `first`.
pub fn stream(
    rate: f64,
    seconds: f64,
    offset_ns: u64,
    first: usize,
    kind: fn(usize) -> OpKind,
) -> Vec<Op> {
    let count = (rate * seconds).round() as usize;
    (0..count).map(|i| Op { due_ns: due_ns(i, rate, offset_ns), kind: kind(first + i) }).collect()
}

/// Operations worked off by their own generator threads, each thread
/// holding one connection at a time.
#[derive(Debug)]
pub struct Lane {
    /// The schedule, in due order.
    pub ops: Vec<Op>,
    /// Generator threads (= open connections) of this lane.
    pub threads: usize,
}

/// What the sender reports about one operation.
#[derive(Debug, Default)]
pub struct Sent {
    /// HTTP status, `None` on a transport error.
    pub status: Option<u16>,
    /// Completion, ns since the run epoch.
    pub done_ns: u64,
    /// Response body, when the sender kept it for checking.
    pub body: Option<Vec<u8>>,
}

/// The full record of one operation.
#[derive(Debug)]
pub struct Outcome {
    /// The operation.
    pub op: Op,
    /// When a generator thread took it up.
    pub claim_ns: u64,
    /// When its request started.
    pub send_ns: u64,
    /// What came back.
    pub sent: Sent,
}

impl Outcome {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        latency_ns(self.op.due_ns, self.sent.done_ns) as f64 / 1e6
    }

    /// Generator lateness, ms.
    pub fn lateness_ms(&self) -> f64 {
        lateness_ns(self.op.due_ns, self.claim_ns, self.send_ns) as f64 / 1e6
    }
}

/// Runs every lane at once. Each thread of a lane claims the lane's next
/// operation, sleeps until it is due, and calls `send`, which records its
/// spans under the given parent. Returns each lane's outcomes in schedule
/// order and the threads' span logs.
pub fn run<F>(
    lanes: &[Lane],
    epoch: Instant,
    trace: bool,
    send: F,
) -> (Vec<Vec<Outcome>>, Vec<SpanLog>)
where
    F: Fn(&Op, &mut SpanLog, SpanId, u64) -> Sent + Sync,
{
    let nexts: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let tables: Vec<Mutex<Vec<Option<Outcome>>>> =
        lanes.iter().map(|l| Mutex::new((0..l.ops.len()).map(|_| None).collect())).collect();
    let logs = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (lane_no, lane) in lanes.iter().enumerate() {
            for _ in 0..lane.threads {
                let (next, table, send) = (&nexts[lane_no], &tables[lane_no], &send);
                let thread = workers.len() as u32 + 1;
                workers.push(s.spawn(move || {
                    let mut log = SpanLog::new(epoch, thread, trace);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = lane.ops.get(i) else { break };
                        let claim_ns = log.now_ns();
                        if claim_ns < op.due_ns {
                            std::thread::sleep(Duration::from_nanos(op.due_ns - claim_ns));
                        }
                        let send_ns = log.now_ns();
                        let req = ((lane_no as u64) << 32) | i as u64;
                        let root = log.record("bench.op", op.due_ns, op.due_ns, None, req);
                        if send_ns > op.due_ns.max(claim_ns) {
                            log.record(
                                "bench.lag",
                                op.due_ns.max(claim_ns),
                                send_ns,
                                Some(root),
                                req,
                            );
                        }
                        let sent = send(op, &mut log, root, req);
                        log.end_at(root, sent.done_ns);
                        mine.push((i, Outcome { op: *op, claim_ns, send_ns, sent }));
                    }
                    let mut all = table.lock().expect("outcome table poisoned");
                    for (i, o) in mine {
                        all[i] = Some(o);
                    }
                    log
                }));
            }
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let outcomes = tables
        .into_iter()
        .map(|t| {
            t.into_inner()
                .expect("outcome table poisoned")
                .into_iter()
                .map(|o| o.expect("every op ran"))
                .collect()
        })
        .collect();
    (outcomes, logs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 1000.0, 5), 5);
        assert_eq!(due_ns(3, 1000.0, 5), 3_000_005);
        assert_eq!(due_ns(1, 3.0, 0), 333_333_333);
    }

    #[test]
    fn lateness_excludes_waiting_for_a_free_slot() {
        // Claimed early, slept, woke 40 µs late.
        assert_eq!(lateness_ns(1_000, 0, 41_000), 40_000);
        // Claimed 2 ms after due (both slots were busy): only the gap from
        // the claim to the send is the generator's own.
        assert_eq!(lateness_ns(1_000, 2_001_000, 2_003_000), 2_000);
        // Sent on time.
        assert_eq!(lateness_ns(1_000, 0, 1_000), 0);
        // ... but the busy slots do count against the server's latency.
        assert_eq!(latency_ns(1_000, 2_500_000), 2_499_000);
    }

    #[test]
    fn stream_is_evenly_spaced_from_its_offset() {
        let ops = stream(4.0, 1.0, 10, 100, OpKind::Read);
        let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, (100..104).map(OpKind::Read).collect::<Vec<_>>());
        let dues: Vec<u64> = ops.iter().map(|o| o.due_ns).collect();
        assert_eq!(dues, vec![10, 250_000_010, 500_000_010, 750_000_010]);
        assert_eq!(stream(2.0, 1.0, 0, 0, OpKind::Edit).len(), 2);
    }

    #[test]
    fn runs_every_op_once_with_bounded_concurrency() {
        let lanes = [
            Lane { ops: stream(2000.0, 0.05, 0, 0, OpKind::Read), threads: 2 },
            Lane { ops: stream(200.0, 0.05, 0, 0, OpKind::Edit), threads: 1 },
        ];
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (outcomes, logs) = run(&lanes, Instant::now(), true, |_, log, _, _| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            Sent { status: Some(200), done_ns: log.now_ns(), body: None }
        });
        for (lane, got) in lanes.iter().zip(&outcomes) {
            assert_eq!(got.len(), lane.ops.len());
            assert!(got.iter().zip(&lane.ops).all(|(o, op)| o.op == *op && o.send_ns >= op.due_ns));
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        let roots: usize =
            logs.iter().map(|l| l.spans().iter().filter(|s| s.name == "bench.op").count()).sum();
        assert_eq!(roots, 100 + 10);
    }
}
