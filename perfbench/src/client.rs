//! The benchmark's client node: a `pbft_core` client driven in a closed or
//! an open loop, keeping a ledger of every operation it was asked to run.
//!
//! Each operation gets a *due* time. In the closed loop the next operation
//! is due the instant the previous reply arrives, so the due time is the
//! first send. In the open loop an operation is due at its pacing slot and
//! is submitted then even if an earlier one is still outstanding: the
//! engine queues it, so a stall shows up as latency instead of as skipped
//! slots.

use std::collections::VecDeque;

use harness::CostModel;
use pbft_core::client::{Client, ClientEvent};
use pbft_core::{HandleResult, NetTarget, OpCounts, Output, TimerKind};
use simnet::{Node, NodeCtx, NodeId, SimDuration, TimerId};

use crate::probe::{span, Span};

/// The host-private pacing timer, outside the engine's `TimerKind` range.
const PACE_TIMER: TimerId = TimerId(1_001);

/// What a correct reply to an operation looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A null reply: exactly this many zero bytes.
    Null(usize),
    /// An e-voting write: any non-error SQL outcome. `Some(choice)` for a
    /// vote, which later `MyVote` queries of the same client must return.
    Write(Option<String>),
    /// `MyVote`: the rows must hold this client's latest vote.
    MyVote,
}

/// One operation from a workload generator.
pub struct Op {
    /// Encoded operation.
    pub bytes: Vec<u8>,
    /// Submit on the read-only path.
    pub read_only: bool,
    /// The reply check.
    pub expect: Expect,
}

/// A per-client operation generator, called with the client's op index.
pub type Gen = Box<dyn FnMut(u64) -> Op>;

/// How the client issues operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Issue nothing new (outstanding and queued operations still finish).
    Idle,
    /// One operation outstanding at a time, the next issued on each reply.
    Closed,
    /// One operation due every `pace`, submitted whatever is outstanding.
    Open {
        /// Interval between due slots.
        pace: SimDuration,
    },
}

#[derive(Debug)]
struct Pending {
    due_ns: u64,
    read_only: bool,
    expect: Expect,
    /// Counted as attempted (due inside the measurement window).
    counted: bool,
    /// `Client::metrics.retransmissions` when the operation was submitted.
    retransmits_at_submit: u64,
}

/// Everything the client observed, for the report.
#[derive(Debug, Default, Clone)]
pub struct ClientLedger {
    /// Operations due inside the measurement window.
    pub attempted: u64,
    /// Of those, completed with a correct reply.
    pub correct: u64,
    /// Of those, completed with a wrong reply.
    pub wrong: u64,
    /// Wrong replies to operations outside the window (set-up, warm-up).
    pub setup_wrong: u64,
    /// Latency samples (ns, from the due time) of the counted operations.
    pub latencies_ns: Vec<u64>,
    /// Virtual times (ns) of every certified reply after the window opened.
    pub reply_times_ns: Vec<u64>,
    /// Read-only operations counted, and those answered on the first,
    /// optimistic round (no retransmission, hence no escalation).
    pub reads: u64,
    /// See [`ClientLedger::reads`].
    pub fast_reads: u64,
    /// Open loop: how late the generator submitted a counted slot, at most.
    pub max_lateness_ns: u64,
    /// A few descriptions of wrong replies, for the error report.
    pub wrong_examples: Vec<String>,
}

/// A client mounted as a simulator node.
pub struct BenchClient {
    /// The engine under test.
    pub client: Client,
    model: CostModel,
    gen: Option<Gen>,
    issued: u64,
    drive: Drive,
    /// Open loop: the next slot's due time.
    next_due_ns: u64,
    pending: VecDeque<Pending>,
    /// Operations due at or after this virtual time are counted.
    window_open_ns: Option<u64>,
    last_vote: Option<String>,
    /// The report ledger.
    pub ledger: ClientLedger,
    /// Work the client engine performed (cost-model inputs).
    pub counts: OpCounts,
}

fn apply(res: HandleResult, model: &CostModel, counts: &mut OpCounts, ctx: &mut NodeCtx<'_>) {
    counts.add(&res.counts);
    ctx.charge(model.charge_counts(&res.counts));
    for out in res.outputs {
        match out {
            Output::Send { to, packet, .. } => {
                ctx.charge(model.packet_cost(packet.len()));
                let dst = match to {
                    NetTarget::Replica(r) => NodeId(r.0),
                    NetTarget::Client(addr) => NodeId(addr),
                };
                ctx.send(dst, packet);
            }
            Output::SetTimer { kind, delay_ns } => {
                ctx.set_timer(TimerId(kind.index()), SimDuration::from_nanos(delay_ns));
            }
            Output::CancelTimer { kind } => ctx.cancel_timer(TimerId(kind.index())),
        }
    }
}

impl BenchClient {
    /// Mount a client engine with no workload.
    pub fn new(client: Client, model: CostModel) -> BenchClient {
        BenchClient {
            client,
            model,
            gen: None,
            issued: 0,
            drive: Drive::Idle,
            next_due_ns: 0,
            pending: VecDeque::new(),
            window_open_ns: None,
            last_vote: None,
            ledger: ClientLedger::default(),
            counts: OpCounts::default(),
        }
    }

    /// Install a generator and start driving it. `phase` delays the first
    /// open-loop slot (staggering the fleet); the closed loop ignores it.
    pub fn start(&mut self, gen: Gen, drive: Drive, phase: SimDuration, ctx: &mut NodeCtx<'_>) {
        self.gen = Some(gen);
        self.drive = drive;
        match drive {
            Drive::Idle => {}
            Drive::Closed => self.pump(ctx),
            Drive::Open { .. } => {
                self.next_due_ns = ctx.now().as_nanos() + phase.as_nanos();
                ctx.set_timer(PACE_TIMER, phase);
            }
        }
    }

    /// Change how new operations are issued (e.g. [`Drive::Idle`] to stop).
    pub fn set_drive(&mut self, drive: Drive) {
        self.drive = drive;
    }

    /// Count operations due from `now_ns` on, and record replies from then.
    pub fn open_window(&mut self, now_ns: u64) {
        self.window_open_ns = Some(now_ns);
    }

    /// Operations submitted and not yet answered.
    pub fn unanswered(&self) -> usize {
        self.pending.len()
    }

    /// Counted operations submitted and not yet answered.
    pub fn unanswered_counted(&self) -> u64 {
        self.pending.iter().filter(|p| p.counted).count() as u64
    }

    /// Submit one operation now, due now (also used for set-up operations).
    pub fn submit(&mut self, op: Op, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now().as_nanos();
        self.submit_due(op, now, ctx);
    }

    fn submit_due(&mut self, op: Op, due_ns: u64, ctx: &mut NodeCtx<'_>) {
        let counted = self.window_open_ns.is_some_and(|t| due_ns >= t);
        if counted {
            self.ledger.attempted += 1;
            if op.read_only {
                self.ledger.reads += 1;
            }
        }
        self.pending.push_back(Pending {
            due_ns,
            read_only: op.read_only,
            expect: op.expect,
            counted,
            retransmits_at_submit: self.client.metrics.retransmissions,
        });
        let res = self
            .client
            .submit(op.bytes, op.read_only, ctx.now().as_nanos());
        apply(res, &self.model, &mut self.counts, ctx);
    }

    fn issue(&mut self, due_ns: u64, ctx: &mut NodeCtx<'_>) {
        let Some(gen) = &mut self.gen else {
            return;
        };
        let op = gen(self.issued);
        self.issued += 1;
        self.submit_due(op, due_ns, ctx);
    }

    fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.drive == Drive::Closed && self.client.is_member() && self.pending.is_empty() {
            self.issue(ctx.now().as_nanos(), ctx);
        }
    }

    /// Submit every slot that has come due, each stamped with its slot
    /// time, and arm the timer for the next one. The timer fires late when
    /// the node is busy; the lateness is recorded, not absorbed.
    fn on_pace(&mut self, ctx: &mut NodeCtx<'_>) {
        let Drive::Open { pace } = self.drive else {
            return; // pacing stopped: let the timer die
        };
        let now = ctx.now().as_nanos();
        while self.next_due_ns <= now {
            let due = self.next_due_ns;
            self.next_due_ns += pace.as_nanos();
            if self.client.is_member() {
                if self.window_open_ns.is_some_and(|t| due >= t) {
                    self.ledger.max_lateness_ns = self.ledger.max_lateness_ns.max(now - due);
                }
                self.issue(due, ctx);
            }
        }
        ctx.set_timer(PACE_TIMER, SimDuration::from_nanos(self.next_due_ns - now));
    }

    fn check(&mut self, expect: &Expect, result: &[u8]) -> Result<(), String> {
        match expect {
            Expect::Null(size) => {
                if result.len() == *size && result.iter().all(|&b| b == 0) {
                    Ok(())
                } else {
                    Err(format!("null reply of {} bytes", result.len()))
                }
            }
            Expect::Write(vote) => {
                sql_ok(result)?;
                if vote.is_some() {
                    self.last_vote = vote.clone();
                }
                Ok(())
            }
            Expect::MyVote => {
                let rows = match sql_ok(result)? {
                    pbft_sql::WireOutcome::Rows(rows) => rows.rows,
                    other => return Err(format!("MyVote returned {other:?}")),
                };
                let got: Vec<Option<String>> = rows
                    .iter()
                    .map(|r| match r.first() {
                        Some(minisql::Value::Text(t)) => Some(t.clone()),
                        _ => None,
                    })
                    .collect();
                let want: Vec<Option<String>> = self.last_vote.iter().cloned().map(Some).collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("MyVote returned {got:?}, last vote {want:?}"))
                }
            }
        }
    }

    fn on_reply(&mut self, result: &[u8], now_ns: u64) {
        let Some(p) = self.pending.pop_front() else {
            return; // a set-up reply nobody is waiting on
        };
        let verdict = self.check(&p.expect, result);
        if self.window_open_ns.is_some_and(|t| now_ns >= t) {
            self.ledger.reply_times_ns.push(now_ns);
        }
        match verdict {
            Ok(()) if !p.counted => {}
            Ok(()) => {
                self.ledger.correct += 1;
                self.ledger.latencies_ns.push(now_ns - p.due_ns);
                if p.read_only && self.client.metrics.retransmissions == p.retransmits_at_submit {
                    self.ledger.fast_reads += 1;
                }
            }
            Err(why) => {
                if p.counted {
                    self.ledger.wrong += 1;
                } else {
                    self.ledger.setup_wrong += 1;
                }
                if self.ledger.wrong_examples.len() < 3 {
                    self.ledger.wrong_examples.push(why);
                }
            }
        }
    }

    fn drain_events(&mut self, ctx: &mut NodeCtx<'_>) {
        for event in self.client.take_events() {
            if let ClientEvent::ReplyDelivered { result, .. } = event {
                self.on_reply(&result, ctx.now().as_nanos());
            }
        }
    }
}

/// Decode an SQL reply, rejecting errors (including `err:` app replies).
fn sql_ok(result: &[u8]) -> Result<pbft_sql::WireOutcome, String> {
    if result.starts_with(b"err:") {
        return Err(String::from_utf8_lossy(result).into_owned());
    }
    match pbft_sql::decode_outcome(result) {
        Some(pbft_sql::WireOutcome::Error(e)) => Err(format!("sql error: {e}")),
        Some(outcome) => Ok(outcome),
        None => Err("undecodable reply".into()),
    }
}

impl Node for BenchClient {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        span(Span::Client, || {
            let res = self.client.on_start(ctx.now().as_nanos());
            apply(res, &self.model, &mut self.counts, ctx);
        })
    }

    fn on_packet(&mut self, _src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
        span(Span::Client, || {
            ctx.charge(self.model.packet_cost(payload.len()));
            let res = self.client.handle_packet(payload, ctx.now().as_nanos());
            apply(res, &self.model, &mut self.counts, ctx);
            self.drain_events(ctx);
            self.pump(ctx);
        })
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>) {
        span(Span::Client, || {
            if timer == PACE_TIMER {
                self.on_pace(ctx);
                return;
            }
            let Some(kind) = TimerKind::from_index(timer.0) else {
                return;
            };
            let res = self.client.on_timer(kind, ctx.now().as_nanos());
            apply(res, &self.model, &mut self.counts, ctx);
            self.pump(ctx);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_core::PbftConfig;

    fn client() -> BenchClient {
        let cfg = PbftConfig::default();
        let engine = Client::new_static(cfg, 1, pbft_core::ClientId(1), 4);
        BenchClient::new(engine, CostModel::default())
    }

    fn rows(values: &[&str]) -> Vec<u8> {
        let rows = minisql::Rows {
            columns: vec!["choice".into()],
            rows: values
                .iter()
                .map(|v| vec![minisql::Value::Text((*v).into())])
                .collect(),
        };
        pbft_sql::encode_outcome(&Ok(minisql::ExecOutcome::Rows(rows)))
    }

    #[test]
    fn null_replies_must_be_full_zero_bodies() {
        let mut c = client();
        assert!(c.check(&Expect::Null(1024), &[0u8; 1024]).is_ok());
        assert!(c.check(&Expect::Null(1024), &[0u8; 1023]).is_err());
        let mut body = vec![0u8; 1024];
        body[7] = 1;
        assert!(c.check(&Expect::Null(1024), &body).is_err());
    }

    #[test]
    fn votes_are_read_back_and_errors_fail() {
        let mut c = client();
        let done = pbft_sql::encode_outcome(&Ok(minisql::ExecOutcome::Done));
        assert!(
            c.check(&Expect::MyVote, &rows(&[])).is_ok(),
            "no vote cast yet"
        );
        assert!(c.check(&Expect::Write(Some("bob".into())), &done).is_ok());
        assert!(c.check(&Expect::MyVote, &rows(&["bob"])).is_ok());
        assert!(c.check(&Expect::MyVote, &rows(&["alice"])).is_err());
        assert!(c.check(&Expect::MyVote, &rows(&[])).is_err());
        assert!(c
            .check(&Expect::Write(None), b"err:no such election")
            .is_err());
        let failed = pbft_sql::encode_outcome(&Err(minisql::SqlError::Parse("x".into())));
        assert!(c.check(&Expect::Write(None), &failed).is_err());
    }
}
