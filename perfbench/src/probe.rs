//! The wall-clock span ledger and the probes that feed it.
//!
//! Spans are recorded at four boundaries: the measured `Simulator::run_for`
//! call (the root), every replica-node callback, every client-node callback
//! and every `App::execute*` call. The ledger keeps per-span aggregates —
//! count, total and self time (total minus direct children) — so a traced
//! window of any length costs constant memory. Recording is off unless a
//! traced run switches it on; a disabled span costs one thread-local read.

use std::cell::RefCell;
use std::time::Instant;

use harness::cluster::ReplicaHost;
use pbft_core::app::{App, ExecMetrics, NonDet, StateHandle};
use pbft_core::replica::ReplicaMetrics;
use pbft_core::{
    ClientId, ConsensusEngine, HandleResult, PbftConfig, Replica, ReplicaId, SeqNum, SessionCtx,
    TimerKind, View,
};
use pbft_crypto::Digest;
use simnet::{Node, NodeCtx, NodeId, TimerId};

/// The span kinds of the ledger. Replica packet callbacks are bucketed by
/// the packet's first byte, which is the `Message::discriminant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One measured `Simulator::run_for` call.
    Root,
    /// Replica callback: client request (discriminant 1).
    Request,
    /// Replica callback: pre-prepare (2).
    PrePrepare,
    /// Replica callback: prepare (3).
    Prepare,
    /// Replica callback: commit (4).
    Commit,
    /// Replica callback: checkpoint (6).
    Checkpoint,
    /// Replica callback: a timer fired, or the node started.
    Timer,
    /// Replica callback: any other packet (status, new-key, view change,
    /// state transfer, ...).
    OtherPacket,
    /// Client-node callback.
    Client,
    /// `App::execute*` inside a replica callback.
    App,
}

/// Number of span kinds.
pub const SPANS: usize = 10;

impl Span {
    /// Every span kind, in ledger order.
    pub const ALL: [Span; SPANS] = [
        Span::Root,
        Span::Request,
        Span::PrePrepare,
        Span::Prepare,
        Span::Commit,
        Span::Checkpoint,
        Span::Timer,
        Span::OtherPacket,
        Span::Client,
        Span::App,
    ];

    /// The replica bucket for a packet starting with `first`.
    pub fn of_packet(first: u8) -> Span {
        match first {
            1 => Span::Request,
            2 => Span::PrePrepare,
            3 => Span::Prepare,
            4 => Span::Commit,
            6 => Span::Checkpoint,
            _ => Span::OtherPacket,
        }
    }

    /// Stable name used in the printed ledger.
    pub fn name(self) -> &'static str {
        match self {
            Span::Root => "simnet.run_for",
            Span::Request => "replica.request",
            Span::PrePrepare => "replica.pre_prepare",
            Span::Prepare => "replica.prepare",
            Span::Commit => "replica.commit",
            Span::Checkpoint => "replica.checkpoint",
            Span::Timer => "replica.timer",
            Span::OtherPacket => "replica.other",
            Span::Client => "client.callback",
            Span::App => "app.execute",
        }
    }

    /// Whether this is one of the replica-callback buckets.
    pub fn is_replica(self) -> bool {
        !matches!(self, Span::Root | Span::Client | Span::App)
    }
}

/// Aggregate of all spans of one kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the durations of direct child spans.
    pub self_ns: u64,
}

/// The aggregates of one traced run, indexed like [`Span::ALL`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Per-kind aggregates.
    pub spans: [Agg; SPANS],
}

impl Ledger {
    /// The aggregate of one span kind.
    pub fn get(&self, s: Span) -> Agg {
        self.spans[s as usize]
    }

    /// Fold another run's aggregates into this one.
    pub fn add(&mut self, other: &Ledger) {
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
    }

    /// Self time of every span: what the recorded spans account for.
    pub fn attributed_ns(&self) -> u64 {
        self.spans.iter().map(|a| a.self_ns).sum()
    }
}

struct Frame {
    span: Span,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    stack: Vec<Frame>,
    ledger: Ledger,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording spans, discarding anything recorded before.
pub fn start_recording() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "recording started inside a span");
        r.on = true;
        r.ledger = Ledger::default();
    });
}

/// Stop recording and return the run's aggregates.
pub fn stop_recording() -> Ledger {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "recording stopped inside a span");
        r.on = false;
        std::mem::take(&mut r.ledger)
    })
}

/// Run `f` inside a span of kind `span` (a plain call when not recording).
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let on = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.stack.push(Frame {
                span,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        r.on
    });
    if !on {
        return f();
    }
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span frame");
        debug_assert_eq!(frame.span, span);
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let agg = &mut r.ledger.spans[span as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    out
}

/// The application from `ClusterSpec::make_app`, with every `execute*` call
/// recorded as an [`Span::App`] span.
pub struct TimedApp(pub Box<dyn App>);

impl App for TimedApp {
    fn execute(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        span(Span::App, || self.0.execute(client, op, nondet, read_only))
    }

    fn execute_with_session(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
        session: &mut SessionCtx<'_>,
    ) -> (Vec<u8>, ExecMetrics) {
        span(Span::App, || {
            self.0
                .execute_with_session(client, op, nondet, read_only, session)
        })
    }

    fn make_nondet(&mut self, now_ns: u64, random: u64) -> NonDet {
        self.0.make_nondet(now_ns, random)
    }

    fn validate_nondet(&self, nondet: &NonDet, now_ns: u64, window_ns: u64) -> bool {
        self.0.validate_nondet(nondet, now_ns, window_ns)
    }

    fn authorize_join(&mut self, idbuf: &[u8]) -> Option<Vec<u8>> {
        self.0.authorize_join(idbuf)
    }

    fn on_state_installed(&mut self) {
        self.0.on_state_installed()
    }
}

/// The PBFT [`Replica`] built over a [`TimedApp`]. Building through
/// `harness::cluster::make_engine::<Probed>` keeps the deployment's own
/// construction path (key material, state region, application) while
/// letting the benchmark see the application calls. It also notes when the
/// replica last entered a view, and can start in recovery mode after a
/// restart (the host's own restart flag is private to the harness).
pub struct Probed {
    /// The engine under test.
    pub engine: Replica,
    /// Start in recovery mode (set on an engine built for a restart).
    pub restarted: bool,
    /// Virtual time at which the engine last entered a new view.
    pub view_entered_ns: u64,
    entered_view: View,
}

impl Probed {
    fn track_view(&mut self, now_ns: u64) {
        let view = self.engine.view();
        if view != self.entered_view && !self.engine.in_view_change() {
            self.entered_view = view;
            self.view_entered_ns = now_ns;
        }
    }
}

impl ConsensusEngine for Probed {
    fn build(
        cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> Self {
        let app: Box<dyn App> = Box::new(TimedApp(app));
        Probed {
            engine: Replica::new(cfg, group_seed, me, state, app, preinstalled_clients),
            restarted: false,
            view_entered_ns: 0,
            entered_view: 0,
        }
    }

    fn engine_name() -> &'static str {
        "pbft"
    }

    fn id(&self) -> ReplicaId {
        self.engine.id()
    }

    fn on_start(&mut self, now_ns: u64, restarted: bool) -> HandleResult {
        self.engine.on_start(now_ns, restarted || self.restarted)
    }

    fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult {
        let res = self.engine.handle_packet(packet, now_ns);
        self.track_view(now_ns);
        res
    }

    fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult {
        let res = self.engine.on_timer(kind, now_ns);
        self.track_view(now_ns);
        res
    }

    fn state_handle(&self) -> StateHandle {
        self.engine.state_handle()
    }

    fn view(&self) -> View {
        self.engine.view()
    }

    fn last_executed(&self) -> SeqNum {
        self.engine.last_executed()
    }

    fn stable_checkpoint(&self) -> (SeqNum, Digest) {
        self.engine.stable_checkpoint()
    }

    fn exec_chain(&self) -> Digest {
        self.engine.exec_chain()
    }

    fn metrics(&self) -> &ReplicaMetrics {
        self.engine.metrics()
    }

    fn force_suspect(&mut self, now_ns: u64) -> HandleResult {
        self.engine.force_suspect(now_ns)
    }

    fn is_recovering(&self) -> bool {
        self.engine.is_recovering()
    }

    fn in_view_change(&self) -> bool {
        self.engine.in_view_change()
    }
}

/// A replica node: the harness's [`ReplicaHost`], with each of its `Node`
/// callbacks recorded as a replica span.
pub struct ReplicaNode(pub ReplicaHost<Probed>);

impl Node for ReplicaNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        span(Span::Timer, || self.0.on_start(ctx))
    }

    fn on_packet(&mut self, src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
        let kind = Span::of_packet(payload.first().copied().unwrap_or(0));
        span(kind, || self.0.on_packet(src, payload, ctx))
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>) {
        span(Span::Timer, || self.0.on_timer(timer, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start_recording();
        span(Span::Root, || {
            span(Span::Commit, || {
                span(Span::App, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let ledger = stop_recording();
        let (root, commit, app) = (
            ledger.get(Span::Root),
            ledger.get(Span::Commit),
            ledger.get(Span::App),
        );
        assert_eq!((root.count, commit.count, app.count), (1, 1, 1));
        assert!(app.self_ns >= 2_000_000);
        assert!(root.total_ns >= commit.total_ns && commit.total_ns >= app.total_ns);
        assert_eq!(commit.self_ns, commit.total_ns - app.total_ns);
        assert_eq!(root.self_ns, root.total_ns - commit.total_ns);
        // Self times partition the root span exactly.
        assert_eq!(ledger.attributed_ns(), root.total_ns);
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        assert_eq!(span(Span::Root, || 41 + 1), 42);
        start_recording();
        let ledger = stop_recording();
        assert_eq!(ledger.get(Span::Root).count, 0);
    }
}
