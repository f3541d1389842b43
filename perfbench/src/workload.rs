//! The four workloads and the trial that runs one of them.
//!
//! A trial builds a fresh deployment (timed: that is `setup_s`), starts the
//! workload, warms up, measures one window, then stops issuing, drains every
//! outstanding operation and checks that the live replicas' states agree.
//! Virtual-time results depend only on the seed and the window; wall-clock
//! results are measured around the window's `run_until` calls.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use harness::cluster::AppKind;
use harness::workload::null_mix;
use harness::ClusterSpec;
use minisql::JournalMode;
use pbft_core::routing::stable_key_hash;
use pbft_core::{ConsensusEngine, PbftConfig};
use simnet::{SimDuration, SimTime, TraceEvent};

use crate::client::{ClientLedger, Drive, Expect, Gen, Op};
use crate::deploy::{Counters, Deployment};
use crate::probe::{self, span, Ledger, Span};
use crate::speed;
use crate::stats::median;

/// Request and reply size of the null workloads (the paper's Table 1 size).
pub const NULL_BYTES: usize = 1024;
/// Client population (the paper's testbed).
pub const CLIENTS: usize = 12;
/// Candidates on the `evote` ballot.
const CHOICES: [&str; 3] = ["alice", "bob", "carol"];
/// `primary_crash`: open-loop pace per client (12 clients: 6000 ops/s).
const PACE: SimDuration = SimDuration::from_millis(2);
/// `primary_crash`: the primary crashes this long into the window...
const CRASH_AT: SimDuration = SimDuration::from_secs(1);
/// ...and restarts over its disk this long into the window.
const RESTART_AT: SimDuration = SimDuration::from_secs(2);
/// `primary_crash`: window length. The restarted replica cannot check
/// client requests until the clients' periodic NewKey reaches it (every
/// 2 s), so it tracks the group only by state transfer until then; it
/// catches up for good about 2 s after its restart.
const CRASH_WINDOW: SimDuration = SimDuration::from_millis(4_500);

/// Median slowdown over `slices` (1 when there are none).
pub fn median_slowdown(slices: &[Slice]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    median(&slices.iter().map(|s| s.slowdown).collect::<Vec<_>>())
}

/// Wall-clock length of the slices the window's throughput is sampled in.
pub const SLICE: std::time::Duration = std::time::Duration::from_millis(40);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 KiB null writes, closed loop (Table 1's batch row).
    NullWrite,
    /// The same deployment with 90 % read-only null operations.
    NullRead,
    /// The e-voting service: 80 % `CastVote`, 20 % `MyVote`.
    Evote,
    /// Open-loop 1 KiB writes; the primary crashes and restarts.
    PrimaryCrash,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NullWrite,
        Workload::NullRead,
        Workload::Evote,
        Workload::PrimaryCrash,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NullWrite => "null_write",
            Workload::NullRead => "null_read",
            Workload::Evote => "evote",
            Workload::PrimaryCrash => "primary_crash",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployment: `sta_mac_allbig_batch` with the null app, or
    /// `nosta_mac_allbig_batch` with the e-voting service.
    pub fn spec(self, seed: u64) -> ClusterSpec {
        match self {
            Workload::Evote => ClusterSpec {
                cfg: PbftConfig {
                    dynamic_membership: true,
                    ..Default::default()
                },
                app: AppKind::Evoting {
                    journal: JournalMode::Rollback,
                    voters: (0..CLIENTS)
                        .map(|c| (format!("voter{c}"), format!("secret{c}")))
                        .collect(),
                },
                num_clients: CLIENTS,
                seed,
                ..Default::default()
            },
            _ => ClusterSpec {
                app: AppKind::Null {
                    reply_size: NULL_BYTES,
                },
                num_clients: CLIENTS,
                seed,
                ..Default::default()
            },
        }
    }

    fn drive(self) -> Drive {
        match self {
            Workload::PrimaryCrash => Drive::Open { pace: PACE },
            _ => Drive::Closed,
        }
    }

    /// Client `c`'s operation stream.
    fn gen(self, seed: u64, c: usize) -> Gen {
        let tag = mix(seed, c as u64, 0);
        match self {
            Workload::NullWrite | Workload::PrimaryCrash => null_gen(null_mix(NULL_BYTES, 0, tag)),
            Workload::NullRead => null_gen(null_mix(NULL_BYTES, 90, tag)),
            Workload::Evote => Box::new(move |i| {
                let h = mix(tag, i, 1);
                if h % 100 < 20 {
                    Op {
                        bytes: evoting::VoteOp::MyVote { election: 1 }.encode(),
                        read_only: true,
                        expect: Expect::MyVote,
                    }
                } else {
                    let choice = CHOICES[(h / 100 % CHOICES.len() as u64) as usize];
                    Op {
                        bytes: evoting::VoteOp::CastVote {
                            election: 1,
                            choice: choice.into(),
                        }
                        .encode(),
                        read_only: false,
                        expect: Expect::Write(Some(choice.into())),
                    }
                }
            }),
        }
    }

    /// Warm-up before the window (virtual): the pipeline fills within a few
    /// milliseconds; `evote` also lets its first checkpoints pass.
    fn warmup(self) -> SimDuration {
        match self {
            Workload::Evote => SimDuration::from_millis(300),
            _ => SimDuration::from_millis(20),
        }
    }

    /// Wall seconds this machine spends per virtual second of the window
    /// (measured on a 2-core VM); sizes windows to a wall-clock budget.
    fn wall_per_virtual(self) -> f64 {
        match self {
            Workload::NullWrite => 3.9,
            Workload::NullRead => 4.0,
            Workload::Evote => 0.15,
            Workload::PrimaryCrash => 1.27,
        }
    }

    /// How a run of `seconds` is split: the number of seeds it runs and the
    /// window of each trial. A traced run runs every seed twice, untraced
    /// and traced. The closed loops run many short windows, so that the
    /// median of their longest reply gaps is steady; the crash scenario has
    /// a fixed length. The plan depends only on its arguments, so
    /// virtual-time results repeat exactly for a given seed. About a tenth
    /// of the budget is left for set-ups, warm-ups and drains.
    pub fn plan(self, seconds: u64, trace: bool) -> (usize, SimDuration) {
        let trials_per_seed = if trace { 2 } else { 1 };
        if self == Workload::PrimaryCrash {
            let per_trial = CRASH_WINDOW.as_secs_f64() * self.wall_per_virtual();
            let trials = ((seconds as f64 / per_trial).round() as usize).max(1);
            return (trials.div_ceil(trials_per_seed), CRASH_WINDOW);
        }
        let seeds = 30 / trials_per_seed;
        let wall = 0.9 * seconds as f64 / (seeds * trials_per_seed) as f64;
        let ms = (wall / self.wall_per_virtual() * 1e3).round().max(50.0);
        (seeds, SimDuration::from_millis(ms as u64))
    }
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&a.to_be_bytes());
    bytes[8..16].copy_from_slice(&b.to_be_bytes());
    bytes[16..].copy_from_slice(&c.to_be_bytes());
    stable_key_hash(&bytes)
}

/// The simulation seed of trial `t` of a run seeded `seed`.
pub fn trial_seed(seed: u64, t: usize) -> u64 {
    mix(seed, t as u64, 0x7121)
}

fn null_gen(mut ops: harness::workload::OpGen) -> Gen {
    Box::new(move |i| {
        let (bytes, read_only) = ops(i);
        Op {
            bytes,
            read_only,
            expect: Expect::Null(NULL_BYTES),
        }
    })
}

/// Pairs each replica-bound delivery in the simnet trace with its send and
/// keeps `delivery - send - link latency`: the time the packet waited for
/// its busy destination (plus at most the link's jitter).
struct QueueWaits {
    replicas: u32,
    latency_ns: u64,
    from_ns: u64,
    inflight: HashMap<(u32, u32), VecDeque<u64>>,
    samples: Vec<u64>,
}

impl QueueWaits {
    fn consume(&mut self, d: &mut Deployment) {
        for e in d.sim.take_trace() {
            let link = (e.src.0, e.dst.0);
            match e.event {
                TraceEvent::Sent => self
                    .inflight
                    .entry(link)
                    .or_default()
                    .push_back(e.at.as_nanos()),
                TraceEvent::Delivered | TraceEvent::DeadDestination => {
                    let sent = self.inflight.get_mut(&link).and_then(|q| q.pop_front());
                    let at = e.at.as_nanos();
                    if let (Some(sent), TraceEvent::Delivered) = (sent, e.event) {
                        if e.dst.0 < self.replicas && at >= self.from_ns {
                            self.samples
                                .push((at - sent).saturating_sub(self.latency_ns));
                        }
                    }
                }
                TraceEvent::Dropped => {}
            }
        }
    }
}

/// Everything one trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    /// Set-up time, see [`Setup`].
    pub setup: Setup,
    /// Window length, virtual ns.
    pub window_ns: u64,
    /// Wall seconds spent running the window.
    pub window_wall_s: f64,
    /// The window cut into slices of about [`SLICE`] of wall time each. A
    /// trailing partial slice is dropped.
    pub slices: Vec<Slice>,
    /// Certified replies delivered inside the window.
    pub replies: u64,
    /// Longest reply-free interval inside the window, virtual ns.
    pub unavail_ns: u64,
    /// Merged client ledgers.
    pub ledger: ClientLedger,
    /// Counted operations never answered, even after the drain.
    pub unanswered: u64,
    /// Work counted over the window (every node).
    pub work: Counters,
    /// Packets sent over the window (every node).
    pub packets: u64,
    /// Bytes sent over the window (every node).
    pub bytes: u64,
    /// Busy fraction of the final primary and of the busiest backup.
    pub primary_busy: f64,
    /// See [`Trial::primary_busy`].
    pub backup_busy: f64,
    /// `primary_crash`: crash until every live replica entered the new view.
    pub new_view_ns: Option<u64>,
    /// `primary_crash`: restart until the restarted replica caught up.
    pub catchup_ns: Option<u64>,
    /// `primary_crash`: state transfers the restarted replica completed.
    pub transfers: u64,
    /// Traced trials: the span aggregates of the window.
    pub spans: Option<Ledger>,
    /// Traced trials: replica queue waits (ns) over the window.
    pub queue_waits: Vec<u64>,
    /// Failed output checks, described.
    pub failures: Vec<String>,
}

impl Trial {
    /// Operations that failed: wrong replies and unanswered operations.
    pub fn failed(&self) -> u64 {
        self.ledger.wrong + self.unanswered
    }
}

fn unavail(mut replies: Vec<u64>, from: u64, to: u64) -> u64 {
    replies.retain(|&t| t >= from && t <= to);
    replies.sort_unstable();
    let mut edges = Vec::with_capacity(replies.len() + 2);
    edges.push(from);
    edges.extend(replies);
    edges.push(to);
    edges.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// Run `d` until virtual time `until`, as one root span.
fn run_until(d: &mut Deployment, until: SimTime) {
    span(Span::Root, || d.sim.run_until(until));
}

/// One wall-clock sample of a window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall seconds.
    pub wall_s: f64,
    /// Certified replies received in it.
    pub replies: u64,
    /// The machine's slowdown measured right after it (see [`speed`]).
    pub slowdown: f64,
}

/// The wall time of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Wall seconds from the start of the build until every client was a
    /// member and the workload's preload was answered.
    pub wall_s: f64,
    /// The machine's slowdown, probed before and after (see [`speed`]).
    pub slowdown: f64,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            wall_s: 0.0,
            slowdown: 1.0,
        }
    }
}

impl Setup {
    /// The set-up time at nominal machine speed.
    pub fn nominal_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Build a deployment for `w` and run its preload; returns the deployment
/// and the time it took.
pub fn setup(w: Workload, seed: u64, traced: bool) -> Result<(Deployment, Setup), String> {
    let probe_before = speed::probe_us();
    let t = Instant::now();
    let mut d = Deployment::build(w.spec(seed), traced)?;
    if w == Workload::Evote {
        d.with_client(0, |c, ctx| {
            let create = evoting::VoteOp::CreateElection {
                title: "bench".into(),
            };
            c.submit(
                Op {
                    bytes: create.encode(),
                    read_only: false,
                    expect: Expect::Write(None),
                },
                ctx,
            )
        });
        for _ in 0..400 {
            if d.unanswered() == 0 {
                break;
            }
            d.sim.run_for(SimDuration::from_millis(5));
        }
        if d.unanswered() != 0 {
            return Err("CreateElection was not answered".into());
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let slowdown = speed::slowdown((probe_before + speed::probe_us()) / 2.0);
    Ok((d, Setup { wall_s, slowdown }))
}

/// Run one trial of `w` with simulation seed `seed` and a window of
/// `window`. A traced trial records spans and queue waits; its virtual-time
/// behaviour is identical to an untraced trial with the same arguments.
pub fn run_trial(w: Workload, seed: u64, window: SimDuration, traced: bool) -> Trial {
    let (mut d, setup) = match setup(w, seed, traced) {
        Ok(built) => built,
        Err(why) => {
            return Trial {
                failures: vec![format!("set-up: {why}")],
                ..Default::default()
            }
        }
    };
    let mut trial = Trial {
        setup,
        window_ns: window.as_nanos(),
        ..Default::default()
    };
    let n = d.replicas.len();
    let mut waits = QueueWaits {
        replicas: n as u32,
        latency_ns: d.spec.link.latency.as_nanos(),
        from_ns: u64::MAX,
        inflight: HashMap::new(),
        samples: Vec::new(),
    };
    let drive = w.drive();
    for c in 0..d.clients.len() {
        let gen = w.gen(seed, c);
        // Stagger open-loop slots evenly across the pace interval.
        let phase = SimDuration::from_nanos(1 + PACE.as_nanos() * c as u64 / CLIENTS as u64);
        d.with_client(c, |client, ctx| client.start(gen, drive, phase, ctx));
    }
    d.sim.run_for(w.warmup());
    if traced {
        waits.consume(&mut d);
    }

    // The measured window.
    let t0 = d.sim.now();
    let t1 = t0 + window;
    waits.from_ns = t0.as_nanos();
    for c in 0..d.clients.len() {
        d.client_mut(c).open_window(t0.as_nanos());
    }
    let before = d.snapshot();
    let crash = (w == Workload::PrimaryCrash).then(|| (t0 + CRASH_AT, t0 + RESTART_AT));
    let mut crashed = false;
    let mut restarted_at: Option<SimTime> = None;
    // Since when the restarted replica has been level with the group.
    let mut level_since: Option<SimTime> = None;
    if traced {
        probe::start_recording();
    }
    let wall = Instant::now();
    let mut slice_start = (Instant::now(), 0u64);
    let mut probing_us = 0.0;
    while d.sim.now() < t1 {
        let step = if restarted_at.is_some() {
            SimDuration::from_millis(1)
        } else {
            SimDuration::from_millis(10)
        };
        let mut until = d.sim.now() + step;
        if let Some((crash_at, restart_at)) = crash {
            for at in [crash_at, restart_at] {
                if at > d.sim.now() && at < until {
                    until = at;
                }
            }
        }
        run_until(&mut d, until.min(t1));
        if traced {
            waits.consume(&mut d);
        }
        if let Some((crash_at, restart_at)) = crash {
            let now = d.sim.now();
            if !crashed && now >= crash_at {
                d.crash(0);
                crashed = true;
            }
            if restarted_at.is_none() && now >= restart_at {
                d.restart(0);
                restarted_at = Some(now);
            }
        }
        if restarted_at.is_some() {
            level_since = if level_with_group(&d) {
                level_since.or(Some(d.sim.now()))
            } else {
                None
            };
        }
        let elapsed = slice_start.0.elapsed();
        if elapsed >= SLICE {
            let replies = d.replies();
            let probe = speed::probe_us();
            probing_us += probe;
            trial.slices.push(Slice {
                wall_s: elapsed.as_secs_f64(),
                replies: replies - slice_start.1,
                slowdown: speed::slowdown(probe),
            });
            slice_start = (Instant::now(), replies);
        }
    }
    // Probes ran between slices; they are not part of the window.
    trial.window_wall_s = wall.elapsed().as_secs_f64() - probing_us * 1e-6;
    if traced {
        trial.spans = Some(probe::stop_recording());
        trial.queue_waits = std::mem::take(&mut waits.samples);
    }
    let after = d.snapshot();
    trial.work = after.counters.minus(&before.counters);
    trial.packets = after.packets - before.packets;
    trial.bytes = after.bytes - before.bytes;
    let view = (0..n)
        .filter(|&i| d.alive(i))
        .map(|i| d.replica(i).view())
        .max()
        .unwrap_or(0);
    let primary = d.spec.cfg.primary_of(view).0 as usize;
    let busy: Vec<f64> = (0..n)
        .map(|i| (after.busy_ns[i] - before.busy_ns[i]) as f64 / window.as_nanos() as f64)
        .collect();
    trial.primary_busy = busy[primary];
    trial.backup_busy = (0..n)
        .filter(|&i| i != primary)
        .map(|i| busy[i])
        .fold(0.0, f64::max);
    if let Some(at) = restarted_at {
        // Catching up means reaching the group and staying level to the end
        // of the window: between state transfers a lagging replica is level
        // for a moment after each checkpoint it installs.
        match level_since {
            Some(since) => trial.catchup_ns = Some((since - at).as_nanos()),
            None => trial
                .failures
                .push("the restarted replica had not caught up by the end of the window".into()),
        }
        trial.transfers = d.replica(0).metrics().state_transfers_completed;
    }
    if let Some((crash_at, _)) = crash {
        // Every replica that stayed up must have entered a later view.
        let entered: Option<Vec<u64>> = (1..n)
            .map(|i| {
                let r = d.replica(i);
                (r.view() > 0).then(|| r.view_entered_ns.saturating_sub(crash_at.as_nanos()))
            })
            .collect();
        match entered {
            Some(e) => trial.new_view_ns = e.into_iter().max(),
            None => trial
                .failures
                .push("a live replica never left view 0".into()),
        }
    }

    // Stop issuing, drain, and let the replicas converge.
    for c in 0..d.clients.len() {
        d.client_mut(c).set_drive(Drive::Idle);
    }
    for _ in 0..1_000 {
        if d.unanswered() == 0 {
            break;
        }
        d.sim.run_for(SimDuration::from_millis(10));
    }
    for _ in 0..500 {
        if converged(&d) {
            break;
        }
        d.sim.run_for(SimDuration::from_millis(10));
    }
    let digests = d.live_digests();
    if digests.windows(2).any(|p| p[0].1 != p[1].1) {
        let list: Vec<String> = digests
            .iter()
            .map(|(i, g)| format!("r{i}={}", g.short()))
            .collect();
        trial
            .failures
            .push(format!("replica states differ: {}", list.join(" ")));
    }

    (trial.ledger, trial.unanswered) = tally_clients(&d);
    if trial.unanswered > 0 {
        trial.failures.push(format!(
            "{} operations still unanswered after the drain",
            trial.unanswered
        ));
    }
    if trial.ledger.wrong > 0 || trial.ledger.setup_wrong > 0 {
        trial.failures.push(format!(
            "{} wrong replies, e.g. {:?}",
            trial.ledger.wrong + trial.ledger.setup_wrong,
            trial.ledger.wrong_examples
        ));
    }
    trial.replies = trial
        .ledger
        .reply_times_ns
        .iter()
        .filter(|&&t| t >= t0.as_nanos() && t <= t1.as_nanos())
        .count() as u64;
    trial.unavail_ns = unavail(
        std::mem::take(&mut trial.ledger.reply_times_ns),
        t0.as_nanos(),
        t1.as_nanos(),
    );
    trial
}

/// How far (in sequence numbers) behind the slowest peer a replica may be
/// and still count as level with the group: a couple of in-flight batches.
const LEVEL_SLACK: u64 = 16;

/// The restarted replica 0 is not recovering and has executed as far as
/// the slowest live peer, give or take [`LEVEL_SLACK`].
fn level_with_group(d: &Deployment) -> bool {
    let r = d.replica(0);
    let peers = (1..d.replicas.len())
        .map(|i| d.replica(i).last_executed())
        .min();
    !r.is_recovering() && peers.is_some_and(|p| r.last_executed() + LEVEL_SLACK >= p)
}

/// Every live replica has executed the same prefix and none is recovering.
fn converged(d: &Deployment) -> bool {
    let live: Vec<usize> = (0..d.replicas.len()).filter(|&i| d.alive(i)).collect();
    let first = d.replica(live[0]).last_executed();
    live.iter().all(|&i| {
        let r = d.replica(i);
        r.last_executed() == first && !r.is_recovering()
    })
}

/// The clients' merged ledgers, and how many counted operations are still
/// unanswered (each one a failure).
pub fn tally_clients(d: &Deployment) -> (ClientLedger, u64) {
    let mut ledger = ClientLedger::default();
    let mut unanswered = 0;
    for c in 0..d.clients.len() {
        let client = d.client(c);
        unanswered += client.unanswered_counted();
        merge(&mut ledger, &client.ledger);
    }
    (ledger, unanswered)
}

fn merge(into: &mut ClientLedger, from: &ClientLedger) {
    into.attempted += from.attempted;
    into.correct += from.correct;
    into.wrong += from.wrong;
    into.setup_wrong += from.setup_wrong;
    into.latencies_ns.extend_from_slice(&from.latencies_ns);
    into.reply_times_ns.extend_from_slice(&from.reply_times_ns);
    into.reads += from.reads;
    into.fast_reads += from.fast_reads;
    into.max_lateness_ns = into.max_lateness_ns.max(from.max_lateness_ns);
    for e in &from.wrong_examples {
        if into.wrong_examples.len() < 3 {
            into.wrong_examples.push(e.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailability_includes_the_window_edges() {
        assert_eq!(unavail(vec![], 10, 110), 100);
        assert_eq!(unavail(vec![20, 30, 100], 10, 110), 70);
        assert_eq!(unavail(vec![5, 50, 200], 10, 110), 60);
    }

    #[test]
    fn unanswered_operations_are_failures_not_dropped_samples() {
        let (mut d, _) = setup(Workload::NullWrite, 5, false).expect("deployment");
        let now = d.sim.now().as_nanos();
        for c in 0..d.clients.len() {
            d.client_mut(c).open_window(now);
        }
        // With three of four replicas down no quorum can answer.
        for i in 0..3 {
            d.crash(i);
        }
        for c in 0..2 {
            let gen = Workload::NullWrite.gen(5, c);
            d.with_client(c, |client, ctx| {
                client.start(gen, Drive::Closed, SimDuration::ZERO, ctx)
            });
        }
        d.sim.run_for(SimDuration::from_millis(500));
        let (ledger, unanswered) = tally_clients(&d);
        assert_eq!(
            ledger.attempted, 2,
            "one op outstanding per closed-loop client"
        );
        assert_eq!(unanswered, 2);
        assert_eq!((ledger.correct, ledger.wrong), (0, 0));
        assert!(
            ledger.latencies_ns.is_empty(),
            "no sample for an unanswered op"
        );
        let trial = Trial {
            ledger,
            unanswered,
            ..Default::default()
        };
        assert_eq!(trial.failed(), 2);
    }

    #[test]
    fn plans_fit_the_budget() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let (seeds, window) = w.plan(20, trace);
                let trials = seeds * if trace { 2 } else { 1 };
                let wall = trials as f64 * window.as_secs_f64() * w.wall_per_virtual();
                assert!(
                    (10.0..=24.0).contains(&wall),
                    "{} {trace}: {wall}",
                    w.name()
                );
                assert!(w.plan(1, trace).1 >= SimDuration::from_millis(50));
            }
        }
    }
}
