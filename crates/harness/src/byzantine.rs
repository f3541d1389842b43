//! Byzantine fault injection.
//!
//! PBFT's whole reason for existing is tolerating *arbitrary* faults, so the
//! reproduction needs adversarial replicas, not just crashes and packet
//! loss. Faults are injected at the host layer, wrapping honest engines:
//!
//! * [`Fault::Mute`] — the replica processes everything but sends nothing
//!   (a fail-silent primary must be voted out by the view change).
//! * [`Fault::TamperReplies`] — replies to clients are corrupted in flight
//!   (authentication on the client side must reject them; with f+1 matching
//!   replies required, a single liar can never make a client accept a wrong
//!   result).
//! * [`Fault::TamperAgreement`] — prepare/commit messages are corrupted
//!   (peers' authentication drops them, costing the liar its vote).
//! * [`Fault::SplitBrain`] — the classic equivocating primary: two honest
//!   engines share one identity but speak to disjoint halves of the group,
//!   so conflicting, *correctly authenticated* pre-prepares are sent for
//!   the same sequence numbers. Safety must hold: no two correct replicas
//!   execute different batches at the same sequence.
//! * [`Fault::SlowPrimary`] — the paper's hardest liveness case: a primary
//!   that is *slow but not dead*. Every message is eventually processed and
//!   every send eventually leaves — nothing is dropped, authentication
//!   never fails — so only the backups' view-change timeouts can evict it.
//! * [`Fault::ViewChangeStorm`] — a replica that spams escalating,
//!   correctly authenticated view-change votes. A lone stormer stays below
//!   the `f + 1` join rule, so the group must keep committing; the storm
//!   taxes bandwidth and vote bookkeeping instead.
//! * [`Fault::Censor`] — targeted request censorship: incoming requests
//!   from the chosen clients are silently swallowed and replies to them are
//!   dropped. A censoring *primary* starves exactly those clients while
//!   serving everyone else — and because the backups' suspicion heuristic
//!   is progress-based (it fires only when *nothing* executes), the steady
//!   progress on everyone else's work means the censor is never suspected.
//!   The attack is invisible both to aggregate throughput and to the
//!   view-change machinery; per-client timeline lanes expose it, and only
//!   unmounting — or a proactive recovery of the seat — ends it.
//!
//! The split-brain construction is the strongest: it cannot be detected by
//! authentication (every message is genuinely signed by the primary) and
//! exercises the prepare-quorum intersection argument directly.
//!
//! Faults are *mountable at runtime* on every cluster member: each
//! [`ReplicaHost`] is honest until a scenario mounts a fault mid-run
//! ([`Cluster::mount_fault`]) and honest again once it is unmounted
//! ([`Cluster::unmount_fault`]). The scenario engine (`crate::scenario`)
//! schedules those calls on the virtual clock, and the adaptive strategies
//! of [`crate::adversary`] mount and unmount them in reaction to observed
//! protocol state. A member built by [`build_adversary_cluster`]
//! additionally keeps a silent split-brain twin tracking the protocol, so
//! [`Fault::SplitBrain`] itself becomes mountable mid-run. This module
//! holds the packet policy of a mounted fault; with none mounted the host
//! decodes no packet and sends every one of the member's packets as is.

use pbft_core::messages::{Message, Sender};
use pbft_core::replica::Replica;
use pbft_core::{ClientId, ConsensusEngine, Envelope, NetTarget, PacketBuf};
use simnet::{NodeCtx, SimDuration, TimerId};

use crate::cluster::{make_engine, Cluster, ClusterSpec, ReplicaHost};

/// Which Byzantine behaviour to mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop every outgoing message (fail-silent, but still receiving).
    Mute,
    /// Flip bytes in replies to clients.
    TamperReplies,
    /// Flip bytes in prepare/commit messages to peers.
    TamperAgreement,
    /// Run two engines with the same identity, each talking to a disjoint
    /// half of the backups (equivocation with valid authentication).
    SplitBrain,
    /// Process every packet and timer `delay_ns` slower than honest peers:
    /// the replica falls behind, its sends leave late, but nothing is ever
    /// dropped — the slow-but-not-dead primary the paper singles out, which
    /// timeouts alone must catch.
    SlowPrimary {
        /// Extra virtual CPU charged per handled packet/timer.
        delay_ns: u64,
    },
    /// Spam escalating view-change votes every `period_ns`, regardless of
    /// whether the primary misbehaves (see [`Replica::force_suspect`]).
    ViewChangeStorm {
        /// Interval between vote bursts.
        period_ns: u64,
    },
    /// Targeted request censorship: swallow incoming requests from the
    /// chosen clients and drop outgoing replies to them, while serving
    /// everyone else honestly.
    Censor {
        /// Bitmask of censored clients: bit `k` censors `ClientId(k + 1)`
        /// (so clients 1..=64 are addressable — the harness never builds
        /// more).
        client_bits: u64,
    },
}

impl Fault {
    /// Is `client` on this fault's censorship list?
    fn censors(&self, client: ClientId) -> bool {
        match *self {
            Fault::Censor { client_bits } => {
                (1..=64).contains(&client.0) && (client_bits >> (client.0 - 1)) & 1 == 1
            }
            _ => false,
        }
    }

    /// Extra per-invocation CPU under [`Fault::SlowPrimary`].
    pub(crate) fn slowdown(&self) -> SimDuration {
        match *self {
            Fault::SlowPrimary { delay_ns } => SimDuration::from_nanos(delay_ns),
            _ => SimDuration::ZERO,
        }
    }

    /// Under [`Fault::Censor`]: should this incoming packet be swallowed
    /// before the engine sees it? Only client requests are censored —
    /// agreement traffic (which may *carry* the censored requests inside
    /// pre-prepares) passes, exactly like a real censoring front-end.
    pub(crate) fn censors_incoming(&self, payload: &[u8]) -> bool {
        if !matches!(self, Fault::Censor { .. }) || payload.first() != Some(&TAG_REQUEST) {
            return false;
        }
        match Envelope::decode(payload) {
            Ok((env, _)) => match env.sender {
                Sender::Client(c) => self.censors(c),
                _ => false,
            },
            Err(_) => false,
        }
    }

    /// Under [`Fault::Censor`]: is this outgoing message a reply to a
    /// censored client? Read off the engine's decoded envelope, so no
    /// packet is parsed and no client address is mapped.
    fn censors_reply(&self, envelope: &Envelope) -> bool {
        matches!(&envelope.msg, Message::Reply(r) if self.censors(r.client))
    }

    /// Pass-through shares the broadcast's `Arc`; only the (cold) corrupt
    /// paths copy the bytes out to flip one.
    fn transform(&self, packet: PacketBuf, to_client: bool) -> Option<PacketBuf> {
        let tag = packet.first().copied().unwrap_or(0);
        match self {
            Fault::Mute => None,
            Fault::TamperReplies if to_client && tag == TAG_REPLY => {
                Some(PacketBuf::new(corrupt(packet.as_ref().clone())))
            }
            Fault::TamperAgreement
                if !to_client
                    && matches!(
                        tag,
                        TAG_PREPARE | TAG_COMMIT | TAG_PREPARE_QC | TAG_COMMIT_QC
                    ) =>
            {
                Some(PacketBuf::new(corrupt(packet.as_ref().clone())))
            }
            _ => Some(packet),
        }
    }
}

/// Message discriminants (first payload byte) this module inspects.
/// [`Fault::TamperAgreement`] is engine-aware: it corrupts the PBFT vote
/// tags *and* the linear engine's leader-aggregated certificate broadcasts
/// (tags 15/16), so a tampering linear leader actually attacks the path it
/// owns — QC forgery must be caught by the receivers' authenticators.
const TAG_REQUEST: u8 = 1;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_REPLY: u8 = 5;
const TAG_PREPARE_QC: u8 = 15;
const TAG_COMMIT_QC: u8 = 16;

/// The host-private timer driving [`Fault::ViewChangeStorm`] bursts. Far
/// outside the engine's `TimerKind` index range, so the two cannot collide.
pub(crate) const STORM_TIMER: TimerId = TimerId(1_000);

/// The fault side of the replica host: mounting, and the policy a mounted
/// fault applies to the host's traffic.
impl<E: ConsensusEngine> ReplicaHost<E> {
    /// Mount `fault` (replacing any current one). Needs the node context so
    /// time-driven faults can arm their timers.
    ///
    /// # Panics
    /// Panics on [`Fault::SplitBrain`] unless the host was built with a twin
    /// engine: the second brain cannot be conjured mid-run (it must share
    /// the whole protocol history).
    pub(crate) fn mount(&mut self, fault: Fault, ctx: &mut NodeCtx<'_>) {
        assert!(
            fault != Fault::SplitBrain || self.twin.is_some(),
            "split-brain needs a twin engine from construction"
        );
        self.fault = Some(fault);
        self.arm_fault_timer(ctx);
    }

    /// Unmount the current fault: the replica behaves honestly again (it
    /// keeps whatever protocol state the fault got it into — recovery from
    /// that is the protocol's job).
    pub(crate) fn unmount(&mut self, ctx: &mut NodeCtx<'_>) {
        if matches!(self.fault, Some(Fault::ViewChangeStorm { .. })) {
            ctx.cancel_timer(STORM_TIMER);
        }
        self.fault = None;
    }

    /// Arm the timer of a time-driven fault, if one is mounted.
    pub(crate) fn arm_fault_timer(&self, ctx: &mut NodeCtx<'_>) {
        if let Some(Fault::ViewChangeStorm { period_ns }) = self.fault {
            ctx.set_timer(STORM_TIMER, SimDuration::from_nanos(period_ns));
        }
    }

    /// [`STORM_TIMER`] fired: one burst of view-change votes per period,
    /// while the storm stays mounted.
    pub(crate) fn storm_burst(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(Fault::ViewChangeStorm { period_ns }) = self.fault else {
            return;
        };
        let res = self.replica.force_suspect(ctx.now().as_nanos());
        self.cum_counts.add(&res.counts);
        self.emit(0, res, ctx);
        ctx.set_timer(STORM_TIMER, SimDuration::from_nanos(period_ns));
    }

    /// What goes on the wire when engine `engine` (0: the member, 1: its
    /// twin) sends `packet` to `to`: the packet itself, a corrupted copy,
    /// or nothing. With no fault mounted only the member speaks and every
    /// packet passes untouched.
    pub(crate) fn outgoing(
        &self,
        engine: usize,
        to: NetTarget,
        envelope: &Envelope,
        packet: PacketBuf,
    ) -> Option<PacketBuf> {
        let Some(fault) = self.fault else {
            return (engine == 0).then_some(packet);
        };
        if !self.audience_allows(engine, to) || fault.censors_reply(envelope) {
            return None;
        }
        fault.transform(packet, matches!(to, NetTarget::Client(_)))
    }

    /// Does engine `engine` get to talk to `to` under the current fault?
    ///
    /// Split-brain: engine 0 owns the first peer (in id order) and all
    /// clients; engine 1 owns the remaining peers. (For n = 4 and faulty
    /// replica 0 that is {1} vs {2, 3} — neither audience alone can
    /// assemble a prepare quorum for a conflicting batch... unless the
    /// protocol is broken.)
    ///
    /// Whenever split-brain is *not* mounted, only engine 0 speaks: a twin
    /// provisioned for later equivocation keeps tracking the protocol
    /// silently instead of duplicating (and, with its skewed clock,
    /// accidentally equivocating) the member's honest traffic.
    fn audience_allows(&self, engine: usize, to: NetTarget) -> bool {
        if self.fault != Some(Fault::SplitBrain) {
            return engine == 0;
        }
        let me = self.replica.id();
        match to {
            NetTarget::Client(_) => engine == 0, // clients hear engine 0 only
            NetTarget::Replica(r) if r == me => false,
            NetTarget::Replica(r) => {
                let first_peer = if me.0 == 0 { 1 } else { 0 };
                (r.0 == first_peer) == (engine == 0)
            }
        }
    }
}

/// Flip a byte somewhere past the header (keeps the message decodable-ish;
/// authentication is what must catch it).
fn corrupt(mut packet: Vec<u8>) -> Vec<u8> {
    let idx = packet.len() / 2;
    if let Some(b) = packet.get_mut(idx) {
        *b ^= 0xff;
    }
    packet
}

/// Build a cluster where `faulty` misbehaves per `fault` from the start;
/// all other replicas are honest (scenarios can mount faults on them
/// later), and all clients are honest.
pub fn build_faulty_cluster(spec: ClusterSpec, faulty: u32, fault: Fault) -> Cluster {
    build_faulty_cluster_engine::<Replica>(spec, faulty, fault)
}

/// [`build_faulty_cluster`] for any [`ConsensusEngine`].
pub fn build_faulty_cluster_engine<E: ConsensusEngine>(
    spec: ClusterSpec,
    faulty: u32,
    fault: Fault,
) -> Cluster<E> {
    let spec_for_twin = spec.clone();
    Cluster::assemble(
        spec,
        |mut host: ReplicaHost<E>| {
            if host.replica.id().0 == faulty {
                if fault == Fault::SplitBrain {
                    host.twin = Some(make_engine::<E>(&spec_for_twin, faulty));
                }
                host.fault = Some(fault);
            }
            host
        },
        |_, _| None,
    )
}

/// Build a cluster where replica `compromised` carries a provisioned (but
/// silent) split-brain twin, so an adaptive adversary can mount *any*
/// fault on it mid-run — including [`Fault::SplitBrain`]. Behaviour is
/// honest until something is mounted.
pub fn build_adversary_cluster(spec: ClusterSpec, compromised: u32) -> Cluster {
    build_adversary_cluster_engine::<Replica>(spec, compromised)
}

/// [`build_adversary_cluster`] for any [`ConsensusEngine`].
pub fn build_adversary_cluster_engine<E: ConsensusEngine>(
    spec: ClusterSpec,
    compromised: u32,
) -> Cluster<E> {
    let spec_for_twin = spec.clone();
    Cluster::assemble(
        spec,
        |mut host: ReplicaHost<E>| {
            if host.replica.id().0 == compromised {
                host.twin = Some(make_engine::<E>(&spec_for_twin, compromised));
            }
            host
        },
        |_, _| None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use pbft_core::messages::{AuthTag, ReplyMsg};
    use pbft_core::ReplicaId;

    #[test]
    fn corrupt_flips_a_byte() {
        let p = vec![5u8; 9];
        let c = corrupt(p.clone());
        assert_ne!(p, c);
        assert_eq!(c.iter().filter(|&&b| b != 5).count(), 1);
    }

    /// A host for replica `i` of the default spec, with `fault` mounted
    /// and, if `twin`, a split-brain twin provisioned.
    fn test_host(i: u32, fault: Option<Fault>, twin: bool) -> ReplicaHost {
        let spec = ClusterSpec::default();
        let mut host = ReplicaHost::new(make_engine(&spec, i), CostModel::default());
        host.twin = twin.then(|| make_engine(&spec, i));
        host.fault = fault;
        host
    }

    fn peer(r: u32) -> NetTarget {
        NetTarget::Replica(ReplicaId(r))
    }

    /// A reply envelope addressed to `client`.
    fn reply_to(client: u64) -> Envelope {
        Envelope {
            sender: Sender::Replica(ReplicaId(0)),
            msg: Message::Reply(ReplyMsg {
                view: 0,
                client: ClientId(client),
                timestamp: 1,
                replica: ReplicaId(0),
                tentative: false,
                digest_only: false,
                result: Vec::new(),
            }),
            auth: AuthTag::None,
        }
    }

    #[test]
    fn split_brain_audiences_are_disjoint_and_cover() {
        let n = ClusterSpec::default().cfg.n() as u32;
        for me in [0, 2] {
            let host = test_host(me, Some(Fault::SplitBrain), true);
            for r in (0..n).filter(|&r| r != me) {
                let a = host.audience_allows(0, peer(r));
                let b = host.audience_allows(1, peer(r));
                assert!(a ^ b, "peer {r} must hear exactly one brain of {me}");
            }
            assert!(!host.audience_allows(0, peer(me)) && !host.audience_allows(1, peer(me)));
            // Clients hear engine 0 only.
            assert!(host.audience_allows(0, NetTarget::Client(n + 3)));
            assert!(!host.audience_allows(1, NetTarget::Client(n + 3)));
        }
        // For replica 0 the split is {1} vs {2, 3}.
        let host = test_host(0, Some(Fault::SplitBrain), true);
        assert!(host.audience_allows(0, peer(1)));
        assert!(host.audience_allows(1, peer(2)) && host.audience_allows(1, peer(3)));
    }

    #[test]
    fn honest_host_passes_everything_through() {
        let host = test_host(1, None, false);
        assert_eq!(host.fault, None);
        assert!(host.audience_allows(0, peer(2)));
        let packet = PacketBuf::new(vec![TAG_REPLY, 1, 2, 3]);
        let out = host
            .outgoing(
                0,
                NetTarget::Client(4),
                &reply_to(1),
                PacketBuf::clone(&packet),
            )
            .expect("passes");
        assert!(
            PacketBuf::ptr_eq(&out, &packet),
            "honest pass-through shares the buffer, no copy"
        );
    }

    #[test]
    fn tamper_agreement_covers_linear_qc_tags() {
        let fault = Fault::TamperAgreement;
        for tag in [TAG_PREPARE, TAG_COMMIT, TAG_PREPARE_QC, TAG_COMMIT_QC] {
            let packet = PacketBuf::new(vec![tag, 7, 7, 7, 7]);
            assert_ne!(
                fault.transform(PacketBuf::clone(&packet), false),
                Some(packet),
                "agreement tag {tag} must be corrupted"
            );
        }
        // Non-agreement traffic (pre-prepare tag 2, replies) passes intact.
        for (tag, to_client) in [(2u8, false), (TAG_REPLY, true)] {
            let packet = PacketBuf::new(vec![tag, 7, 7, 7, 7]);
            assert_eq!(
                fault.transform(PacketBuf::clone(&packet), to_client),
                Some(packet)
            );
        }
    }

    #[test]
    fn censor_targets_exactly_the_masked_clients() {
        let fault = Fault::Censor { client_bits: 0b101 }; // clients 1 and 3
        assert!(fault.censors(ClientId(1)));
        assert!(!fault.censors(ClientId(2)));
        assert!(fault.censors(ClientId(3)));
        assert!(!fault.censors(ClientId(4)));
        assert!(!Fault::Mute.censors(ClientId(1)));

        // Replies are dropped by the client they answer, wherever it sits.
        let host = test_host(0, Some(fault), false);
        let packet = PacketBuf::new(vec![TAG_REPLY, 1]);
        let send = |client| {
            host.outgoing(
                0,
                NetTarget::Client(9),
                &reply_to(client),
                PacketBuf::clone(&packet),
            )
        };
        assert_eq!(send(1), None);
        assert!(send(2).is_some());
        assert_eq!(send(3), None);
        // Non-request traffic is never swallowed, even if garbled.
        assert!(!fault.censors_incoming(&[TAG_PREPARE, 0, 0]));
        assert!(!fault.censors_incoming(&[TAG_REQUEST, 0xff, 0xff]));
    }

    #[test]
    fn provisioned_twin_stays_silent_until_split_brain_mounts() {
        let n = ClusterSpec::default().cfg.n() as u32;
        let mut host = test_host(0, None, true);
        // No fault: only engine 0 speaks, to everyone.
        let targets = [peer(1), peer(2), peer(3), NetTarget::Client(n)];
        for to in targets {
            assert!(host.audience_allows(0, to));
            assert!(!host.audience_allows(1, to));
        }
        // Split-brain mounted: audiences partition the peers.
        host.fault = Some(Fault::SplitBrain);
        for r in 1..n {
            assert!(host.audience_allows(0, peer(r)) ^ host.audience_allows(1, peer(r)));
        }
        // Unmounted again: back to engine-0-only.
        host.fault = None;
        assert!(!host.audience_allows(1, peer(2)));
    }

    #[test]
    fn slow_primary_charges_but_never_drops() {
        let fault = Fault::SlowPrimary { delay_ns: 750_000 };
        assert_eq!(fault.slowdown(), SimDuration::from_nanos(750_000));
        assert_eq!(Fault::Mute.slowdown(), SimDuration::ZERO);
        for tag in [TAG_PREPARE, TAG_COMMIT, TAG_REPLY] {
            let packet = PacketBuf::new(vec![tag, 9, 9]);
            assert_eq!(
                fault.transform(PacketBuf::clone(&packet), tag == TAG_REPLY),
                Some(packet),
                "slow ≠ lossy: every message passes through"
            );
        }
    }
}
