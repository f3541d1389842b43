//! The simulated deployment: four replicas and twelve clients on one
//! simulator, assembled from the harness's public construction pieces
//! (`make_engine`, `ReplicaHost`, `ClusterSpec`) with the benchmark's probes
//! mounted. The harness's `Cluster` finds engines by downcasting to its own
//! host types, so the deployment keeps its own accessors instead.

use harness::cluster::{make_engine, AppKind, ReplicaHost, GROUP_SEED};
use harness::ClusterSpec;
use pbft_core::client::Client;
use pbft_core::{ClientId, ConsensusEngine, OpCounts, ReplicaId};
use pbft_crypto::Digest;
use simnet::{NodeCtx, NodeId, SimConfig, SimDuration, Simulator};

use crate::client::BenchClient;
use crate::probe::{Probed, ReplicaNode};

/// Summable work counters of one node or of many (cumulative).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Fast MACs generated or verified.
    pub macs: u64,
    /// Signatures produced or verified.
    pub sigs: u64,
    /// Bytes digested.
    pub digest_bytes: u64,
    /// State pages hashed.
    pub pages_hashed: u64,
    /// Modelled application CPU time, µs.
    pub exec_cpu_us: f64,
    /// Stable-storage flushes.
    pub flushes: u64,
    /// Stable-storage bytes written.
    pub disk_bytes: u64,
    /// Requests executed.
    pub executed: u64,
    /// Batches executed.
    pub batches: u64,
    /// State transfers completed.
    pub transfers: u64,
    /// View changes voted for.
    pub vc_started: u64,
    /// View-change packets sent.
    pub vc_msgs: u64,
    /// Packets dropped for failed authentication.
    pub auth_failures: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Reads served by the read-only fast path.
    pub reads_served: u64,
    /// Reads parked by the contention gate.
    pub reads_deferred: u64,
    /// Agreement packets sent.
    pub agreement_msgs: u64,
    /// Envelope encodings on the send path.
    pub encodings: u64,
    /// Client retransmissions.
    pub retransmits: u64,
}

impl Counters {
    fn from_ops(c: &OpCounts) -> Counters {
        Counters {
            macs: c.mac_gen + c.mac_verify,
            sigs: c.sign + c.sig_verify,
            digest_bytes: c.digest_bytes,
            pages_hashed: c.pages_hashed,
            exec_cpu_us: c.exec_cpu_us,
            flushes: c.disk_flushes,
            disk_bytes: c.disk_write_bytes,
            ..Default::default()
        }
    }

    fn of_replica(host: &ReplicaHost<Probed>) -> Counters {
        let m = host.replica.metrics();
        Counters {
            executed: m.executed_requests,
            batches: m.batches_executed,
            transfers: m.state_transfers_completed,
            vc_started: m.view_changes_started,
            vc_msgs: m.viewchange_msgs_sent,
            auth_failures: m.auth_failures,
            checkpoints: m.checkpoints_taken,
            reads_served: m.read_only_served,
            reads_deferred: m.read_only_deferred,
            agreement_msgs: m.agreement_msgs_sent,
            encodings: m.hot_encodings,
            ..Counters::from_ops(&host.cum_counts)
        }
    }

    /// Field-wise `self + o` (`sign = 1`) or `self - o` (`sign = -1`).
    fn combine(&self, o: &Counters, sign: i64) -> Counters {
        let f = |a: u64, b: u64| (a as i64 + sign * b as i64) as u64;
        Counters {
            macs: f(self.macs, o.macs),
            sigs: f(self.sigs, o.sigs),
            digest_bytes: f(self.digest_bytes, o.digest_bytes),
            pages_hashed: f(self.pages_hashed, o.pages_hashed),
            exec_cpu_us: self.exec_cpu_us + sign as f64 * o.exec_cpu_us,
            flushes: f(self.flushes, o.flushes),
            disk_bytes: f(self.disk_bytes, o.disk_bytes),
            executed: f(self.executed, o.executed),
            batches: f(self.batches, o.batches),
            transfers: f(self.transfers, o.transfers),
            vc_started: f(self.vc_started, o.vc_started),
            vc_msgs: f(self.vc_msgs, o.vc_msgs),
            auth_failures: f(self.auth_failures, o.auth_failures),
            checkpoints: f(self.checkpoints, o.checkpoints),
            reads_served: f(self.reads_served, o.reads_served),
            reads_deferred: f(self.reads_deferred, o.reads_deferred),
            agreement_msgs: f(self.agreement_msgs, o.agreement_msgs),
            encodings: f(self.encodings, o.encodings),
            retransmits: f(self.retransmits, o.retransmits),
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        self.combine(o, 1)
    }

    /// Field-wise difference (`self` must dominate `o`).
    pub fn minus(&self, o: &Counters) -> Counters {
        self.combine(o, -1)
    }
}

/// Cumulative counters of the whole deployment at one instant.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    /// Replica and client work, summed over every node.
    pub counters: Counters,
    /// Packets sent by every node.
    pub packets: u64,
    /// Bytes sent by every node.
    pub bytes: u64,
    /// Virtual busy time of each replica, ns.
    pub busy_ns: Vec<u64>,
}

/// A built deployment.
pub struct Deployment {
    /// The simulator.
    pub sim: Simulator,
    /// The spec it was built from.
    pub spec: ClusterSpec,
    /// Replica node ids (index = replica id).
    pub replicas: Vec<NodeId>,
    /// Client node ids.
    pub clients: Vec<NodeId>,
    /// Counters of replica incarnations that were restarted away.
    retired: Vec<Counters>,
}

impl Deployment {
    /// Build the deployment and run it until every client is a member
    /// (dynamic deployments join by challenge-response here).
    pub fn build(spec: ClusterSpec, trace: bool) -> Result<Deployment, String> {
        let mut sim = Simulator::new(SimConfig {
            seed: spec.seed,
            default_link: spec.link,
            trace,
            trace_cap: usize::MAX,
        });
        let n = spec.cfg.n();
        let replicas: Vec<NodeId> = (0..n as u32)
            .map(|i| {
                let engine = make_engine::<Probed>(&spec, i);
                sim.add_node(Box::new(ReplicaNode(ReplicaHost::new(engine, spec.cost))))
            })
            .collect();
        let clients: Vec<NodeId> = (0..spec.num_clients)
            .map(|c| {
                // A client's transport address is its simulator node id.
                let addr = (n + c) as u32;
                let client = if spec.cfg.dynamic_membership {
                    let idbuf = match &spec.app {
                        AppKind::Evoting { voters, .. } => {
                            let (user, secret) = &voters[c % voters.len()];
                            evoting::idbuf(user, secret)
                        }
                        _ => format!("user-{c}").into_bytes(),
                    };
                    Client::new_dynamic(spec.cfg.clone(), GROUP_SEED, c as u64 + 1, addr, idbuf)
                } else {
                    Client::new_static(spec.cfg.clone(), GROUP_SEED, ClientId(c as u64 + 1), addr)
                };
                sim.add_node(Box::new(BenchClient::new(client, spec.cost)))
            })
            .collect();
        let mut d = Deployment {
            sim,
            retired: vec![Counters::default(); n],
            spec,
            replicas,
            clients,
        };
        for _ in 0..400 {
            d.sim.run_for(SimDuration::from_millis(5));
            if (0..d.clients.len()).all(|c| d.client(c).client.is_member()) {
                return Ok(d);
            }
        }
        Err("clients did not all join within 2 s of virtual time".into())
    }

    fn host(&self, i: usize) -> Option<&ReplicaHost<Probed>> {
        self.sim
            .node_ref::<ReplicaNode>(self.replicas[i])
            .map(|node| &node.0)
    }

    /// Replica `i`'s engine (also while crashed: the value is retained).
    pub fn replica(&self, i: usize) -> &Probed {
        &self.host(i).expect("replica node").replica
    }

    /// Whether replica `i` is running.
    pub fn alive(&self, i: usize) -> bool {
        self.sim.is_alive(self.replicas[i])
    }

    /// Client `c`.
    pub fn client(&self, c: usize) -> &BenchClient {
        self.sim
            .node_ref::<BenchClient>(self.clients[c])
            .expect("client node")
    }

    /// Client `c`, mutably.
    pub fn client_mut(&mut self, c: usize) -> &mut BenchClient {
        self.sim
            .node_mut::<BenchClient>(self.clients[c])
            .expect("client node")
    }

    /// Run `f` against client `c` with a handler context.
    pub fn with_client<R>(
        &mut self,
        c: usize,
        f: impl FnOnce(&mut BenchClient, &mut NodeCtx<'_>) -> R,
    ) -> R {
        self.sim
            .with_node_ctx::<BenchClient, R>(self.clients[c], f)
            .expect("client node")
    }

    /// Certified replies received since the clients' windows opened.
    pub fn replies(&self) -> u64 {
        (0..self.clients.len())
            .map(|c| self.client(c).ledger.reply_times_ns.len() as u64)
            .sum()
    }

    /// Operations submitted by any client and not yet answered.
    pub fn unanswered(&self) -> usize {
        (0..self.clients.len())
            .map(|c| self.client(c).unanswered())
            .sum()
    }

    /// Crash replica `i`.
    pub fn crash(&mut self, i: usize) {
        self.sim.crash(self.replicas[i]);
    }

    /// Restart crashed replica `i` over its preserved disk (its state
    /// region), with fresh protocol state and no client session keys.
    pub fn restart(&mut self, i: usize) {
        let host = self.host(i).expect("replica node");
        let old = Counters::of_replica(host);
        let state = host.replica.state_handle();
        self.retired[i] = self.retired[i].plus(&old);
        let app = self.spec.make_app(state.clone());
        let mut engine = Probed::build(
            self.spec.cfg.clone(),
            GROUP_SEED,
            ReplicaId(i as u32),
            state,
            app,
            &[],
        );
        engine.restarted = true;
        let node = ReplicaNode(ReplicaHost::new(engine, self.spec.cost));
        self.sim.restart(self.replicas[i], Box::new(node));
    }

    /// Cumulative counters of every node, across replica restarts.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Counters::default();
        for i in 0..self.replicas.len() {
            let host = self.host(i).expect("replica node");
            counters = counters
                .plus(&Counters::of_replica(host))
                .plus(&self.retired[i]);
        }
        for c in 0..self.clients.len() {
            let client = self.client(c);
            counters = counters.plus(&Counters {
                retransmits: client.client.metrics.retransmissions,
                ..Counters::from_ops(&client.counts)
            });
        }
        let all = self.replicas.iter().chain(self.clients.iter());
        Snapshot {
            counters,
            packets: all.clone().map(|&id| self.sim.stats(id).packets_sent).sum(),
            bytes: all.map(|&id| self.sim.stats(id).bytes_sent).sum(),
            busy_ns: self
                .replicas
                .iter()
                .map(|&id| self.sim.stats(id).busy_time.as_nanos())
                .collect(),
        }
    }

    /// The state digest of every live replica, recomputed now.
    pub fn live_digests(&self) -> Vec<(usize, Digest)> {
        (0..self.replicas.len())
            .filter(|&i| self.alive(i))
            .map(|i| {
                let handle = self.replica(i).state_handle();
                let digest = handle.borrow_mut().refresh_digest();
                (i, digest)
            })
            .collect()
    }
}
