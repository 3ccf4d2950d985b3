//! The benchmark's workloads. Every one runs n = 4 nodes, f = 1,
//! U = 5 ms, 2 client threads and 4 × 4096 keys, with no injected link
//! delay: latency is protocol timers plus processor time. See README.md
//! for why each was chosen.

use std::time::Duration;

use ac_cluster::{FaultSpec, ServiceConfig, TransportKind};
use ac_commit::protocols::{Inbac, PaxosCommit, ProtocolKind, TwoPc};
use ac_commit::runner::nice_complexity;
use ac_txn::Workload;

use crate::replay::{replay, ReplayInput};
use crate::trace::Tracer;

pub const N: usize = 4;
pub const F: usize = 1;
pub const UNIT: Duration = Duration::from_millis(5);
pub const CLIENTS: usize = 2;
pub const KEYS_PER_SHARD: u64 = 4096;
/// In-flight transactions per client on inbac-durable-skewed: about 20
/// are in flight on average, and a host stall of 50 ms piles up another
/// 100, so only a stall of about half a second fills this window and
/// sheds an arrival.
const INBAC_WINDOW: usize = 1024;
/// In-flight transactions per client on paxos-tcp-peak, the service's
/// default `max_outstanding`: enough to keep it at capacity.
const PAXOS_WINDOW: usize = 16;

pub struct Spec {
    pub name: &'static str,
    pub kind: ProtocolKind,
    pub workload: Workload,
    pub transport: TransportKind,
    /// Write-ahead log on, with the default per-drain-batch group commit.
    pub durable: bool,
    /// Open loop: Poisson arrivals regardless of completions. Closed
    /// loop: each client submits a new transaction as soon as one is
    /// decided.
    pub open: bool,
    /// Transactions per second per client: the open loop's arrival rate,
    /// or about what the closed loop reaches on the reference host. Rounds
    /// are sized from it, so a seed always gives the same inputs.
    pub rate: f64,
    /// In-flight transactions per client. The closed loop keeps this
    /// many outstanding; the open loop sheds arrivals that find it full.
    pub window: usize,
    /// Messages of a nice execution (Table 5), when every transaction
    /// spans the whole cluster and live traffic must match it exactly.
    pub nice_msgs: Option<u64>,
    /// The layer replay, monomorphized for this workload's protocol.
    pub replay: fn(&ReplayInput, &mut Tracer) -> u64,
}

pub fn by_name(name: &str) -> Option<Spec> {
    let spec = match name {
        "2pc-closed" => Spec {
            name: "2pc-closed",
            kind: ProtocolKind::TwoPc,
            workload: Workload::Uniform { span: N },
            transport: TransportKind::Channel,
            durable: false,
            open: false,
            rate: 185.0,
            window: 1,
            nice_msgs: Some(nice_complexity::<TwoPc>(N, F).1),
            replay: replay::<TwoPc>,
        },
        "inbac-durable-skewed" => Spec {
            name: "inbac-durable-skewed",
            kind: ProtocolKind::Inbac,
            workload: Workload::Skewed {
                span: 2,
                theta: 0.6,
            },
            transport: TransportKind::Channel,
            durable: true,
            open: true,
            rate: 2_000.0,
            window: INBAC_WINDOW,
            nice_msgs: None,
            replay: replay::<Inbac>,
        },
        "paxos-tcp-peak" => Spec {
            name: "paxos-tcp-peak",
            kind: ProtocolKind::PaxosCommit,
            workload: Workload::Uniform { span: 2 },
            transport: TransportKind::Tcp,
            durable: false,
            open: false,
            rate: 11_000.0,
            window: PAXOS_WINDOW,
            nice_msgs: None,
            replay: replay::<PaxosCommit>,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    /// The service configuration of one round with `txns_per_client`
    /// transactions per client.
    pub fn config(&self, seed: u64, txns_per_client: usize) -> ServiceConfig {
        let cfg = ServiceConfig::new(N, F, self.kind)
            .unit(UNIT)
            .clients(CLIENTS)
            .txns_per_client(txns_per_client)
            .workload(self.workload.clone())
            .keys_per_shard(KEYS_PER_SHARD)
            .seed(seed)
            .transport(self.transport)
            .max_outstanding(self.window);
        if self.open {
            cfg.arrival_rate(self.rate)
        } else {
            // The client submits whenever fewer than `window` are in
            // flight, not only once every outstanding one is parked.
            cfg.park_retries(0)
        }
    }

    pub fn faults(&self) -> FaultSpec {
        FaultSpec {
            durable: self.durable,
            ..FaultSpec::none(N)
        }
    }
}
