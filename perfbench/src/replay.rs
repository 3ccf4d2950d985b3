//! Replays a workload's generated inputs through each layer's public
//! functions on one thread, with a span around every call.
//!
//! One transaction at a time: the workload generator (and the open
//! loop's arrival schedule) produce it; `Begin` frames carry it through
//! the wire codec to every participant; each participant's shard
//! prepares it, the flight recorder stamps it and, on durable workloads,
//! the write-ahead log forces at the batch size the live run measured;
//! one `NodeLoop` per node runs the protocol instance, every cross-node
//! message going through the codec; timers fire on a virtual clock that
//! jumps to the earliest deadline once no message is left; the decision
//! is applied and `End` frames close the transaction. Nothing runs
//! concurrently, so each span times one call and nothing else.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ac_cluster::codec::write_frame;
use ac_cluster::{participants_of, AnyFrame, FrameDecoder, ServiceConfig, ToNode};
use ac_commit::problem::COMMIT;
use ac_commit::CommitProtocol;
use ac_obs::{FlightRecorder, FlightStage};
use ac_runtime::{NodeEvent, NodeLoop, UnitClock};
use ac_sim::Wire;
use ac_txn::{ArrivalSchedule, Shard, Wal, WalRecord, WorkloadConfig};

use crate::trace::Tracer;

/// The salt the service's clients mix into their arrival-schedule seed.
const ARRIVAL_SEED_SALT: u64 = 0x5eed_a221;

pub struct ReplayInput {
    /// The live run's configuration: same seed, hence the same inputs.
    pub cfg: ServiceConfig,
    /// Transactions to replay, taken round-robin from the clients' streams.
    pub txns: usize,
    /// Force the write-ahead log whenever this many records are staged
    /// (`None` = no log).
    pub wal_batch: Option<usize>,
}

/// Encode `frame`, then decode it back the way a socket reader would.
fn through_codec<M: Wire>(
    tr: &mut Tracer,
    txn: u64,
    parent: u32,
    frame: AnyFrame<M>,
    buf: &mut Vec<u8>,
    decoder: &mut FrameDecoder,
    bytes: &mut u64,
) -> AnyFrame<M> {
    buf.clear();
    tr.time("cluster.encode", txn, parent, || write_frame(&frame, buf));
    *bytes += buf.len() as u64;
    tr.time("cluster.decode", txn, parent, || {
        decoder.feed(buf);
        decoder.next_frame::<M>()
    })
    .expect("a frame the codec wrote decodes")
    .expect("the whole frame was fed")
}

/// Replay `input` under `tr`; returns the bytes that went through the
/// codec (`Begin`, protocol and `End` frames).
pub fn replay<P>(input: &ReplayInput, tr: &mut Tracer) -> u64
where
    P: CommitProtocol,
    P::Msg: Wire,
{
    let cfg = &input.cfg;
    let n = cfg.n;
    let mut streams: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let gen = WorkloadConfig {
                shards: n,
                keys_per_shard: cfg.keys_per_shard,
                workload: cfg.workload.clone(),
                seed: cfg.client_seed(c),
            }
            .generator();
            let arrivals = cfg
                .arrival_rate
                .map(|r| ArrivalSchedule::new(r, cfg.client_seed(c) ^ ARRIVAL_SEED_SALT));
            (gen, arrivals)
        })
        .collect();
    let base = Instant::now();
    let mut now = base;
    let mut loops: Vec<NodeLoop<P>> = (0..n)
        .map(|me| NodeLoop::new(me, n, UnitClock::new(cfg.unit)))
        .collect();
    let mut shards: Vec<Shard> = (0..n).map(Shard::new).collect();
    let mut wals: Vec<Wal> = (0..n).map(|_| Wal::new()).collect();
    let mut staged: Vec<Vec<WalRecord>> = (0..n).map(|_| Vec::new()).collect();
    let mut flight: Vec<FlightRecorder> = (0..n).map(|_| FlightRecorder::default()).collect();
    let mut decoder = FrameDecoder::new();
    let mut buf = Vec::new();
    let mut events: Vec<NodeEvent<P::Msg>> = Vec::new();
    // (to node, from node, message), global node ids.
    let mut queue: VecDeque<(usize, usize, P::Msg)> = VecDeque::new();
    let mut bytes = 0u64;

    for i in 0..input.txns {
        let client = i % cfg.clients;
        let id = ServiceConfig::txn_id(client, i / cfg.clients);
        let root = tr.open("replay.txn", id, None);
        let (gen, arrivals) = &mut streams[client];
        let mut txn = tr.time("txn.gen", id, root, || {
            if let Some(a) = arrivals.as_mut() {
                black_box(a.next_gap());
            }
            gen.next_txn()
        });
        txn.id = id;
        let txn = Arc::new(txn);
        let parts = participants_of(&txn, n);
        let k = parts.len();
        let rank_of = |node: usize| {
            parts
                .iter()
                .position(|&q| q == node)
                .expect("a participant")
        };
        let at = now.duration_since(base);

        let mut votes = vec![false; k];
        for (rank, &p) in parts.iter().enumerate() {
            let begin = ToNode::Begin {
                txn: Arc::clone(&txn),
                client,
                retry: false,
            };
            let frame = through_codec(
                tr,
                id,
                root,
                AnyFrame::<P::Msg>::Node(begin),
                &mut buf,
                &mut decoder,
                &mut bytes,
            );
            let AnyFrame::Node(ToNode::Begin { txn: body, .. }) = frame else {
                panic!("a Begin frame decoded as another frame");
            };
            let rec = &mut flight[p];
            tr.time("obs.record", id, root, || {
                rec.record(id, p as u32, FlightStage::Dispatch, at)
            });
            let shard = &mut shards[p];
            votes[rank] = tr.time("txn.prepare", id, root, || shard.prepare(&body));
            tr.time("obs.record", id, root, || {
                rec.record(id, p as u32, FlightStage::LockAcquired, at)
            });
            if let Some(batch) = input.wal_batch {
                staged[p].push(WalRecord::Prepare {
                    txn: body,
                    client,
                    vote: votes[rank],
                });
                force_if_full(tr, id, root, batch, &mut wals[p], &mut staged[p]);
            }
        }

        let mut decided: Vec<Option<u64>> = vec![None; k];
        let f = cfg.f.min(k - 1);
        for (rank, &p) in parts.iter().enumerate() {
            let vote = votes[rank];
            let proto = tr.time("commit.new", id, root, || P::new(rank, k, f, vote));
            let node = &mut loops[p];
            tr.time("runtime.open_as", id, root, || {
                node.open_as(id, proto, rank, k, now, &mut |e| events.push(e))
            });
            route(&mut events, p, &parts, &mut queue, &mut decided);
        }
        loop {
            while let Some((to, from, msg)) = queue.pop_front() {
                let msg = if to == from {
                    msg
                } else {
                    let net = ToNode::Net { txn: id, from, msg };
                    let frame = through_codec(
                        tr,
                        id,
                        root,
                        AnyFrame::Node(net),
                        &mut buf,
                        &mut decoder,
                        &mut bytes,
                    );
                    let AnyFrame::Node(ToNode::Net { msg, .. }) = frame else {
                        panic!("a Net frame decoded as another frame");
                    };
                    msg
                };
                let node = &mut loops[to];
                let from_rank = rank_of(from);
                let offered = tr.time("runtime.offer", id, root, || {
                    node.offer(id, from_rank, msg, now, &mut |e| events.push(e))
                });
                assert!(offered.is_ok(), "message for an instance that is not open");
                route(&mut events, to, &parts, &mut queue, &mut decided);
            }
            if decided.iter().all(Option::is_some) {
                break;
            }
            // Quiescent and undecided: jump to the earliest deadline.
            let (p, due) = parts
                .iter()
                .filter_map(|&p| loops[p].next_due().map(|d| (p, d)))
                .min_by_key(|&(_, d)| d)
                .expect("an undecided instance has a timer pending");
            now = now.max(due);
            let node = &mut loops[p];
            tr.time("runtime.fire_next", id, root, || {
                node.fire_next(now, &mut |e| events.push(e))
            });
            route(&mut events, p, &parts, &mut queue, &mut decided);
        }

        let value = decided[0].expect("decided");
        assert!(
            decided.iter().all(|d| *d == Some(value)),
            "replay reached a split decision"
        );
        let at = now.duration_since(base);
        for &p in &parts {
            let shard = &mut shards[p];
            tr.time("txn.finish", id, root, || {
                shard.finish(&txn, value == COMMIT)
            });
            if let Some(batch) = input.wal_batch {
                staged[p].push(WalRecord::Decide { txn: id, value });
                force_if_full(tr, id, root, batch, &mut wals[p], &mut staged[p]);
            }
            let rec = &mut flight[p];
            tr.time("obs.record", id, root, || {
                rec.record(id, p as u32, FlightStage::Decided, at)
            });
            loops[p].close(id);
            through_codec(
                tr,
                id,
                root,
                AnyFrame::<P::Msg>::Node(ToNode::End { txn: id }),
                &mut buf,
                &mut decoder,
                &mut bytes,
            );
        }
        tr.close(root);
    }
    bytes
}

/// Queue `from`'s sends (ranks translated to node ids) and note its
/// decision.
fn route<M>(
    events: &mut Vec<NodeEvent<M>>,
    from: usize,
    parts: &[usize],
    queue: &mut VecDeque<(usize, usize, M)>,
    decided: &mut [Option<u64>],
) {
    for e in events.drain(..) {
        match e {
            NodeEvent::Send { to, msg, .. } => queue.push_back((parts[to], from, msg)),
            NodeEvent::Decided { value, .. } => {
                let rank = parts
                    .iter()
                    .position(|&q| q == from)
                    .expect("a participant");
                decided[rank] = Some(value);
            }
        }
    }
}

fn force_if_full(
    tr: &mut Tracer,
    txn: u64,
    parent: u32,
    batch: usize,
    wal: &mut Wal,
    staged: &mut Vec<WalRecord>,
) {
    if staged.len() >= batch {
        tr.time("txn.force_batch", txn, parent, || wal.force_batch(staged));
    }
}
