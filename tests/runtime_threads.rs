//! The same automata on `ac-runtime`'s [`NodeLoop`] — the engine every
//! live node thread hosts — must reproduce the simulator's failure-free
//! executions exactly: the same decisions, the same number of wire
//! messages, and the same decision time in delay units.
//!
//! The host here drives one loop per process on the test thread with
//! synthetic instants: a cross-process message arrives exactly one unit
//! after it is sent, a self-message immediately, and due timers fire one
//! at a time with deliveries in between — the nice execution, with no
//! scheduling noise.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ac_commit::protocols::{ChainNbac, Inbac, Nbac0, Nbac1, TwoPc};
use ac_commit::{CommitProtocol, Scenario};
use ac_runtime::{NodeEvent, NodeLoop, UnitClock};
use ac_sim::ProcessId;

const UNIT: Duration = Duration::from_millis(30);

/// What the hosted run produced.
struct Hosted {
    decisions: Vec<Option<u64>>,
    /// Cross-process messages sent until quiescence.
    messages: usize,
    /// When the last process decided, in whole units since the start.
    last_decision_units: u64,
}

/// Messages in flight and decisions taken, shared by every loop's sink.
struct Net<M> {
    start: Instant,
    wire: VecDeque<(Instant, ProcessId, ProcessId, M)>,
    local: VecDeque<(ProcessId, M)>,
    hosted: Hosted,
}

impl<M> Net<M> {
    fn sink(&mut self, me: ProcessId, now: Instant) -> impl FnMut(NodeEvent<M>) + '_ {
        move |ev| match ev {
            NodeEvent::Send { to, msg, .. } if to == me => self.local.push_back((me, msg)),
            NodeEvent::Send { to, msg, .. } => {
                self.hosted.messages += 1;
                // Every message takes exactly one unit, so arrival order
                // is send order and the queue stays sorted.
                self.wire.push_back((now + UNIT, me, to, msg));
            }
            NodeEvent::Decided { value, .. } => {
                self.hosted.decisions[me] = Some(value);
                let units = now.duration_since(self.start).as_nanos() / UNIT.as_nanos();
                self.hosted.last_decision_units = units as u64;
            }
        }
    }
}

fn host<P: CommitProtocol>(votes: &[bool], f: usize) -> Hosted {
    let n = votes.len();
    let start = Instant::now();
    let mut loops: Vec<NodeLoop<P>> = (0..n)
        .map(|me| NodeLoop::new(me, n, UnitClock::new(UNIT)))
        .collect();
    let mut net = Net {
        start,
        wire: VecDeque::new(),
        local: VecDeque::new(),
        hosted: Hosted {
            decisions: vec![None; n],
            messages: 0,
            last_decision_units: 0,
        },
    };
    for (me, node) in loops.iter_mut().enumerate() {
        node.open(
            0,
            P::new(me, n, f, votes[me]),
            start,
            &mut net.sink(me, start),
        );
    }
    let mut now = start;
    loop {
        if let Some((p, msg)) = net.local.pop_front() {
            loops[p].deliver(0, p, msg, now, &mut net.sink(p, now));
            continue;
        }
        if net.wire.front().is_some_and(|m| m.0 <= now) {
            let (_, from, to, msg) = net.wire.pop_front().expect("peeked");
            loops[to].deliver(0, from, msg, now, &mut net.sink(to, now));
            continue;
        }
        if (0..n).any(|p| loops[p].fire_next(now, &mut net.sink(p, now))) {
            continue;
        }
        let next = net.wire.front().map(|m| m.0);
        match next
            .into_iter()
            .chain(loops.iter().filter_map(|l| l.next_due()))
            .min()
        {
            Some(t) => now = t,
            None => return net.hosted,
        }
    }
}

fn compare<P: CommitProtocol>(votes: &[bool], f: usize) {
    let sim = Scenario::nice(votes.len(), f).votes(votes).run::<P>();
    let metrics = sim.metrics();
    let hosted = host::<P>(votes, f);
    let sim_decisions: Vec<Option<u64>> = (0..votes.len()).map(|p| sim.decision_of(p)).collect();
    assert_eq!(hosted.decisions, sim_decisions, "{}: decisions", P::NAME);
    assert!(
        hosted.decisions.iter().all(|d| d.is_some()),
        "{}: some process never decided",
        P::NAME
    );
    assert_eq!(
        hosted.messages,
        metrics.messages_total,
        "{}: wire messages",
        P::NAME
    );
    assert_eq!(
        Some(hosted.last_decision_units),
        metrics.delays,
        "{}: decision time in units",
        P::NAME
    );
}

#[test]
fn inbac_commits_on_threads() {
    compare::<Inbac>(&[true; 4], 1);
}

#[test]
fn inbac_aborts_on_threads() {
    compare::<Inbac>(&[true, false, true, true], 1);
}

#[test]
fn two_pc_on_threads() {
    compare::<TwoPc>(&[true; 4], 1);
    compare::<TwoPc>(&[true, true, false, true], 1);
}

#[test]
fn nbac1_on_threads() {
    compare::<Nbac1>(&[true; 4], 1);
}

#[test]
fn nbac0_on_threads_is_silent_and_fast() {
    compare::<Nbac0>(&[true; 5], 2);
    let hosted = host::<Nbac0>(&[true; 5], 2);
    assert_eq!(hosted.decisions, vec![Some(1); 5]);
    assert_eq!(
        hosted.messages, 0,
        "0NBAC exchanges no message in nice runs"
    );
}

#[test]
fn chain_nbac_on_threads() {
    compare::<ChainNbac>(&[true; 4], 1);
}
