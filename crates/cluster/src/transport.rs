//! The node-to-node transport seam and its implementations.
//!
//! [`node_main`](crate::service)'s flush step stages outbound envelopes
//! per destination and hands each destination's batch to a [`Transport`].
//! Above the seam the node loop knows only protocol work: drain, dispatch,
//! the WAL force, batching and the wire counter. Everything below is how
//! envelopes actually move, or fail to:
//!
//! * [`ChannelTransport`] — the original fast path: one unbounded
//!   crossbeam channel per node, `send_batch` is one lock acquisition.
//! * [`TcpTransport`] — a per-peer TCP connection manager: envelopes are
//!   framed by [`crate::codec`] and written to a lazily-established
//!   socket, with reconnect-on-failure. Its receiving counterpart is
//!   [`TcpNode`]: a listener whose per-connection reader threads decode
//!   frames and forward them into the node's ordinary inbox channel, so
//!   the node loop itself never knows which transport fed it.
//! * [`FaultTransport`] — a decorator over either of them that injects
//!   message faults: a [`NetPolicy`] gives every envelope a [`Fate`]
//!   (deliver, drop, or delay), and delayed envelopes wait in a heap until
//!   the node loop's next flush at or after their due instant
//!   ([`Transport::release_due`]). The service wraps a node's transport
//!   only when its `FaultSpec` carries a policy.
//!
//! ## Reconnect state machine (per peer)
//!
//! ```text
//!            connect ok                   write error
//! Unconnected ────────────► Connected ─────────────────┐
//!     ▲  │ connect fails        ▲                      │
//!     │  ▼                      │ reconnect ok         ▼
//!   Backoff (500 ms) ◄────────── ─────────────── Reconnecting
//!                                 reconnect fails: envelope dropped,
//!                                 peer enters Backoff
//! ```
//!
//! The *first* connection attempt to a peer retries for several seconds
//! (multi-process clusters start their nodes concurrently); once a peer
//! has been reached, a failed send performs exactly one reconnect
//! attempt and otherwise **drops the envelope** — a down peer behaves
//! like a crashed process, which is precisely the fault domain the
//! protocols are built for.

use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ac_obs::NetMeters;
use ac_sim::{ProcessId, Wire};
use crossbeam::channel::Sender;

use crate::codec::{write_frame, AnyFrame, FrameDecoder};
use crate::service::ToNode;

/// How long a peer stays in backoff after a failed (re)connect before
/// the next send attempts again.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(500);
/// First-contact patience: attempts × gap ≈ 3 s, covering the startup
/// skew of a multi-process cluster.
const INITIAL_ATTEMPTS: u32 = 30;
const INITIAL_GAP: Duration = Duration::from_millis(100);
/// Reader-thread receive buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Where a node's outbound envelopes go. Implementations must preserve
/// per-sender FIFO order on a healthy link and must never block
/// indefinitely; delivery is at-most-once (loss on a broken link is the
/// crash fault domain, duplication is never allowed).
pub trait Transport<M>: Send {
    /// Send one envelope to node `to`.
    fn send(&mut self, to: ProcessId, env: ToNode<M>);

    /// Send a batch to node `to`, equivalent to sending each envelope in
    /// order (implementations may amortize: one lock, one syscall).
    /// Returns how many envelopes went on the wire now; a fault decorator
    /// may drop or hold back the rest.
    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) -> usize {
        let sent = batch.len();
        for env in batch.drain(..) {
            self.send(to, env);
        }
        sent
    }

    /// Start a flush at `now`: send every held-back envelope due by then
    /// and report when the next one falls due. Only a decorator that
    /// delays envelopes holds any ([`FaultTransport`]); the default holds
    /// none.
    fn release_due(&mut self, _now: Instant) -> Release {
        Release::default()
    }

    /// The sending node crashed: whatever the transport holds back in the
    /// node's memory dies with it. Counters survive, as they would in a
    /// restarted process's metrics.
    fn crash(&mut self) {}

    /// `(writes, total nanoseconds)` this transport spent handing bytes
    /// to the OS. The TCP transport times every socket `write_all`; the
    /// channel transport is a lock handoff and reports zero (observability
    /// — the `tcp_write` seam meter).
    fn io_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// What [`Transport::release_due`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Release {
    /// Held-back envelopes that went on the wire.
    pub sent: usize,
    /// When the earliest envelope still held back falls due.
    pub next_due: Option<Instant>,
}

/// The in-process transport: envelopes move over unbounded crossbeam
/// channels, exactly as the service always worked.
pub struct ChannelTransport<M> {
    txs: Vec<Sender<ToNode<M>>>,
}

impl<M> ChannelTransport<M> {
    /// A transport over the given per-node inbox senders.
    pub fn new(txs: Vec<Sender<ToNode<M>>>) -> ChannelTransport<M> {
        ChannelTransport { txs }
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        let _ = self.txs[to].send(env);
    }

    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) -> usize {
        let sent = batch.len();
        let _ = self.txs[to].send_batch(batch.drain(..));
        sent
    }
}

/// What the fault layer decides about one node-to-node envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Put it on the wire now.
    Deliver,
    /// Lose it (partition, lossy link).
    Drop,
    /// Deliver it after an extra delay.
    Delay(Duration),
}

/// A fault-injection policy consulted for every node-to-node envelope.
///
/// `seq` is a per-`(from, to)` monotone counter, so a seeded policy can be
/// deterministic without interior mutability (`ac-chaos::FaultProxy` hashes
/// `(seed, from, to, seq)`); `elapsed` is wall time since the service
/// epoch. Client↔node control traffic is *not* subject to the policy (the
/// client is the measurement harness, not a distributed component).
pub trait NetPolicy: Send + Sync {
    /// Decide the fate of one envelope from `from` to `to`.
    fn fate(&self, from: ProcessId, to: ProcessId, elapsed: Duration, seq: u64) -> Fate;
}

/// Envelope fates counted across every [`FaultTransport`] that shares
/// this value (the service shares one per run).
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Envelopes the policy dropped.
    pub dropped: AtomicUsize,
    /// Envelopes the policy held back before delivery.
    pub delayed: AtomicUsize,
}

/// An envelope held back by a [`Fate::Delay`] verdict, released at `due`.
struct DelayedEnv<M> {
    due: Instant,
    seq: u64,
    to: ProcessId,
    env: ToNode<M>,
}

impl<M> PartialEq for DelayedEnv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for DelayedEnv<M> {}
impl<M> PartialOrd for DelayedEnv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DelayedEnv<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on `due`.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// A [`Transport`] decorator that applies a [`NetPolicy`] to every
/// envelope of one sending node.
///
/// Each flush begins with [`Transport::release_due`] at the flush instant:
/// due delayed envelopes go out first, bypassing the policy, and the
/// batches sent after it are judged at that same instant. Delivered
/// envelopes pass to the inner transport in their original order; a
/// delayed one is released at the first flush at or after `now + delay`,
/// in `(due, seq)` order. A [`Transport::crash`] discards the held
/// envelopes but keeps the per-destination `seq` counters, so a seeded
/// policy keeps its verdict stream across a restart.
pub struct FaultTransport<M> {
    inner: Box<dyn Transport<M>>,
    me: ProcessId,
    policy: Arc<dyn NetPolicy>,
    epoch: Instant,
    /// The instant the current flush is judged at.
    now: Instant,
    /// Per-destination envelope counters feeding the policy.
    seq: Vec<u64>,
    delayed: BinaryHeap<DelayedEnv<M>>,
    /// Reused per-destination batch of delivered envelopes.
    staged: Vec<ToNode<M>>,
    counters: Arc<FaultCounters>,
}

impl<M> FaultTransport<M> {
    /// Wrap node `me`'s transport to `n` nodes; `epoch` is the run start
    /// the policy's `elapsed` argument counts from.
    pub fn new(
        inner: Box<dyn Transport<M>>,
        me: ProcessId,
        n: usize,
        policy: Arc<dyn NetPolicy>,
        epoch: Instant,
        counters: Arc<FaultCounters>,
    ) -> FaultTransport<M> {
        FaultTransport {
            inner,
            me,
            policy,
            epoch,
            now: epoch,
            seq: vec![0; n],
            delayed: BinaryHeap::new(),
            staged: Vec::new(),
            counters,
        }
    }
}

impl<M: Send> Transport<M> for FaultTransport<M> {
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        self.send_batch(to, &mut vec![env]);
    }

    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) -> usize {
        let elapsed = self.now.saturating_duration_since(self.epoch);
        for env in batch.drain(..) {
            let seq = self.seq[to];
            self.seq[to] += 1;
            match self.policy.fate(self.me, to, elapsed, seq) {
                Fate::Deliver => self.staged.push(env),
                Fate::Drop => {
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Fate::Delay(d) => {
                    self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                    self.delayed.push(DelayedEnv {
                        due: self.now + d,
                        seq,
                        to,
                        env,
                    });
                }
            }
        }
        if self.staged.is_empty() {
            return 0;
        }
        self.inner.send_batch(to, &mut self.staged)
    }

    fn release_due(&mut self, now: Instant) -> Release {
        self.now = now;
        let mut sent = 0;
        while self.delayed.peek().is_some_and(|d| d.due <= now) {
            let d = self.delayed.pop().expect("peeked");
            self.inner.send(d.to, d.env);
            sent += 1;
        }
        Release {
            sent,
            next_due: self.delayed.peek().map(|d| d.due),
        }
    }

    fn crash(&mut self) {
        self.delayed.clear();
    }

    fn io_stats(&self) -> (u64, u64) {
        self.inner.io_stats()
    }
}

/// Called with `(peer, stream)` after every successful (re)connect,
/// before any envelope is written. Multi-process clients use it to send
/// their `Hello` handshake and spawn the `Done`-frame reader.
pub type OnConnect = Arc<dyn Fn(ProcessId, &TcpStream) + Send + Sync>;

enum PeerState {
    /// Never reached yet: first contact gets the long retry loop.
    Fresh,
    Connected(TcpStream),
    /// Unreachable; do not retry before the stored instant.
    Backoff(Instant),
    /// Was reachable before; next send makes one reconnect attempt.
    Lost,
}

/// The socket transport: one lazily-connected TCP stream per peer,
/// frames encoded by [`crate::codec`], reconnect-on-failure (see the
/// module docs for the state machine).
pub struct TcpTransport {
    peers: Vec<SocketAddr>,
    state: Vec<PeerState>,
    scratch: Vec<u8>,
    /// Frames currently encoded into `scratch` (egress frame metering).
    scratch_frames: u64,
    on_connect: Option<OnConnect>,
    /// Per-peer socket counters (bytes/frames out, reconnects, dial
    /// failures, outbox high-water), shared with the process's metrics
    /// endpoint and its observability export. `None` meters nothing.
    net: Option<Arc<NetMeters>>,
    /// Socket-write self-metering: `write_all` calls and their summed
    /// duration (connection establishment is deliberately excluded — a
    /// first-contact dial retries for seconds and is not write time).
    io_writes: u64,
    io_nanos: u64,
}

impl TcpTransport {
    /// A transport that will dial `peers[to]` for destination `to`.
    pub fn new(peers: Vec<SocketAddr>) -> TcpTransport {
        let state = peers.iter().map(|_| PeerState::Fresh).collect();
        TcpTransport {
            peers,
            state,
            scratch: Vec::new(),
            scratch_frames: 0,
            on_connect: None,
            net: None,
            io_writes: 0,
            io_nanos: 0,
        }
    }

    /// Install a post-connect hook (builder style).
    pub fn on_connect(mut self, hook: OnConnect) -> TcpTransport {
        self.on_connect = Some(hook);
        self
    }

    /// Record egress into `meters` (builder style). The meters' peer
    /// table should match this transport's peer count.
    pub fn with_net(mut self, meters: Arc<NetMeters>) -> TcpTransport {
        self.net = Some(meters);
        self
    }

    fn dial(&self, to: ProcessId, attempts: u32) -> Option<TcpStream> {
        for i in 0..attempts {
            if let Ok(s) = TcpStream::connect(self.peers[to]) {
                let _ = s.set_nodelay(true);
                if let Some(hook) = &self.on_connect {
                    hook(to, &s);
                }
                return Some(s);
            }
            if i + 1 < attempts {
                std::thread::sleep(INITIAL_GAP);
            }
        }
        None
    }

    /// The connected stream for `to`, establishing it if the state
    /// machine allows an attempt now.
    fn conn(&mut self, to: ProcessId) -> Option<&mut TcpStream> {
        let (attempts, was_reached) = match &self.state[to] {
            PeerState::Connected(_) => {
                // Reborrow dance: checked above, return below.
                match &mut self.state[to] {
                    PeerState::Connected(s) => return Some(s),
                    _ => unreachable!(),
                }
            }
            PeerState::Fresh => (INITIAL_ATTEMPTS, false),
            // Lost/Backoff both mean the peer was reached before: a
            // successful dial from here is a *reconnect* (first contact
            // from Fresh is not).
            PeerState::Lost => (1, true),
            PeerState::Backoff(until) => {
                if Instant::now() < *until {
                    return None;
                }
                (1, true)
            }
        };
        match self.dial(to, attempts) {
            Some(s) => {
                if was_reached {
                    if let Some(net) = &self.net {
                        net.reconnected(to);
                    }
                }
                self.state[to] = PeerState::Connected(s);
                match &mut self.state[to] {
                    PeerState::Connected(s) => Some(s),
                    _ => unreachable!(),
                }
            }
            None => {
                if let Some(net) = &self.net {
                    net.dial_failed(to);
                }
                self.state[to] = PeerState::Backoff(Instant::now() + RECONNECT_BACKOFF);
                None
            }
        }
    }

    /// Write the scratch buffer to `to`, with one reconnect-and-retry on
    /// a write error. Returns whether the bytes were handed to the OS.
    fn flush_scratch(&mut self, to: ProcessId) -> bool {
        let scratch = std::mem::take(&mut self.scratch);
        let frames = std::mem::take(&mut self.scratch_frames);
        let mut sent = false;
        for _ in 0..2 {
            let Some(s) = self.conn(to) else { break };
            let t0 = Instant::now();
            let ok = s.write_all(&scratch).is_ok();
            self.io_writes += 1;
            self.io_nanos = self
                .io_nanos
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if ok {
                sent = true;
                break;
            }
            // Broken pipe: drop the stream, allow one immediate retry.
            self.state[to] = PeerState::Lost;
        }
        if sent {
            if let Some(net) = &self.net {
                net.sent(to, frames, scratch.len() as u64);
            }
        }
        self.scratch = scratch;
        sent
    }
}

impl<M: Wire + Send> Transport<M> for TcpTransport {
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        self.scratch.clear();
        write_frame(&AnyFrame::Node(env), &mut self.scratch);
        self.scratch_frames = 1;
        if let Some(net) = &self.net {
            net.outbox_depth(to, 1);
        }
        self.flush_scratch(to);
    }

    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) -> usize {
        let sent = batch.len();
        self.scratch.clear();
        self.scratch_frames = sent as u64;
        if let Some(net) = &self.net {
            net.outbox_depth(to, self.scratch_frames);
        }
        for env in batch.drain(..) {
            write_frame(&AnyFrame::Node(env), &mut self.scratch);
        }
        self.flush_scratch(to);
        sent
    }

    fn io_stats(&self) -> (u64, u64) {
        (self.io_writes, self.io_nanos)
    }
}

/// Write halves of client connections, keyed by client id — populated by
/// [`TcpNode`] when a `Hello` frame arrives, read by the `Done`
/// forwarders of a multi-process node.
pub type ClientRegistry = Arc<Mutex<HashMap<usize, TcpStream>>>;

/// Identity and epoch a node's reader threads use to answer clock-echo
/// probes inline: the response is written straight back from the reader
/// thread, off the node loop, so an echo round trip measures the
/// network path and not the inbox backlog.
#[derive(Clone)]
pub struct EchoResponder {
    /// The answering node's id.
    pub node: u32,
    /// The process's run epoch: echo stamps are `epoch.elapsed()`.
    pub epoch: Instant,
}

/// Optional per-connection behaviors of a [`TcpNode`]'s reader threads:
/// the client registry (multi-process `Done` routing), ingress meters,
/// and the clock-echo responder.
#[derive(Clone, Default)]
pub struct NodeHooks {
    /// Populated with the write half of every connection that `Hello`s.
    pub clients: Option<ClientRegistry>,
    /// Ingress counters (bytes/frames in, decode errors, resyncs).
    pub net: Option<Arc<NetMeters>>,
    /// When set, `EchoReq` frames are answered inline.
    pub echo: Option<EchoResponder>,
}

/// The receiving side of the TCP transport: a listener plus per-connection
/// reader threads that decode frames and forward node-inbox envelopes
/// into an ordinary crossbeam channel. The node loop stays byte-blind.
pub struct TcpNode {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TcpNode {
    /// Bind `addr` and start forwarding decoded envelopes into `inbox`.
    /// `clients`, when given, is populated with the write half of every
    /// connection that announces itself with a `Hello` frame.
    pub fn bind<M, A>(
        addr: A,
        inbox: Sender<ToNode<M>>,
        clients: Option<ClientRegistry>,
    ) -> std::io::Result<TcpNode>
    where
        M: Wire + Send + 'static,
        A: ToSocketAddrs,
    {
        TcpNode::bind_with(
            addr,
            inbox,
            NodeHooks {
                clients,
                ..NodeHooks::default()
            },
        )
    }

    /// [`TcpNode::bind`] with the full hook set: client registry,
    /// ingress meters, and the clock-echo responder.
    pub fn bind_with<M, A>(
        addr: A,
        inbox: Sender<ToNode<M>>,
        hooks: NodeHooks,
    ) -> std::io::Result<TcpNode>
    where
        M: Wire + Send + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    conns
                        .lock()
                        .expect("conn list poisoned")
                        .push(stream.try_clone().expect("stream clone"));
                    let inbox = inbox.clone();
                    let hooks = hooks.clone();
                    let reader = std::thread::spawn(move || {
                        read_loop::<M>(stream, inbox, hooks);
                    });
                    readers.lock().expect("reader list poisoned").push(reader);
                }
            })
        };

        Ok(TcpNode {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            conns,
            readers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Forcibly close every accepted connection while keeping the
    /// listener alive — the "link bounce" the conformance suite uses to
    /// exercise sender reconnects.
    pub fn drop_connections(&self) {
        let mut conns = self.conns.lock().expect("conn list poisoned");
        for c in conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, close every connection, join all threads.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.drop_connections();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader list poisoned"));
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.teardown();
        }
    }
}

/// One connection's read loop: accumulate chunks, decode frames, route.
/// Exits on EOF, read error, or a poisoned frame stream.
fn read_loop<M: Wire + Send + 'static>(
    mut stream: TcpStream,
    inbox: Sender<ToNode<M>>,
    hooks: NodeHooks,
) {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut echo_buf = Vec::new();
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        if let Some(net) = &hooks.net {
            net.received(n as u64);
        }
        dec.feed(&chunk[..n]);
        loop {
            let frame = dec.next_frame::<M>();
            if let Ok(Some(_)) = &frame {
                if let Some(net) = &hooks.net {
                    net.frame_in();
                }
            }
            match frame {
                Ok(Some(AnyFrame::Node(env))) => {
                    if inbox.send(env).is_err() {
                        return; // node gone: drop the connection
                    }
                }
                Ok(Some(AnyFrame::Hello { client })) => {
                    if let (Some(reg), Ok(half)) = (&hooks.clients, stream.try_clone()) {
                        reg.lock().expect("registry poisoned").insert(client, half);
                    }
                }
                Ok(Some(AnyFrame::EchoReq { seq, t0_nanos })) => {
                    // Answer inline from the reader thread: the round
                    // trip then measures the network path, not the node
                    // loop's inbox backlog.
                    if let Some(echo) = &hooks.echo {
                        let node_nanos =
                            u64::try_from(echo.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        echo_buf.clear();
                        write_frame::<M>(
                            &AnyFrame::EchoResp {
                                seq,
                                t0_nanos,
                                node: echo.node,
                                node_nanos,
                            },
                            &mut echo_buf,
                        );
                        if stream.write_all(&echo_buf).is_err() {
                            return;
                        }
                    }
                }
                // Not node-bound frames: a node never receives these.
                Ok(Some(
                    AnyFrame::Done(_) | AnyFrame::EchoResp { .. } | AnyFrame::ObsDump { .. },
                )) => {}
                Ok(None) => break,
                // Malformed body: that frame is skipped, keep decoding.
                // Poisoned stream: frame boundary lost — drop the
                // connection (the peer will reconnect with a fresh one).
                Err(_) => {
                    if dec.is_poisoned() {
                        if let Some(net) = &hooks.net {
                            net.resync();
                        }
                        return;
                    }
                    if let Some(net) = &hooks.net {
                        net.decode_error();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver};

    /// A policy that plays back a fixed verdict per `(to, seq)` (deliver
    /// otherwise) and records every consultation.
    struct Scripted {
        fates: HashMap<(ProcessId, u64), Fate>,
        seen: Mutex<Vec<(ProcessId, ProcessId, Duration, u64)>>,
    }

    impl NetPolicy for Scripted {
        fn fate(&self, from: ProcessId, to: ProcessId, elapsed: Duration, seq: u64) -> Fate {
            self.seen
                .lock()
                .expect("seen poisoned")
                .push((from, to, elapsed, seq));
            self.fates.get(&(to, seq)).copied().unwrap_or(Fate::Deliver)
        }
    }

    const MS: Duration = Duration::from_millis(1);

    /// Node 0's fault transport over a three-node channel transport, with
    /// the given script; returns the receivers and the policy.
    #[allow(clippy::type_complexity)]
    fn rig(
        script: &[((ProcessId, u64), Fate)],
    ) -> (
        FaultTransport<()>,
        Vec<Receiver<ToNode<()>>>,
        Arc<Scripted>,
        Arc<FaultCounters>,
        Instant,
    ) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded()).unzip();
        let policy = Arc::new(Scripted {
            fates: script.iter().copied().collect(),
            seen: Mutex::new(Vec::new()),
        });
        let counters = Arc::new(FaultCounters::default());
        let epoch = Instant::now();
        let t = FaultTransport::new(
            Box::new(ChannelTransport::new(txs)),
            0,
            3,
            Arc::clone(&policy) as Arc<dyn NetPolicy>,
            epoch,
            Arc::clone(&counters),
        );
        (t, rxs, policy, counters, epoch)
    }

    fn ends(ids: &[u64]) -> Vec<ToNode<()>> {
        ids.iter().map(|&txn| ToNode::End { txn }).collect()
    }

    fn received(rx: &Receiver<ToNode<()>>) -> Vec<u64> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .map(|env| match env {
                ToNode::End { txn } => txn,
                other => panic!("unexpected envelope {other:?}"),
            })
            .collect()
    }

    #[test]
    fn deliver_drop_and_delay_each_land_where_they_should() {
        let (mut t, rxs, policy, counters, epoch) = rig(&[
            ((1, 1), Fate::Drop),
            ((1, 2), Fate::Delay(5 * MS)),
            ((2, 0), Fate::Delay(MS)),
        ]);
        let flush = epoch + 3 * MS;
        assert_eq!(t.release_due(flush), Release::default());
        assert_eq!(t.send_batch(1, &mut ends(&[10, 11, 12, 13])), 2);
        assert_eq!(t.send_batch(2, &mut ends(&[20, 21])), 1);
        assert_eq!(received(&rxs[1]), vec![10, 13], "delivered, in order");
        assert_eq!(received(&rxs[2]), vec![21]);
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(counters.delayed.load(Ordering::Relaxed), 2);
        // `seq` advances per destination; every verdict is taken at the
        // flush instant.
        let seen = policy.seen.lock().expect("seen poisoned").clone();
        let expect: Vec<_> = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]
            .into_iter()
            .map(|(to, seq)| (0, to, 3 * MS, seq))
            .collect();
        assert_eq!(seen, expect);
        // The held envelopes fall due at flush + delay.
        let next = t.release_due(flush).next_due;
        assert_eq!(next, Some(flush + MS));
    }

    #[test]
    fn delayed_envelopes_release_at_or_after_due_in_due_then_seq_order() {
        let (mut t, rxs, _, counters, epoch) = rig(&[
            ((1, 0), Fate::Delay(3 * MS)),
            ((1, 1), Fate::Delay(MS)),
            ((1, 2), Fate::Delay(3 * MS)),
        ]);
        t.release_due(epoch);
        assert_eq!(t.send_batch(1, &mut ends(&[0, 1, 2])), 0);
        assert!(received(&rxs[1]).is_empty(), "nothing before its due");

        let early = t.release_due(epoch + MS / 2);
        assert_eq!(early.sent, 0);
        assert_eq!(early.next_due, Some(epoch + MS));

        let first = t.release_due(epoch + MS);
        assert_eq!(first.sent, 1, "due exactly now is released");
        assert_eq!(first.next_due, Some(epoch + 3 * MS));
        assert_eq!(received(&rxs[1]), vec![1]);

        let rest = t.release_due(epoch + 10 * MS);
        assert_eq!(rest.sent, 2);
        assert_eq!(rest.next_due, None);
        assert_eq!(received(&rxs[1]), vec![0, 2], "equal dues leave by seq");
        assert_eq!(counters.delayed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_crash_discards_held_envelopes_but_keeps_counters_and_seq() {
        let (mut t, rxs, policy, counters, epoch) = rig(&[
            ((1, 0), Fate::Delay(MS)),
            ((1, 1), Fate::Drop),
            ((1, 2), Fate::Delay(MS)),
        ]);
        t.release_due(epoch);
        t.send_batch(1, &mut ends(&[0, 1]));
        t.crash();
        assert_eq!(t.release_due(epoch + 10 * MS), Release::default());
        assert!(received(&rxs[1]).is_empty(), "held envelopes died");
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(counters.delayed.load(Ordering::Relaxed), 1);
        // The restarted node's next envelope continues the seq stream.
        t.send_batch(1, &mut ends(&[2]));
        let last = policy.seen.lock().expect("seen poisoned").last().copied();
        assert_eq!(last.map(|(_, to, _, seq)| (to, seq)), Some((1, 2)));
        assert_eq!(t.release_due(epoch + 20 * MS).sent, 1);
        assert_eq!(received(&rxs[1]), vec![2]);
    }
}
