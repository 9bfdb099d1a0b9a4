//! The real-socket host core: everything a UDP host of [`Actor`]s does
//! that does not depend on how a node waits.
//!
//! The paper's prototype has one "RPC manager … at the socket-level"
//! under the Chord and DAT layers (§4). This module is that manager minus
//! the wait primitive: loopback socket binding and the forward + reverse
//! address books, the transport counters and their one snapshot, decode
//! classification with source attribution, the control-plane message, the
//! per-node timer heap and the step that interprets an actor's outputs.
//! `dat_rpc::RpcCluster` (one blocking thread per node) and
//! `dat_cluster::ClusterHost` (tokio tasks per node) are spawn/join glue
//! around the same loop:
//!
//! ```text
//!   loop { deadline = node.fire_due(sink);
//!          ctl = next input or closure, waiting until deadline
//!                (forever when None);
//!          if !node.step(ctl, sink) { break } }
//! ```
//!
//! The tokio host waits on an inbox its reader task fills; the threads
//! host waits on the node's socket itself and drains its control channel
//! at every wake.
//!
//! Timers never leave the node that set them, so a timer cannot race
//! ahead of the input that scheduled it.

#![deny(clippy::unwrap_used)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dat_obs::{Key, Registry};

use crate::wire::ERROR_KINDS;
use crate::{codec, Actor, Input, NodeAddr, Output, TimerKind, Upcall};

/// Number of distinct decode-failure kinds the transport classifies
/// (one counter slot per [`ERROR_KINDS`] label).
const KINDS: usize = ERROR_KINDS.len();

/// How long a host's `call` waits for the actor's answer. The control
/// plane is reliable, so this only expires when a node is wedged.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// The longest a node's socket wait lasts. A tokio reader wakes this often
/// to look at the stop flag, so it bounds how long readers outlive
/// `shutdown`. A threads-host worker never blocks on its socket longer,
/// so it also bounds how late a closure runs whose doorbell datagram was
/// lost to a full socket buffer.
pub const SOCKET_POLL: Duration = Duration::from_millis(100);

/// Transport counters for the whole cluster, as one snapshot. The shed
/// fields stay zero on a host whose channels are unbounded.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportStats {
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Datagrams received and decoded.
    pub received: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// `decode_errors` broken down by failure kind, indexed like
    /// [`ERROR_KINDS`].
    pub decode_errors_by_kind: [u64; KINDS],
    /// Inbound frames dropped because a node's inbox was full.
    pub shed_rx: u64,
    /// Outbound frames dropped because a node's outbox was full.
    pub shed_tx: u64,
    /// `recv_from` socket errors (other than the poll timeout).
    pub socket_recv_errors: u64,
    /// `send_to` socket errors.
    pub socket_send_errors: u64,
}

impl TransportStats {
    /// The per-kind decode-error tallies paired with their wire labels.
    pub fn decode_error_kinds(&self) -> [(&'static str, u64); KINDS] {
        std::array::from_fn(|i| (ERROR_KINDS[i], self.decode_errors_by_kind[i]))
    }

    /// The snapshot as an obs registry, in the one naming scheme both real
    /// hosts share, so fleet merges and dashboards never see two
    /// spellings of the same series:
    ///
    /// * `transport_datagrams_total{transport,dir="sent"|"received"}`
    /// * `transport_decode_errors_total{transport,kind}`
    /// * `transport_socket_errors_total{transport,op="recv"|"send"}`
    /// * `engine_shed_total{layer="transport_rx"|"transport_tx"}` — the
    ///   transport edge reuses the engine's shed vocabulary, so one
    ///   `counter_sum("engine_shed_total")` covers every layer that can
    ///   drop under pressure.
    ///
    /// Every series is written even when zero, so a fresh host already
    /// exposes the complete vocabulary (scrapes can alert on absence).
    pub fn registry(&self, transport: &'static str) -> Registry {
        let mut r = Registry::new();
        let by = |name: &'static str, label: &'static str, value: &'static str| {
            Key::new(name)
                .label("transport", transport)
                .label(label, value)
        };
        r.counter_add(by("transport_datagrams_total", "dir", "sent"), self.sent);
        r.counter_add(
            by("transport_datagrams_total", "dir", "received"),
            self.received,
        );
        for (kind, count) in self.decode_error_kinds() {
            r.counter_add(by("transport_decode_errors_total", "kind", kind), count);
        }
        r.counter_add(
            by("transport_socket_errors_total", "op", "recv"),
            self.socket_recv_errors,
        );
        r.counter_add(
            by("transport_socket_errors_total", "op", "send"),
            self.socket_send_errors,
        );
        let shed = |layer| Key::new("engine_shed_total").label("layer", layer);
        r.counter_add(shed("transport_rx"), self.shed_rx);
        r.counter_add(shed("transport_tx"), self.shed_tx);
        r
    }
}

#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    received: AtomicU64,
    decode_errors: AtomicU64,
    decode_errors_by_kind: [AtomicU64; KINDS],
    shed_rx: AtomicU64,
    shed_tx: AtomicU64,
    socket_recv_errors: AtomicU64,
    socket_send_errors: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What every node, reader and writer of one cluster shares: the address
/// books, the counters, the upcall log, the stop flag and the clock epoch.
pub struct Core {
    /// Logical address `NodeAddr(i)` → socket, at index `i`.
    book: Vec<SocketAddr>,
    /// Source socket → logical address, so a damaged frame can still be
    /// attributed to the peer that sent it (the payload is untrustworthy
    /// by definition; the UDP source is the best evidence available).
    sources: HashMap<SocketAddr, NodeAddr>,
    counters: Counters,
    upcalls: Mutex<Vec<(NodeAddr, Upcall)>>,
    stop: AtomicBool,
    /// One epoch for the whole cluster: every node reports the same
    /// monotonic clock to its actor, so cross-node RTT math is coherent.
    epoch: Instant,
}

impl Core {
    fn new(book: Vec<SocketAddr>) -> Core {
        Core {
            sources: (0u64..)
                .zip(&book)
                .map(|(i, &s)| (s, NodeAddr(i)))
                .collect(),
            book,
            counters: Counters::default(),
            upcalls: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }

    /// Bind one loopback UDP socket per actor and build the books.
    ///
    /// # Panics
    /// If actor `i` does not use logical address `NodeAddr(i)`.
    pub fn bind<A: Actor>(actors: &[A]) -> io::Result<(Arc<Core>, Vec<UdpSocket>)> {
        let mut sockets = Vec::with_capacity(actors.len());
        for (i, a) in actors.iter().enumerate() {
            assert_eq!(
                a.addr(),
                NodeAddr(i as u64),
                "actor {i} must use NodeAddr({i})"
            );
            sockets.push(UdpSocket::bind(("127.0.0.1", 0))?);
        }
        let book = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<io::Result<_>>()?;
        Ok((Arc::new(Core::new(book)), sockets))
    }

    /// The UDP socket address of a logical node.
    pub fn socket_addr(&self, addr: NodeAddr) -> Option<SocketAddr> {
        self.book.get(addr.0 as usize).copied()
    }

    /// Resolve a raw injection from `from`'s socket to `to`'s: the
    /// sender's index into the bound sockets and the target's address.
    pub fn raw_route(&self, from: NodeAddr, to: NodeAddr) -> io::Result<(usize, SocketAddr)> {
        let find = |addr, what| {
            self.socket_addr(addr)
                .ok_or_else(|| io::Error::new(ErrorKind::NotFound, what))
        };
        find(from, "unknown sender")?;
        Ok((from.0 as usize, find(to, "unknown target")?))
    }

    /// Decode one datagram, count it, and turn it into the input its node
    /// sees. Every frame passes the full decode (magic, version,
    /// structure, CRC32C trailer); a failure is classified by kind and
    /// becomes [`Input::BadFrame`] attributed through the reverse book,
    /// so the engine's per-peer scoring and quarantine pipeline runs over
    /// real UDP exactly as it does in the simulator.
    pub fn classify(&self, bytes: &[u8], peer: SocketAddr) -> Input {
        match codec::decode(bytes) {
            Ok(msg) => {
                bump(&self.counters.received);
                // `from` is carried inside the message where needed; the
                // transport-level sender is unknown here, pass a sentinel.
                Input::Message {
                    from: NodeAddr(u64::MAX),
                    msg,
                }
            }
            Err(error) => {
                bump(&self.counters.decode_errors);
                bump(&self.counters.decode_errors_by_kind[error.kind_index()]);
                Input::BadFrame {
                    from: self.sources.get(&peer).copied(),
                    error,
                }
            }
        }
    }

    /// The input one `recv_from` outcome on `buf` becomes: the classified
    /// datagram, nothing for a poll timeout, and nothing but a counted
    /// error otherwise — a receive error never stops a node's socket
    /// loop.
    pub fn on_recv(&self, outcome: io::Result<(usize, SocketAddr)>, buf: &[u8]) -> Option<Input> {
        match outcome {
            Ok((len, peer)) => Some(self.classify(&buf[..len], peer)),
            Err(e) if [ErrorKind::WouldBlock, ErrorKind::TimedOut].contains(&e.kind()) => None,
            Err(_) => {
                bump(&self.counters.socket_recv_errors);
                None
            }
        }
    }

    /// Count one `send_to` outcome.
    pub fn on_send(&self, outcome: io::Result<usize>) {
        bump(match outcome {
            Ok(_) => &self.counters.sent,
            Err(_) => &self.counters.socket_send_errors,
        });
    }

    /// Count an inbound frame dropped at a full inbox.
    pub fn shed_rx(&self) {
        bump(&self.counters.shed_rx);
    }

    /// Count an outbound frame dropped at a full outbox.
    pub fn shed_tx(&self) {
        bump(&self.counters.shed_tx);
    }

    /// Transport counters.
    pub fn stats(&self) -> TransportStats {
        let c = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TransportStats {
            sent: load(&c.sent),
            received: load(&c.received),
            decode_errors: load(&c.decode_errors),
            decode_errors_by_kind: std::array::from_fn(|i| load(&c.decode_errors_by_kind[i])),
            shed_rx: load(&c.shed_rx),
            shed_tx: load(&c.shed_tx),
            socket_recv_errors: load(&c.socket_recv_errors),
            socket_send_errors: load(&c.socket_send_errors),
        }
    }

    /// Drain the recorded upcalls of every node.
    pub fn drain_upcalls(&self) -> Vec<(NodeAddr, Upcall)> {
        std::mem::take(&mut *self.upcalls.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Raise the stop flag the tokio host's readers poll.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Core::stop`] ran.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

type WithFn<A> = Box<dyn FnOnce(&mut A) -> Vec<Output> + Send>;

/// One item a node steps: a classified datagram, or the control plane's
/// closures and stop marker, which travel one channel per node in order.
/// On the tokio host the datagrams share that queue; the threads host
/// steps them straight off the socket.
pub enum Control<A> {
    /// A classified datagram.
    Input(Input),
    /// Run a closure against the actor; its outputs are interpreted like
    /// any other.
    With(WithFn<A>),
    /// Everything queued before this marker has been handled: return the
    /// actor.
    Stop,
}

impl<A> Control<A> {
    /// A fire-and-forget closure.
    pub fn cast(f: impl FnOnce(&mut A) -> Vec<Output> + Send + 'static) -> Self {
        Control::With(Box::new(f))
    }

    /// A closure whose first return value travels back on the returned
    /// channel; wait on it for [`CALL_TIMEOUT`].
    pub fn call<R: Send + 'static>(
        f: impl FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    ) -> (Self, mpsc::Receiver<R>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let ctl = Control::cast(move |a| {
            let (r, outs) = f(a);
            let _ = tx.send(r);
            outs
        });
        (ctl, rx)
    }
}

/// One hosted actor with its private timer heap.
pub struct Node<A: Actor> {
    actor: A,
    addr: NodeAddr,
    core: Arc<Core>,
    /// Min-heap by `(deadline, set order)`; the kind never decides.
    timers: BinaryHeap<Reverse<(Instant, u64, TimerKind)>>,
    seq: u64,
}

impl<A: Actor> Node<A> {
    /// Host `actor` inside `core`'s cluster.
    pub fn new(actor: A, core: Arc<Core>) -> Self {
        Node {
            addr: actor.addr(),
            actor,
            core,
            timers: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Fire every timer that is due, then return the next deadline:
    /// how long the caller may wait for its next input. `None` means forever.
    pub fn fire_due(&mut self, sink: &mut impl FnMut(Vec<u8>, SocketAddr)) -> Option<Instant> {
        loop {
            let &Reverse((deadline, _, kind)) = self.timers.peek()?;
            if deadline > Instant::now() {
                return Some(deadline);
            }
            self.timers.pop();
            self.step(Control::Input(Input::Timer(kind)), &mut *sink);
        }
    }

    /// Handle one inbox item: advance the actor's clock from the shared
    /// epoch, run it, then interpret the outputs — frames are encoded and
    /// handed to `sink` with their destination socket, timers go on the
    /// private heap, upcalls into the cluster's log. `false` on
    /// [`Control::Stop`].
    pub fn step(&mut self, ctl: Control<A>, sink: &mut impl FnMut(Vec<u8>, SocketAddr)) -> bool {
        self.actor
            .set_now(self.core.epoch.elapsed().as_millis() as u64);
        let outs = match ctl {
            Control::Input(input) => self.actor.on_input(input),
            Control::With(f) => f(&mut self.actor),
            Control::Stop => return false,
        };
        for o in outs {
            match o {
                Output::Send { to, msg } => {
                    if let Some(peer) = self.core.socket_addr(to.addr) {
                        sink(codec::encode(&msg), peer);
                    }
                }
                Output::SetTimer { kind, delay_ms } => {
                    let deadline = Instant::now() + Duration::from_millis(delay_ms);
                    self.timers.push(Reverse((deadline, self.seq, kind)));
                    self.seq += 1;
                }
                Output::Upcall(u) => self
                    .core
                    .upcalls
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((self.addr, u)),
            }
        }
        true
    }

    /// Give the actor back.
    pub fn into_actor(self) -> A {
        self.actor
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{ChordMsg, Id, NodeRef};

    #[test]
    fn zero_snapshot_exposes_the_full_vocabulary() {
        let reg = TransportStats::default().registry("test");
        assert_eq!(reg.counter_sum("transport_datagrams_total"), 0);
        assert_eq!(reg.counter_sum("transport_decode_errors_total"), 0);
        assert_eq!(reg.counter_sum("transport_socket_errors_total"), 0);
        assert_eq!(reg.counter_sum("engine_shed_total"), 0);
        let text = reg.render_prometheus();
        let samples = dat_obs::validate_prometheus(&text).expect("parses");
        assert_eq!(
            samples,
            6 + KINDS,
            "2 dirs + 2 ops + 2 shed layers + every kind"
        );
    }

    #[test]
    fn counts_land_on_the_right_series() {
        let mut decode_errors_by_kind = [0; KINDS];
        decode_errors_by_kind[0] = 2;
        let reg = TransportStats {
            sent: 5,
            received: 3,
            decode_errors: 2,
            decode_errors_by_kind,
            shed_rx: 7,
            shed_tx: 1,
            socket_recv_errors: 4,
            socket_send_errors: 6,
        }
        .registry("test");
        assert_eq!(reg.counter_with("transport_datagrams_total", "sent"), 5);
        assert_eq!(reg.counter_with("transport_datagrams_total", "received"), 3);
        assert_eq!(
            reg.counter_with("transport_decode_errors_total", ERROR_KINDS[0]),
            2
        );
        assert_eq!(reg.counter_sum("transport_decode_errors_total"), 2);
        assert_eq!(reg.counter_with("engine_shed_total", "transport_rx"), 7);
        assert_eq!(reg.counter_with("engine_shed_total", "transport_tx"), 1);
        assert_eq!(reg.counter_with("transport_socket_errors_total", "recv"), 4);
        assert_eq!(reg.counter_with("transport_socket_errors_total", "send"), 6);
    }

    fn sock(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn ping() -> ChordMsg {
        ChordMsg::Ping {
            req: 7,
            sender: NodeRef::new(Id(42), NodeAddr(1)),
        }
    }

    #[test]
    fn damaged_datagrams_are_classified_counted_and_attributed() {
        let core = Core::new(vec![sock(9000), sock(9001)]);
        let valid = codec::encode(&ping());
        let mut wrong_version = valid.clone();
        wrong_version[1] = 0x7F;
        let mut flipped = valid.clone();
        let body_end = flipped.len() - codec::CRC_TRAILER;
        flipped[body_end - 1] ^= 0x01;

        // One intact control: a clean frame must still arrive as a Message.
        assert!(matches!(
            core.classify(&valid, sock(9001)),
            Input::Message { msg, .. } if msg == ping()
        ));
        // One damaged frame per failure class the decode pipeline
        // distinguishes at these offsets, all from node 1's socket, and
        // one from a socket the cluster has never heard of: still counted
        // and forwarded, but with no attribution.
        let cases: [(&[u8], u16, &str); 5] = [
            (&valid[..1], 9001, "truncated"),
            (b"not a chord frame", 9001, "bad_magic"),
            (&wrong_version, 9001, "bad_version"),
            (&flipped, 9001, "bad_checksum"),
            (b"zzzz", 4444, "bad_magic"),
        ];
        for (bytes, port, kind) in cases {
            let want_from = (port == 9001).then_some(NodeAddr(1));
            match core.classify(bytes, sock(port)) {
                Input::BadFrame { from, error } => {
                    assert_eq!((from, error.kind_label()), (want_from, kind));
                }
                other => panic!("{kind}: expected BadFrame, got {other:?}"),
            }
        }

        let stats = core.stats();
        assert_eq!(stats.received, 1);
        assert_eq!(stats.decode_errors, 5);
        let kinds: HashMap<&str, u64> = stats.decode_error_kinds().into_iter().collect();
        assert_eq!(kinds["truncated"], 1);
        assert_eq!(kinds["bad_magic"], 2);
        assert_eq!(kinds["bad_version"], 1);
        assert_eq!(kinds["bad_checksum"], 1);
        assert_eq!(kinds["bad_tag"], 0);
        assert_eq!(stats.decode_errors_by_kind.iter().sum::<u64>(), 5);
    }

    #[test]
    fn receive_errors_are_counted_and_never_forwarded() {
        let core = Core::new(vec![sock(9000)]);
        let err = |kind| Err(io::Error::from(kind));
        assert!(core.on_recv(err(ErrorKind::WouldBlock), &[]).is_none());
        assert!(core.on_recv(err(ErrorKind::TimedOut), &[]).is_none());
        assert_eq!(core.stats().socket_recv_errors, 0, "a poll timeout");
        assert!(core
            .on_recv(err(ErrorKind::ConnectionRefused), &[])
            .is_none());
        assert_eq!(core.stats().socket_recv_errors, 1);
        let frame = codec::encode(&ping());
        assert!(core
            .on_recv(Ok((frame.len(), sock(9000))), &frame)
            .is_some());
        core.on_send(Ok(frame.len()));
        core.on_send(Err(ErrorKind::PermissionDenied.into()));
        let stats = core.stats();
        assert_eq!((stats.received, stats.sent), (1, 1));
        assert_eq!(stats.socket_send_errors, 1);
    }

    #[test]
    fn registry_speaks_the_shared_transport_vocabulary() {
        let core = Core::new(vec![sock(9000)]);
        core.on_send(Ok(1));
        core.shed_rx();
        core.shed_tx();
        let reg = core.stats().registry("test");
        let text = reg.render_prometheus();
        let samples = dat_obs::validate_prometheus(&text).expect("well-formed exposition");
        // 2 dirs + 8 decode kinds + 2 socket ops + 2 shed layers.
        assert_eq!(samples, 14, "full vocabulary even at zero:\n{text}");
        assert_eq!(reg.counter_with("transport_datagrams_total", "sent"), 1);
        assert_eq!(reg.counter_with("engine_shed_total", "transport_rx"), 1);
        assert_eq!(reg.counter_with("engine_shed_total", "transport_tx"), 1);
        assert_eq!(reg.counter_sum("transport_decode_errors_total"), 0);
        assert_eq!(reg.counter_sum("transport_socket_errors_total"), 0);
        assert!(text.contains("transport=\"test\""));
    }

    /// Logs the timers it is handed; outputs come in through closures.
    struct TimerLog {
        addr: NodeAddr,
        fired: Vec<TimerKind>,
    }

    impl Actor for TimerLog {
        fn addr(&self) -> NodeAddr {
            self.addr
        }
        fn on_input(&mut self, input: Input) -> Vec<Output> {
            if let Input::Timer(kind) = input {
                self.fired.push(kind);
            }
            vec![]
        }
    }

    fn timer_log(addr: u64) -> TimerLog {
        TimerLog {
            addr: NodeAddr(addr),
            fired: vec![],
        }
    }

    #[test]
    #[should_panic(expected = "must use NodeAddr")]
    fn bind_validates_addresses() {
        let _ = Core::bind(&[timer_log(7)]);
    }

    #[test]
    fn step_routes_outputs_and_timers_fire_in_deadline_then_set_order() {
        let core = Arc::new(Core::new(vec![sock(9000), sock(9001)]));
        let mut node = Node::new(timer_log(0), Arc::clone(&core));
        let mut frames = Vec::new();
        let mut sink = |frame: Vec<u8>, peer: SocketAddr| frames.push((frame, peer));
        assert_eq!(node.fire_due(&mut sink), None, "no timers: wait forever");

        let timer = |kind, delay_ms| Output::SetTimer { kind, delay_ms };
        let send_to = |addr| Output::Send {
            to: NodeRef::new(Id(9), NodeAddr(addr)),
            msg: ping(),
        };
        let outs = vec![
            timer(TimerKind::App(3), 60_000),
            timer(TimerKind::App(1), 0),
            timer(TimerKind::App(2), 0),
            send_to(1),
            send_to(5), // not in the book
            Output::Upcall(Upcall::JoinFailed),
        ];
        assert!(node.step(Control::cast(move |_| outs), &mut sink));
        let (ctl, reply) = Control::call(|a: &mut TimerLog| (a.addr, vec![]));
        assert!(node.step(ctl, &mut sink));
        assert_eq!(reply.try_recv().ok(), Some(NodeAddr(0)));

        let before = Instant::now();
        let next = node.fire_due(&mut sink).expect("the 60 s timer is pending");
        assert!(next > before + Duration::from_secs(50));
        assert!(!node.step(Control::Stop, &mut sink));
        assert_eq!(
            node.into_actor().fired,
            vec![TimerKind::App(1), TimerKind::App(2)],
            "due timers fire in (deadline, set order); the far one waits"
        );
        assert_eq!(
            frames,
            vec![(codec::encode(&ping()), sock(9001))],
            "one frame for the peer in the book, none for the unknown one"
        );
        assert_eq!(
            core.drain_upcalls(),
            vec![(NodeAddr(0), Upcall::JoinFailed)]
        );
        assert!(core.drain_upcalls().is_empty());
    }
}
