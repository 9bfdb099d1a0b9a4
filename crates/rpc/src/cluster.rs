//! Multi-node UDP runtime hosting sans-io protocol nodes, one blocking
//! thread per node.
//!
//! Each node gets a real `UdpSocket` on the loopback interface and one
//! worker thread that owns it and runs the [`dat_chord::host`] loop with
//! the socket as its only wait:
//!
//! ```text
//!   loop { drain the control channel (try_recv), stepping each item;
//!          deadline = node.fire_due(sink);
//!          recv_from under a read timeout of min(deadline - now, SOCKET_POLL);
//!          step the classified datagram }
//! ```
//!
//! A datagram costs one thread wake-up: the thread that waits on the
//! socket is the one that runs the actor. The control plane (`cast`,
//! `call`, the `Stop` of `shutdown`) is one channel per node, so closures
//! keep their order; after each push the cluster rings the node's
//! doorbell, a zero-length datagram from a socket the cluster owns, which
//! the worker recognises by its source address and drops before
//! [`Core::on_recv`] — it never reaches the decoder or the transport
//! counters. A doorbell lost to a full socket buffer only delays the
//! closure to the next wake, at most [`SOCKET_POLL`] later.
//!
//! This is the Rust analogue of the paper's RPC manager (§4) — the
//! prototype ran "up to 64 DAT instances on each machine to create a
//! network of 512 nodes"; we run the instances in one process with one
//! socket each, which exercises the identical code path (real datagrams,
//! real loss possible, real wall-clock timers).

use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dat_chord::host::{Control, Core, Node, TransportStats, CALL_TIMEOUT, SOCKET_POLL};
use dat_chord::{Actor, NodeAddr, Output, Upcall};

use crate::codec;

/// [`RpcCluster`] has nothing to configure. The type and
/// [`RpcCluster::launch_with`] remain only because
/// `benchmark/src/udp_query.rs` names them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterConfig;

/// A running cluster of UDP-backed protocol nodes.
pub struct RpcCluster<A: Actor> {
    core: Arc<Core>,
    sockets: Vec<UdpSocket>,
    inboxes: Vec<Sender<Control<A>>>,
    /// Sends every doorbell; its address tells a worker that a datagram
    /// is one.
    bell: UdpSocket,
    workers: Vec<JoinHandle<A>>,
}

impl<A: Actor> RpcCluster<A> {
    /// Bind sockets and spawn the runtime for `actors`. Actor `i` must
    /// have logical address `NodeAddr(i)`.
    pub fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        let (core, sockets) = Core::bind(&actors)?;
        let bell = UdpSocket::bind(("127.0.0.1", 0))?;
        bell.set_nonblocking(true)?;
        let bell_addr = bell.local_addr()?;
        let mut inboxes = Vec::with_capacity(actors.len());
        let mut workers = Vec::with_capacity(actors.len());
        for (actor, sock) in actors.into_iter().zip(&sockets) {
            let (tx, rx) = channel::<Control<A>>();
            inboxes.push(tx);
            sock.set_read_timeout(Some(SOCKET_POLL))?;
            let node = Node::new(actor, Arc::clone(&core));
            let shared = Arc::clone(&core);
            let sock = sock.try_clone()?;
            let buf = vec![0u8; codec::MAX_FRAME];
            workers.push(std::thread::spawn(move || {
                serve(node, &shared, &sock, &rx, bell_addr, buf)
            }));
        }
        Ok(RpcCluster {
            core,
            sockets,
            inboxes,
            bell,
            workers,
        })
    }

    /// [`RpcCluster::launch`]; see [`ClusterConfig`].
    pub fn launch_with(actors: Vec<A>, _cfg: ClusterConfig) -> std::io::Result<Self> {
        Self::launch(actors)
    }

    /// The UDP socket address of a logical node.
    pub fn socket_addr(&self, addr: NodeAddr) -> Option<SocketAddr> {
        self.core.socket_addr(addr)
    }

    /// Send raw bytes from `from`'s socket to `to`'s socket, bypassing the
    /// codec entirely — a byte-level fault-injection hook for hostile-wire
    /// tests. The target node attributes whatever arrives to `from` via the
    /// source address, exactly as it would a genuinely corrupted datagram.
    pub fn send_raw(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> std::io::Result<()> {
        let (i, peer) = self.core.raw_route(from, to)?;
        self.sockets[i].send_to(bytes, peer).map(|_| ())
    }

    /// Run `f` against the actor at `addr` asynchronously; its outputs are
    /// processed on the worker thread.
    pub fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static,
    {
        self.post(addr, Control::cast(f));
    }

    /// Run `f` against the actor at `addr` and wait for its return value.
    pub fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        let (ctl, reply) = Control::call(f);
        if !self.post(addr, ctl) {
            return None;
        }
        reply.recv_timeout(CALL_TIMEOUT).ok()
    }

    /// Queue `ctl` on `addr`'s control channel and ring its doorbell.
    /// `false` if there is no such node.
    fn post(&self, addr: NodeAddr, ctl: Control<A>) -> bool {
        let (Some(tx), Some(peer)) = (
            self.inboxes.get(addr.0 as usize),
            self.core.socket_addr(addr),
        ) else {
            return false;
        };
        let _ = tx.send(ctl);
        // Lost or refused, the wake still comes within one SOCKET_POLL.
        let _ = self.bell.send_to(&[], peer);
        true
    }

    /// Drain the recorded upcalls of every node.
    pub fn drain_upcalls(&self) -> Vec<(NodeAddr, Upcall)> {
        self.core.drain_upcalls()
    }

    /// Transport counters. The shed fields are zero: a datagram waits in
    /// its node's socket buffer, not in a queue of this host's, so
    /// nothing sheds here.
    pub fn stats(&self) -> TransportStats {
        self.core.stats()
    }

    /// Transport-level metrics as an obs registry, in the shared
    /// [`TransportStats::registry`] vocabulary (`transport="threads"`).
    pub fn transport_registry(&self) -> dat_obs::Registry {
        self.stats().registry("threads")
    }

    /// Teardown shared by `shutdown` and `Drop`: a stop marker down
    /// every control channel, behind any queued work, then join the
    /// workers, collecting the actors. Idempotent — once the workers are
    /// joined, `workers` is empty and a second run posts nothing.
    fn stop_all(&mut self) -> Vec<A> {
        for i in 0..self.workers.len() {
            self.post(NodeAddr(i as u64), Control::Stop);
        }
        self.workers
            .drain(..)
            .filter_map(|w| w.join().ok())
            .collect()
    }

    /// Stop every thread and return the actors, in address order.
    pub fn shutdown(mut self) -> Vec<A> {
        self.stop_all()
    }
}

/// One node's thread: the loop in the module docs, until a
/// [`Control::Stop`]. Returns the actor.
fn serve<A: Actor>(
    mut node: Node<A>,
    core: &Core,
    sock: &UdpSocket,
    rx: &Receiver<Control<A>>,
    bell: SocketAddr,
    mut buf: Vec<u8>,
) -> A {
    let mut sink = |frame: Vec<u8>, peer: SocketAddr| core.on_send(sock.send_to(&frame, peer));
    // The read timeout the socket has now; `launch` set it.
    let mut timeout = SOCKET_POLL;
    loop {
        loop {
            let ctl = match rx.try_recv() {
                Ok(ctl) => ctl,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => Control::Stop,
            };
            if !node.step(ctl, &mut sink) {
                return node.into_actor();
            }
        }
        let wait = wait_for(node.fire_due(&mut sink));
        if wait.is_zero() {
            continue;
        }
        if wait != timeout {
            // Only a zero timeout is refused, and that never gets here.
            let _ = sock.set_read_timeout(Some(wait));
            timeout = wait;
        }
        let outcome = sock.recv_from(&mut buf);
        if matches!(outcome, Ok((_, from)) if from == bell) {
            continue;
        }
        if let Some(input) = core.on_recv(outcome, &buf) {
            node.step(Control::Input(input), &mut sink);
        }
    }
}

/// How long a worker may block on its socket: until `deadline`, never
/// longer than [`SOCKET_POLL`]. The wait is rounded up to whole
/// milliseconds, the unit timers are set in, so it repeats from one wait
/// to the next and the socket option is rarely rewritten; a timer fires
/// at most a millisecond late for it.
fn wait_for(deadline: Option<Instant>) -> Duration {
    deadline.map_or(SOCKET_POLL, |due| {
        let left = due
            .saturating_duration_since(Instant::now())
            .min(SOCKET_POLL);
        // At most SOCKET_POLL's whole 100 ms: the cast cannot truncate.
        Duration::from_millis(left.as_nanos().div_ceil(1_000_000) as u64)
    })
}

impl<A: Actor> Drop for RpcCluster<A> {
    /// Dropping an un-shutdown cluster must not leak threads: run the
    /// same teardown, discarding the actors.
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordConfig, ChordMsg, ChordNode, Id, IdSpace, Input, NodeRef, TimerKind};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn fast_cfg() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(32),
            stabilize_ms: 50,
            fix_fingers_ms: 30,
            check_pred_ms: 100,
            req_timeout_ms: 400,
            ..ChordConfig::default()
        }
    }

    #[test]
    fn two_nodes_join_over_real_udp() {
        let a = ChordNode::new(fast_cfg(), Id(1_000), NodeAddr(0));
        let b = ChordNode::new(fast_cfg(), Id(2_000_000), NodeAddr(1));
        let cluster = RpcCluster::launch(vec![a, b]).unwrap();
        let bootstrap = cluster
            .call(NodeAddr(0), |n| (n.me(), n.start_create()))
            .unwrap();
        cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
        // Wait for convergence (real time).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ok = false;
        while Instant::now() < deadline && !ok {
            std::thread::sleep(Duration::from_millis(100));
            let links = |addr| {
                cluster.call(addr, |n: &mut ChordNode| {
                    let t = n.table();
                    let ids = (t.successor().map(|s| s.id), t.predecessor().map(|s| s.id));
                    (ids, vec![])
                })
            };
            ok = links(NodeAddr(0)) == Some((Some(Id(2_000_000)), Some(Id(2_000_000))))
                && links(NodeAddr(1)).is_some_and(|(succ, _)| succ == Some(Id(1_000)));
        }
        let ups = cluster.drain_upcalls();
        let stats = cluster.stats();
        let text = cluster.transport_registry().render_prometheus();
        let actors = cluster.shutdown();
        assert!(ok, "ring did not converge over UDP");
        assert_eq!(actors.len(), 2);
        assert!(ups
            .iter()
            .any(|(at, u)| *at == NodeAddr(0)
                && matches!(u, Upcall::Joined { id } if *id == Id(1_000))));
        assert!(stats.sent > 0 && stats.received > 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.shed_rx + stats.shed_tx, 0);
        assert!(text.contains("transport=\"threads\""));
    }

    /// Records every `BadFrame` it is handed.
    struct Recorder {
        addr: NodeAddr,
        bad: Vec<(Option<NodeAddr>, &'static str)>,
    }

    impl Actor for Recorder {
        fn addr(&self) -> NodeAddr {
            self.addr
        }
        fn on_input(&mut self, input: Input) -> Vec<Output> {
            if let Input::BadFrame { from, error } = input {
                self.bad.push((from, error.kind_label()));
            }
            vec![]
        }
    }

    #[test]
    fn raw_garbage_reaches_the_actor_as_an_attributed_bad_frame() {
        let recorder = |i| Recorder {
            addr: NodeAddr(i),
            bad: Vec::new(),
        };
        let cluster = RpcCluster::launch(vec![recorder(0), recorder(1)]).unwrap();
        cluster
            .send_raw(NodeAddr(1), NodeAddr(0), b"not a chord frame")
            .unwrap();
        assert!(cluster.send_raw(NodeAddr(9), NodeAddr(0), b"x").is_err());
        assert!(cluster.send_raw(NodeAddr(1), NodeAddr(9), b"x").is_err());
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = Vec::new();
        while Instant::now() < deadline && seen.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
            seen = cluster
                .call(NodeAddr(0), |a| (a.bad.clone(), vec![]))
                .unwrap();
        }
        let stats = cluster.stats();
        cluster.shutdown();
        assert_eq!(seen, vec![(Some(NodeAddr(1)), "bad_magic")]);
        assert_eq!((stats.received, stats.decode_errors), (0, 1));
    }

    #[test]
    fn drop_without_shutdown_joins_every_thread() {
        let a = ChordNode::new(fast_cfg(), Id(1_000), NodeAddr(0));
        let b = ChordNode::new(fast_cfg(), Id(2_000_000), NodeAddr(1));
        let cluster = RpcCluster::launch(vec![a, b]).unwrap();
        cluster.cast(NodeAddr(0), |n| n.start_create());
        std::thread::sleep(Duration::from_millis(100));
        // The core is cloned into every worker thread; once Drop has
        // joined them all, ours is the last strong reference.
        let weak = Arc::downgrade(&cluster.core);
        drop(cluster);
        assert!(
            weak.upgrade().is_none(),
            "Drop must join every worker thread, not leak it"
        );
    }

    /// Counts the datagrams it is handed and logs when its timers fire.
    struct Tally {
        addr: NodeAddr,
        datagrams: u64,
        fired: Vec<Instant>,
    }

    impl Actor for Tally {
        fn addr(&self) -> NodeAddr {
            self.addr
        }
        fn on_input(&mut self, input: Input) -> Vec<Output> {
            match input {
                Input::Timer(_) => self.fired.push(Instant::now()),
                _ => self.datagrams += 1,
            }
            vec![]
        }
    }

    fn tally_pair() -> RpcCluster<Tally> {
        let tally = |i| Tally {
            addr: NodeAddr(i),
            datagrams: 0,
            fired: Vec::new(),
        };
        RpcCluster::launch(vec![tally(0), tally(1)]).unwrap()
    }

    fn ping_frame() -> Vec<u8> {
        codec::encode(&ChordMsg::Ping {
            req: 1,
            sender: NodeRef::new(Id(1), NodeAddr(1)),
        })
    }

    #[test]
    fn a_timer_fires_on_time_while_datagrams_keep_arriving() {
        let cluster = tally_pair();
        let frame = ping_frame();
        let set = Instant::now();
        cluster.cast(NodeAddr(0), |_| {
            vec![Output::SetTimer {
                kind: TimerKind::App(1),
                delay_ms: 50,
            }]
        });
        // A datagram every 5 ms from node 1 to node 0, past the deadline:
        // each wakes the worker, and none may push the timer back.
        while set.elapsed() < Duration::from_millis(120) {
            cluster.send_raw(NodeAddr(1), NodeAddr(0), &frame).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let (fired, datagrams) = cluster
            .call(NodeAddr(0), |a| ((a.fired.clone(), a.datagrams), vec![]))
            .unwrap();
        cluster.shutdown();
        assert!(datagrams >= 10, "only {datagrams} datagrams arrived");
        assert_eq!(fired.len(), 1);
        let late = fired[0] - set;
        assert!(
            (Duration::from_millis(50)..=Duration::from_millis(80)).contains(&late),
            "a 50 ms timer fired after {late:?}"
        );
    }

    #[test]
    fn calls_answer_while_a_peer_floods_the_node() {
        let cluster = tally_pair();
        let frame = ping_frame();
        let flooding = AtomicBool::new(true);
        let datagrams = std::thread::scope(|s| {
            s.spawn(|| {
                // Bounded, so a wedged worker fails the calls, not the box.
                for _ in 0..1_000_000 {
                    if !flooding.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = cluster.send_raw(NodeAddr(1), NodeAddr(0), &frame);
                }
            });
            let mut seen = 0;
            for _ in 0..20 {
                // `call` gives up after CALL_TIMEOUT.
                seen = cluster
                    .call(NodeAddr(0), |a| (a.datagrams, vec![]))
                    .expect("a call went unanswered under the flood");
                std::thread::sleep(Duration::from_millis(10));
            }
            flooding.store(false, Ordering::Relaxed);
            seen
        });
        let stats = cluster.stats();
        cluster.shutdown();
        assert!(datagrams > 100, "the flood never reached node 0");
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn doorbells_never_reach_the_transport_counters() {
        let cluster = tally_pair();
        for _ in 0..50 {
            cluster.cast(NodeAddr(0), |_| vec![]);
        }
        let datagrams = cluster.call(NodeAddr(0), |a| (a.datagrams, vec![]));
        let stats = cluster.stats();
        cluster.shutdown();
        assert_eq!(datagrams, Some(0));
        assert_eq!((stats.received, stats.decode_errors), (0, 0));
    }

    #[test]
    fn the_wait_ends_at_the_deadline_in_whole_milliseconds() {
        assert_eq!(wait_for(None), SOCKET_POLL);
        let now = Instant::now();
        assert_eq!(wait_for(Some(now)), Duration::ZERO, "due: no wait");
        assert_eq!(wait_for(Some(now + Duration::from_secs(5))), SOCKET_POLL);
        let soon = wait_for(Some(now + Duration::from_micros(2_500)));
        assert!(soon <= Duration::from_millis(3) && !soon.is_zero());
        assert_eq!(soon.subsec_nanos() % 1_000_000, 0, "{soon:?}");
    }
}
