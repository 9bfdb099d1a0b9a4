//! Multi-node UDP runtime hosting sans-io protocol nodes, one blocking
//! thread pair per node.
//!
//! Each node gets a real `UdpSocket` on the loopback interface, a
//! receiver thread that classifies inbound datagrams into the node's
//! inbox, and a worker thread that runs the [`dat_chord::host`] loop on a
//! blocking channel: fire due timers, wait on the inbox until the next
//! deadline, step. This is the Rust analogue of the paper's RPC manager
//! (§4) — the prototype ran "up to 64 DAT instances on each machine to
//! create a network of 512 nodes"; we run the instances in one process
//! with one socket each, which exercises the identical code path (real
//! datagrams, real loss possible, real wall-clock timers).

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
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
    workers: Vec<JoinHandle<A>>,
    receivers: Vec<JoinHandle<()>>,
}

impl<A: Actor> RpcCluster<A> {
    /// Bind sockets and spawn the runtime for `actors`. Actor `i` must
    /// have logical address `NodeAddr(i)`.
    pub fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        let (core, sockets) = Core::bind(&actors)?;
        let mut inboxes = Vec::with_capacity(actors.len());
        let mut workers = Vec::with_capacity(actors.len());
        let mut receivers = Vec::with_capacity(actors.len());
        for (actor, sock) in actors.into_iter().zip(&sockets) {
            let (tx, rx) = unbounded::<Control<A>>();
            inboxes.push(tx.clone());

            sock.set_read_timeout(Some(SOCKET_POLL))?;
            let sock_recv = sock.try_clone()?;
            let shared = Arc::clone(&core);
            receivers.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; codec::MAX_FRAME];
                while !shared.stopped() {
                    let outcome = sock_recv.recv_from(&mut buf);
                    if let Some(input) = shared.on_recv(outcome, &buf) {
                        let _ = tx.send(Control::Input(input));
                    }
                }
            }));

            let sock_send = sock.try_clone()?;
            let shared = Arc::clone(&core);
            let mut node = Node::new(actor, Arc::clone(&core));
            workers.push(std::thread::spawn(move || {
                let mut sink = |frame: Vec<u8>, peer: SocketAddr| {
                    shared.on_send(sock_send.send_to(&frame, peer));
                };
                loop {
                    let ctl = match node.fire_due(&mut sink) {
                        None => rx.recv().ok(),
                        Some(deadline) => {
                            match rx
                                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                            {
                                Ok(ctl) => Some(ctl),
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => None,
                            }
                        }
                    };
                    if !ctl.is_some_and(|ctl| node.step(ctl, &mut sink)) {
                        break node.into_actor();
                    }
                }
            }));
        }
        Ok(RpcCluster {
            core,
            sockets,
            inboxes,
            workers,
            receivers,
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
    /// tests. The receiver attributes whatever arrives to `from` via the
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
        if let Some(tx) = self.inboxes.get(addr.0 as usize) {
            let _ = tx.send(Control::cast(f));
        }
    }

    /// Run `f` against the actor at `addr` and wait for its return value.
    pub fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        let (ctl, reply) = Control::call(f);
        let _ = self.inboxes.get(addr.0 as usize)?.send(ctl);
        reply.recv_timeout(CALL_TIMEOUT).ok()
    }

    /// Drain the recorded upcalls of every node.
    pub fn drain_upcalls(&self) -> Vec<(NodeAddr, Upcall)> {
        self.core.drain_upcalls()
    }

    /// Transport counters. The shed fields are zero: this host's channels
    /// are unbounded, so nothing sheds here.
    pub fn stats(&self) -> TransportStats {
        self.core.stats()
    }

    /// Transport-level metrics as an obs registry, in the shared
    /// [`TransportStats::registry`] vocabulary (`transport="threads"`).
    pub fn transport_registry(&self) -> dat_obs::Registry {
        self.stats().registry("threads")
    }

    /// Teardown shared by `shutdown` and `Drop`: stop markers on the
    /// control plane, raise the flag, join workers (collecting actors),
    /// then receivers (each within one [`SOCKET_POLL`]). Idempotent —
    /// the second run finds nothing left to stop.
    fn stop_all(&mut self) -> Vec<A> {
        for tx in &self.inboxes {
            let _ = tx.send(Control::Stop);
        }
        self.core.stop();
        let actors = self
            .workers
            .drain(..)
            .filter_map(|w| w.join().ok())
            .collect();
        for r in self.receivers.drain(..) {
            let _ = r.join();
        }
        actors
    }

    /// Stop every thread and return the actors, in address order.
    pub fn shutdown(mut self) -> Vec<A> {
        self.stop_all()
    }
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
    use dat_chord::{ChordConfig, ChordNode, Id, IdSpace, Input};
    use std::time::Duration;

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
        // The core is cloned into every worker and receiver thread; once
        // Drop has joined them all, ours is the last strong reference.
        let weak = Arc::downgrade(&cluster.core);
        drop(cluster);
        assert!(
            weak.upgrade().is_none(),
            "Drop must join the worker and receiver threads, not leak them"
        );
    }
}
