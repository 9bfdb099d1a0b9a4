//! Task-per-node tokio transport hosting sans-io protocol actors.
//!
//! Layout per node — one UDP socket shared by two tasks via `Arc`, plus
//! the actor task in between, all glued with **bounded** channels:
//!
//! ```text
//!   socket ──recv_from──► reader ──try_send──► inbox ─► actor ─► outbox ──recv──► writer ──send_to──► socket
//!                           │ (full ⇒ shed_rx)            │ (full ⇒ shed_tx)
//! ```
//!
//! Binding, decode classification, counters, the timer heap and the
//! output step are [`dat_chord::host`]'s — the same code the blocking
//! `dat_rpc::RpcCluster` runs; what is this host's own is the wait (an
//! async task instead of a thread) and the bounded, shedding data plane.
//!
//! Drain contract (the actors' half is `dat_rpc::RpcCluster`'s too):
//! `shutdown` enqueues a `Stop` marker on the reliable control plane and
//! raises the stop flag. Each actor finishes everything queued before
//! its marker, then returns itself; readers observe the flag within one
//! [`SOCKET_POLL`]; writers flush every frame the actors produced and
//! exit when the outbox closes. No task outlives `shutdown`.

use std::future::{poll_fn, Future};
use std::net::SocketAddr;
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::Poll;

use dat_chord::codec;
use dat_chord::host::{Control, Core, Node, TransportStats, CALL_TIMEOUT, SOCKET_POLL};
use dat_chord::{Actor, NodeAddr, Output, Upcall};
use dat_obs::Registry;
use tokio::net::UdpSocket;
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TrySendError;
use tokio::task::JoinHandle;
use tokio::time::Sleep;

/// Runtime knobs for [`ClusterHost`].
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Bound of each node's reader→actor channel. A full inbox sheds the
    /// datagram and counts it (`engine_shed_total{layer="transport_rx"}`).
    pub inbox_capacity: usize,
    /// Bound of each node's actor→writer channel. A full outbox sheds the
    /// frame and counts it (`engine_shed_total{layer="transport_tx"}`).
    pub outbox_capacity: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            inbox_capacity: 1024,
            outbox_capacity: 1024,
        }
    }
}

/// A running cluster of UDP-backed protocol nodes on a tokio runtime.
pub struct ClusterHost<A: Actor> {
    core: Arc<Core>,
    sockets: Vec<Arc<UdpSocket>>,
    inboxes: Vec<mpsc::Sender<Control<A>>>,
    actors: Vec<JoinHandle<A>>,
    /// Every node's reader and writer.
    io_tasks: Vec<JoinHandle<()>>,
    // Dropped last (declaration order): tasks and sockets must unwind
    // while the executor, timer and reactor threads still run.
    runtime: tokio::runtime::Runtime,
}

impl<A: Actor> ClusterHost<A> {
    /// Bind sockets and spawn the per-node task trios for `actors` with
    /// default [`HostConfig`]. Actor `i` must use logical `NodeAddr(i)`.
    pub fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        Self::launch_with(actors, HostConfig::default())
    }

    /// Like [`ClusterHost::launch`] with explicit channel bounds.
    pub fn launch_with(actors: Vec<A>, cfg: HostConfig) -> std::io::Result<Self> {
        let runtime = tokio::runtime::Builder::new_multi_thread()
            .thread_name("cluster")
            .enable_all()
            .build()?;
        // Bind std sockets first (cheap, synchronous), then adopt them
        // into the reactor from inside the runtime context.
        let (core, std_sockets) = Core::bind(&actors)?;
        let sockets: Vec<Arc<UdpSocket>> = runtime.block_on(async {
            std_sockets
                .into_iter()
                .map(|s| UdpSocket::from_std(s).map(Arc::new))
                .collect::<std::io::Result<_>>()
        })?;

        let mut inboxes = Vec::with_capacity(actors.len());
        let mut actor_tasks = Vec::with_capacity(actors.len());
        let mut io_tasks = Vec::with_capacity(2 * actors.len());
        for (actor, sock) in actors.into_iter().zip(&sockets) {
            let (in_tx, in_rx) = mpsc::channel::<Control<A>>(cfg.inbox_capacity);
            let (out_tx, out_rx) = mpsc::channel::<(Vec<u8>, SocketAddr)>(cfg.outbox_capacity);
            inboxes.push(in_tx.clone());
            // Allocated here, not inside the task: whichever worker polls
            // a reader first would otherwise own its 64 KiB, and how a
            // fleet's buffers split between the workers' malloc arenas
            // differs from launch to launch.
            let buf = vec![0u8; codec::MAX_FRAME];
            let reader = reader_task(Arc::clone(sock), buf, in_tx, Arc::clone(&core));
            io_tasks.push(runtime.spawn(reader));
            io_tasks.push(runtime.spawn(writer_task(Arc::clone(sock), out_rx, Arc::clone(&core))));
            let node = Node::new(actor, Arc::clone(&core));
            actor_tasks.push(runtime.spawn(actor_task(node, in_rx, out_tx, Arc::clone(&core))));
        }

        Ok(ClusterHost {
            core,
            sockets,
            inboxes,
            actors: actor_tasks,
            io_tasks,
            runtime,
        })
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
        self.runtime
            .block_on(self.sockets[i].send_to(bytes, peer))
            .map(|_| ())
    }

    /// Run `f` against the actor at `addr` asynchronously; its outputs
    /// are processed on the actor task. Control plane: waits for inbox
    /// capacity instead of shedding.
    pub fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static,
    {
        if let Some(tx) = self.inboxes.get(addr.0 as usize) {
            let _ = tx.blocking_send(Control::cast(f));
        }
    }

    /// Run `f` against the actor at `addr` and wait for its return value.
    pub fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        let (ctl, reply) = Control::call(f);
        let _ = self.inboxes.get(addr.0 as usize)?.blocking_send(ctl);
        reply.recv_timeout(CALL_TIMEOUT).ok()
    }

    /// Drain the recorded upcalls of every node.
    pub fn drain_upcalls(&self) -> Vec<(NodeAddr, Upcall)> {
        self.core.drain_upcalls()
    }

    /// Transport counters.
    pub fn stats(&self) -> TransportStats {
        self.core.stats()
    }

    /// Transport-level metrics as an obs registry: datagram, decode-error
    /// and socket-error counters plus `engine_shed_total` transport
    /// layers, every series zero-initialized (`transport="tokio"`).
    pub fn transport_registry(&self) -> Registry {
        self.stats().registry("tokio")
    }

    /// Stop every task, drain the planes, and return the actors in
    /// address order.
    ///
    /// Order matters: the `Stop` markers ride the reliable control plane
    /// behind any queued datagrams, so each actor finishes its backlog
    /// first; the stop flag bounds reader exit to one [`SOCKET_POLL`]; the
    /// writers flush everything the actors produced before their outboxes
    /// close. The runtime itself shuts down when the host drops.
    pub fn shutdown(mut self) -> Vec<A> {
        for tx in &self.inboxes {
            let _ = tx.blocking_send(Control::Stop);
        }
        self.core.stop();
        let actors = std::mem::take(&mut self.actors);
        let io_tasks = std::mem::take(&mut self.io_tasks);
        self.runtime.block_on(async move {
            let mut out = Vec::with_capacity(actors.len());
            for h in actors {
                out.extend(h.await.ok());
            }
            for h in io_tasks {
                let _ = h.await;
            }
            out
        })
    }
}

/// Reader task: socket → classify → bounded inbox (shed on full).
async fn reader_task<A: Actor>(
    sock: Arc<UdpSocket>,
    mut buf: Vec<u8>,
    inbox: mpsc::Sender<Control<A>>,
    core: Arc<Core>,
) {
    while !core.stopped() {
        let Ok(outcome) = tokio::time::timeout(SOCKET_POLL, sock.recv_from(&mut buf)).await else {
            continue;
        };
        if let Some(input) = core.on_recv(outcome, &buf) {
            match inbox.try_send(Control::Input(input)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => core.shed_rx(),
                Err(TrySendError::Closed(_)) => break,
            }
        }
    }
}

/// Writer task: bounded outbox → socket. Exits when the actor task drops
/// its sender, after flushing everything already queued.
async fn writer_task(
    sock: Arc<UdpSocket>,
    mut outbox: mpsc::Receiver<(Vec<u8>, SocketAddr)>,
    core: Arc<Core>,
) {
    while let Some((frame, peer)) = outbox.recv().await {
        core.on_send(sock.send_to(&frame, peer).await);
    }
}

/// Actor task: the [`dat_chord::host`] loop on an async inbox. Frames go
/// to the bounded outbox (shed on full).
async fn actor_task<A: Actor>(
    mut node: Node<A>,
    mut inbox: mpsc::Receiver<Control<A>>,
    outbox: mpsc::Sender<(Vec<u8>, SocketAddr)>,
    core: Arc<Core>,
) -> A {
    let mut sink = |frame: Vec<u8>, peer: SocketAddr| {
        if let Err(TrySendError::Full(_)) = outbox.try_send((frame, peer)) {
            core.shed_tx();
        }
    };
    // One registered sleep per distinct deadline, not per wait: a node
    // with a far-off maintenance timer handles thousands of inputs
    // before its next deadline moves.
    let mut sleep: Option<Pin<Box<Sleep>>> = None;
    loop {
        let deadline = node.fire_due(&mut sink);
        if sleep.as_ref().map(|s| s.deadline()) != deadline {
            sleep = deadline.map(|d| Box::pin(tokio::time::sleep_until(d)));
        }
        let ctl = poll_fn(|cx| {
            if let Poll::Ready(ctl) = pin!(inbox.recv()).poll(cx) {
                return Poll::Ready(Some(ctl));
            }
            match &mut sleep {
                Some(s) => s.as_mut().poll(cx).map(|()| None),
                None => Poll::Pending,
            }
        })
        .await;
        let Some(ctl) = ctl else {
            continue; // the deadline came first
        };
        if !ctl.is_some_and(|ctl| node.step(ctl, &mut sink)) {
            break node.into_actor();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use dat_chord::{ChordConfig, ChordNode, Id, IdSpace, Input, NodeRef};
    use std::time::{Duration, Instant};

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
    fn two_nodes_join_over_tokio_udp() {
        let a = ChordNode::new(fast_cfg(), Id(1_000), NodeAddr(0));
        let b = ChordNode::new(fast_cfg(), Id(2_000_000), NodeAddr(1));
        let cluster = ClusterHost::launch(vec![a, b]).unwrap();
        let bootstrap = cluster
            .call(NodeAddr(0), |n| (n.me(), n.start_create()))
            .unwrap();
        cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ok = false;
        while Instant::now() < deadline && !ok {
            std::thread::sleep(Duration::from_millis(100));
            let succ = |addr| {
                cluster.call(addr, |n: &mut ChordNode| {
                    (n.table().successor().map(|s| s.id), vec![])
                })
            };
            ok = succ(NodeAddr(0)) == Some(Some(Id(2_000_000)))
                && succ(NodeAddr(1)) == Some(Some(Id(1_000)));
        }
        let ups = cluster.drain_upcalls();
        let stats = cluster.stats();
        let text = cluster.transport_registry().render_prometheus();
        let actors = cluster.shutdown();
        assert!(ok, "ring did not converge over tokio UDP");
        assert_eq!(actors.len(), 2);
        assert!(ups
            .iter()
            .any(|(at, u)| *at == NodeAddr(0)
                && matches!(u, Upcall::Joined { id } if *id == Id(1_000))));
        assert!(stats.sent > 0 && stats.received > 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.shed_rx, 0);
        dat_obs::validate_prometheus(&text).expect("valid exposition");
        assert!(text.contains("transport=\"tokio\""));
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
        let cluster = ClusterHost::launch(vec![recorder(0), recorder(1)]).unwrap();
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
    fn full_inbox_sheds_and_counts() {
        // A one-slot inbox with an actor wedged on a long blocking call:
        // floods must shed (bounded memory), and every shed is counted.
        let cfg = HostConfig {
            inbox_capacity: 1,
            ..HostConfig::default()
        };
        let cluster =
            ClusterHost::launch_with(vec![ChordNode::new(fast_cfg(), Id(5), NodeAddr(0))], cfg)
                .unwrap();
        // Wedge the actor task so nothing drains the inbox.
        cluster.cast(NodeAddr(0), |_| {
            std::thread::sleep(Duration::from_millis(600));
            vec![]
        });
        std::thread::sleep(Duration::from_millis(100));
        let valid = codec::encode(&dat_chord::ChordMsg::Ping {
            req: 1,
            sender: NodeRef::new(Id(9), NodeAddr(0)),
        });
        let sender = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let target = cluster.socket_addr(NodeAddr(0)).unwrap();
        for _ in 0..50 {
            sender.send_to(&valid, target).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut shed = 0;
        while Instant::now() < deadline {
            shed = cluster.stats().shed_rx;
            if shed > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(shed > 0, "flooding a wedged one-slot inbox must shed");
        let reg = cluster.transport_registry();
        assert!(reg.counter_with("engine_shed_total", "transport_rx") >= shed);
        cluster.shutdown();
    }
}
