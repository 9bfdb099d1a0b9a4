//! The Actor boundary as a trace point.
//!
//! Every host in the repo (`SimNet`, `ShardedNet`, `ClusterHost`,
//! `RpcCluster`) drives protocol code through one call,
//! `Actor::on_input`. [`Traced`] wraps the hosted actor and times that
//! call, so whatever happens *inside* a span is protocol work
//! (`chord.node`, `core.engine`, `core.proto`) and whatever happens
//! *outside* it is host work (`sim.net`, `sim.queue`, `sim.shard`,
//! `cluster.host`, `rpc.cluster`). No file outside `benchmark/` knows the
//! wrapper exists.
//!
//! Each wrapped node keeps its own tallies and spans, so recording takes
//! no lock and shares no cache line between worker threads. The generator
//! publishes the running op number through [`TraceCtx`]; `0` means "not
//! measuring" and turns the wrapper into a pass-through, which keeps
//! set-up and warm-up out of the figures.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dat_chord::{Actor, ChordNode, Input, NodeAddr, Output};
use dat_core::StackNode;

use crate::json::Json;

/// Input classes, in tally order.
pub const CLASSES: [&str; 3] = ["timer", "maint", "app"];
const TIMER: usize = 0;
const MAINT: usize = 1;
const APP: usize = 2;

/// One in this many `Output::Send`s is encoded to learn its wire size.
/// Encoding all of them would cost more than the `on_input` calls the
/// trace is there to price.
const BYTES_SAMPLE_EVERY: u64 = 16;

fn classify(input: &Input) -> usize {
    match input {
        Input::Timer(_) => TIMER,
        Input::Message { msg, .. } if msg.is_maintenance() => MAINT,
        Input::Message { .. } => APP,
        // Never seen on these workloads (a decode error fails the run);
        // counted with maintenance so the tallies still add up.
        Input::BadFrame { .. } => MAINT,
    }
}

/// One `on_input` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`CLASSES`].
    pub class: u8,
    /// Transport address of the node that ran it.
    pub node: u32,
    /// The op (epoch, virtual second or query number, 1-based) that was
    /// running — the span's cause.
    pub cause: u32,
    /// Start, nanoseconds after the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-class totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// `on_input` calls.
    pub inputs: u64,
    /// Nanoseconds spent inside them.
    pub busy_ns: u64,
    /// `Output`s they returned.
    pub outputs: u64,
}

/// What one node (or, after [`NodeTrace::merge`], a fleet) recorded.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    /// Totals per input class, indexed like [`CLASSES`].
    pub tally: [ClassTally; 3],
    /// `Output::Send`s seen.
    pub sends: u64,
    /// Sends whose frame was encoded to measure it.
    pub sized_sends: u64,
    /// Encoded bytes of those frames.
    pub sized_bytes: u64,
    /// Spans of the first [`TraceCtx::span_ops`] ops.
    pub spans: Vec<Span>,
}

impl NodeTrace {
    /// Fold another node's trace into this one.
    pub fn merge(&mut self, other: NodeTrace) {
        for (a, b) in self.tally.iter_mut().zip(other.tally) {
            a.inputs += b.inputs;
            a.busy_ns += b.busy_ns;
            a.outputs += b.outputs;
        }
        self.sends += other.sends;
        self.sized_sends += other.sized_sends;
        self.sized_bytes += other.sized_bytes;
        self.spans.extend(other.spans);
    }

    /// All `on_input` calls.
    pub fn inputs(&self) -> u64 {
        self.tally.iter().map(|t| t.inputs).sum()
    }

    /// Nanoseconds inside actor spans, all classes.
    pub fn actor_ns(&self) -> u64 {
        self.tally.iter().map(|t| t.busy_ns).sum()
    }

    /// The host's self time: the part of `covering_ns` (run wall on a
    /// single-thread engine, process CPU on a multi-thread host) that no
    /// actor span accounts for.
    pub fn host_self_ns(&self, covering_ns: u64) -> u64 {
        covering_ns.saturating_sub(self.actor_ns())
    }

    /// Mean nanoseconds per `on_input` of one class (0 when none ran).
    pub fn mean_ns(&self, class: usize) -> f64 {
        let t = self.tally[class];
        if t.inputs == 0 {
            0.0
        } else {
            t.busy_ns as f64 / t.inputs as f64
        }
    }

    /// Outputs returned per input, all classes.
    pub fn outputs_per_input(&self) -> f64 {
        let outs: u64 = self.tally.iter().map(|t| t.outputs).sum();
        ratio(outs as f64, self.inputs() as f64)
    }

    /// Mean encoded size of the sampled sends.
    pub fn bytes_per_msg(&self) -> f64 {
        ratio(self.sized_bytes as f64, self.sized_sends as f64)
    }

    /// Write the kept spans, oldest first, as one JSON document.
    pub fn write_spans(&mut self, path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        use std::io::Write;
        self.spans.sort_by_key(|s| (s.start_ns, s.node));
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let head = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "classes",
                Json::Arr(CLASSES.iter().map(|c| Json::str(*c)).collect()),
            ),
            (
                "columns",
                Json::Arr(
                    ["class", "node", "cause_op", "start_ns", "dur_ns"]
                        .iter()
                        .map(|c| Json::str(*c))
                        .collect(),
                ),
            ),
        ])
        .render();
        // Splice the span rows into the header object by hand: a Json
        // value per span would double the memory of a large trace.
        write!(f, "{},\"spans\":[", &head[..head.len() - 1])?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                f,
                "{sep}\n[{},{},{},{},{}]",
                s.class, s.node, s.cause, s.start_ns, s.dur_ns
            )?;
        }
        writeln!(f, "\n]}}")?;
        f.flush()
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the generator shares with every wrapped node.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    origin: Instant,
    cause: Arc<AtomicU32>,
    /// Ops whose spans are kept one by one; later ops are only tallied,
    /// which bounds a trace to a few hundred thousand rows.
    pub span_ops: u32,
}

impl TraceCtx {
    /// A context that is not measuring yet.
    pub fn new(span_ops: u32) -> Self {
        TraceCtx {
            origin: Instant::now(),
            cause: Arc::new(AtomicU32::new(0)),
            span_ops,
        }
    }

    /// Announce that op `op` (1-based) is running; `0` stops measuring.
    ///
    /// `Relaxed` is enough: the value publishes no other data, and a
    /// stale read can at worst label a span with the neighbouring op.
    pub fn set_op(&self, op: u32) {
        self.cause.store(op, Ordering::Relaxed);
    }
}

/// An [`Actor`] that records a span around every `on_input` of the actor
/// it wraps.
pub struct Traced<A> {
    inner: A,
    ctx: TraceCtx,
    node: u32,
    trace: NodeTrace,
}

impl<A: Actor> Actor for Traced<A> {
    fn addr(&self) -> NodeAddr {
        self.inner.addr()
    }

    fn on_input(&mut self, input: Input) -> Vec<Output> {
        let cause = self.ctx.cause.load(Ordering::Relaxed);
        if cause == 0 {
            return self.inner.on_input(input);
        }
        let class = classify(&input);
        let start = Instant::now();
        let outs = self.inner.on_input(input);
        let dur_ns = start.elapsed().as_nanos() as u64;

        let t = &mut self.trace.tally[class];
        t.inputs += 1;
        t.busy_ns += dur_ns;
        t.outputs += outs.len() as u64;
        for o in &outs {
            if let Output::Send { msg, .. } = o {
                self.trace.sends += 1;
                if self.trace.sends % BYTES_SAMPLE_EVERY == 1 {
                    self.trace.sized_sends += 1;
                    self.trace.sized_bytes += dat_chord::codec::encode(msg).len() as u64;
                }
            }
        }
        if cause <= self.ctx.span_ops {
            self.trace.spans.push(Span {
                class: class as u8,
                node: self.node,
                cause,
                start_ns: start.duration_since(self.ctx.origin).as_nanos() as u64,
                dur_ns,
            });
        }
        outs
    }

    fn set_now(&mut self, now_ms: u64) {
        self.inner.set_now(now_ms);
    }
}

/// What a workload needs from the actor type it hosts, so that one
/// generic body runs both the plain pass (`P = StackNode`: nothing added,
/// nothing timed) and the traced pass (`P = Traced<StackNode>`).
pub trait Probe: Actor + Sized {
    /// The protocol actor underneath.
    type Inner: Actor;
    /// Host `inner` behind this probe.
    fn wrap(inner: Self::Inner, ctx: &TraceCtx) -> Self;
    /// The protocol actor, for the generator's own calls
    /// (`set_local`, `query`, `take_events`, counters).
    fn inner_mut(&mut self) -> &mut Self::Inner;
    /// Hand over what was recorded (empty for the plain types).
    fn take_trace(&mut self) -> NodeTrace;
}

macro_rules! plain_probe {
    ($t:ty) => {
        impl Probe for $t {
            type Inner = $t;
            fn wrap(inner: $t, _ctx: &TraceCtx) -> Self {
                inner
            }
            fn inner_mut(&mut self) -> &mut $t {
                self
            }
            fn take_trace(&mut self) -> NodeTrace {
                NodeTrace::default()
            }
        }
    };
}
plain_probe!(StackNode);
plain_probe!(ChordNode);

impl<A: Actor> Probe for Traced<A> {
    type Inner = A;
    fn wrap(inner: A, ctx: &TraceCtx) -> Self {
        let node = inner.addr().0 as u32;
        Traced {
            inner,
            ctx: ctx.clone(),
            node,
            trace: NodeTrace::default(),
        }
    }

    fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    fn take_trace(&mut self) -> NodeTrace {
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordMsg, Id, NodeRef, TimerKind};
    use std::time::Duration;

    /// Spins for a scripted time per input and returns a scripted number
    /// of sends.
    struct Scripted {
        spin: Duration,
        sends: usize,
        seen: u64,
        now_ms: u64,
    }

    fn peer() -> NodeRef {
        NodeRef::new(Id(9), NodeAddr(9))
    }

    impl Actor for Scripted {
        fn addr(&self) -> NodeAddr {
            NodeAddr(7)
        }
        fn on_input(&mut self, _input: Input) -> Vec<Output> {
            self.seen += 1;
            let t0 = Instant::now();
            while t0.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            (0..self.sends)
                .map(|i| Output::Send {
                    to: peer(),
                    msg: ChordMsg::Ping {
                        req: i as u64,
                        sender: peer(),
                    },
                })
                .collect()
        }
        fn set_now(&mut self, now_ms: u64) {
            self.now_ms = now_ms;
        }
    }

    fn inputs() -> [Input; 3] {
        [
            Input::Timer(TimerKind::Stabilize),
            Input::Message {
                from: NodeAddr(9),
                msg: ChordMsg::Notify { sender: peer() },
            },
            Input::Message {
                from: NodeAddr(9),
                msg: ChordMsg::App {
                    proto: 1,
                    from: peer(),
                    payload: vec![1, 2, 3].into(),
                },
            },
        ]
    }

    #[test]
    fn pass_through_until_an_op_is_announced() {
        let ctx = TraceCtx::new(1);
        let mut t = Traced::wrap(
            Scripted {
                spin: Duration::ZERO,
                sends: 1,
                seen: 0,
                now_ms: 0,
            },
            &ctx,
        );
        for i in inputs() {
            assert_eq!(t.on_input(i).len(), 1);
        }
        t.set_now(42);
        assert_eq!(t.inner_mut().seen, 3, "inputs reach the actor");
        assert_eq!(t.inner_mut().now_ms, 42, "clock reaches the actor");
        assert_eq!(t.addr(), NodeAddr(7));
        let trace = t.take_trace();
        assert_eq!(trace.inputs(), 0);
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn self_time_is_cover_minus_actor_spans() {
        let spin = Duration::from_millis(2);
        let ctx = TraceCtx::new(1);
        let mut t = Traced::wrap(
            Scripted {
                spin,
                sends: 2,
                seen: 0,
                now_ms: 0,
            },
            &ctx,
        );
        let host_gap = Duration::from_millis(3);
        let cover = Instant::now();
        ctx.set_op(1);
        for i in inputs() {
            // "Host work" between actor calls.
            std::thread::sleep(host_gap);
            t.on_input(i);
        }
        ctx.set_op(2);
        t.on_input(Input::Timer(TimerKind::FixFingers));
        ctx.set_op(0);
        let cover_ns = cover.elapsed().as_nanos() as u64;
        let trace = t.take_trace();

        // One input per class in op 1, one more timer in op 2.
        assert_eq!(trace.tally[TIMER].inputs, 2);
        assert_eq!(trace.tally[MAINT].inputs, 1);
        assert_eq!(trace.tally[APP].inputs, 1);
        assert_eq!(trace.inputs(), 4);
        assert_eq!(trace.sends, 8);
        assert_eq!(trace.outputs_per_input(), 2.0);
        // Sends 1 of 8 sized (every 16th, starting with the first).
        assert_eq!(trace.sized_sends, 1);
        assert_eq!(
            trace.bytes_per_msg(),
            dat_chord::codec::encode(&ChordMsg::Ping {
                req: 0,
                sender: peer()
            })
            .len() as f64
        );
        // Only op 1 keeps spans (span_ops = 1).
        assert_eq!(trace.spans.len(), 3);
        assert!(trace.spans.iter().all(|s| s.cause == 1 && s.node == 7));
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns < w[1].start_ns));

        // Each span covers at least its scripted spin, so the actor total
        // is at least 4 spins; the host's self time is what is left of
        // the covering interval, at least the three sleeps.
        let actor = trace.actor_ns();
        assert!(actor >= 4 * spin.as_nanos() as u64);
        assert!(actor < cover_ns);
        let host = trace.host_self_ns(cover_ns);
        assert_eq!(host + actor, cover_ns);
        assert!(host >= 3 * host_gap.as_nanos() as u64);
        assert!(trace.mean_ns(TIMER) >= spin.as_nanos() as f64);
        // A cover shorter than the spans saturates instead of wrapping.
        assert_eq!(trace.host_self_ns(1), 0);
    }

    #[test]
    fn merge_adds_tallies_and_spans() {
        let mut a = NodeTrace::default();
        a.tally[APP] = ClassTally {
            inputs: 2,
            busy_ns: 100,
            outputs: 4,
        };
        a.sends = 3;
        let mut b = NodeTrace::default();
        b.tally[APP] = ClassTally {
            inputs: 1,
            busy_ns: 50,
            outputs: 0,
        };
        b.tally[TIMER].inputs = 5;
        b.spans.push(Span {
            class: 2,
            node: 1,
            cause: 1,
            start_ns: 5,
            dur_ns: 50,
        });
        a.merge(b);
        assert_eq!(a.tally[APP].inputs, 3);
        assert_eq!(a.mean_ns(APP), 50.0);
        assert_eq!(a.inputs(), 8);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.mean_ns(MAINT), 0.0);
    }

    #[test]
    fn plain_types_record_nothing() {
        let ctx = TraceCtx::new(1);
        ctx.set_op(1);
        let cfg = dat_chord::ChordConfig::default();
        let mut node = ChordNode::wrap(ChordNode::new(cfg, Id(1), NodeAddr(0)), &ctx);
        node.on_input(Input::Timer(TimerKind::Stabilize));
        assert_eq!(node.take_trace().inputs(), 0);
        assert_eq!(node.inner_mut().me().addr, NodeAddr(0));
    }
}
