//! Karn/Jacobson RTO invariants exercised over the tokio host's real
//! timer path.
//!
//! The chord node's retransmission machinery (SRTT/RTTVAR estimation,
//! exponential backoff, the `[RTO_MIN_MS, rto_max_ms]` clamp) is pure
//! sans-io state — but its inputs here come from genuine UDP round trips
//! and the async host's per-actor timer heap, not a simulated clock. The
//! properties under test:
//!
//! 1. `current_rto()` stays inside `[RTO_MIN_MS, rto_max_ms]` at every
//!    observable instant — cold start, live estimation, and backoff.
//! 2. Once traffic flows, `srtt_ms()` becomes `Some` and stays plausible
//!    (positive, far below the clamp ceiling on loopback).
//! 3. Retransmission is driven by the host's timers: a join whose first
//!    datagram is protocol-dropped completes only when `max_retries > 0`.

#![deny(clippy::unwrap_used)]
#![allow(clippy::expect_used)]

use std::time::{Duration, Instant};

use dat_chord::{ChordConfig, ChordNode, Id, IdSpace, NodeAddr, NodeRef, Upcall, RTO_MIN_MS};
use dat_cluster::ClusterHost;

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

/// Sample every node's `(rto, srtt)` and assert the clamp invariant holds
/// at this instant; returns the samples for higher-level checks.
fn sample_rto(
    cluster: &ClusterHost<ChordNode>,
    nodes: u64,
    cfg: &ChordConfig,
) -> Vec<(u64, Option<f64>)> {
    let mut out = Vec::new();
    for i in 0..nodes {
        let (rto, srtt) = cluster
            .call(NodeAddr(i), |n| ((n.current_rto(), n.srtt_ms()), vec![]))
            .expect("node answers");
        assert!(
            (RTO_MIN_MS..=cfg.rto_max_ms).contains(&rto),
            "node {i}: rto {rto} ms escaped [{}, {}]",
            RTO_MIN_MS,
            cfg.rto_max_ms
        );
        if let Some(s) = srtt {
            // Loopback RTTs at millisecond clock resolution can round to
            // exactly 0 — negative or non-finite would be the bug.
            assert!(s >= 0.0 && s.is_finite(), "node {i}: bogus srtt {s}");
        }
        out.push((rto, srtt));
    }
    out
}

#[test]
fn rto_stays_clamped_while_estimating_over_real_udp() {
    let cfg = fast_cfg();
    let a = ChordNode::new(cfg, Id(1_000), NodeAddr(0));
    let b = ChordNode::new(cfg, Id(2_000_000), NodeAddr(1));
    let cluster = ClusterHost::launch(vec![a, b]).expect("bind loopback sockets");

    // Cold start: no RTT samples yet, the clamp must already hold.
    for (rto, srtt) in sample_rto(&cluster, 2, &cfg) {
        assert_eq!(srtt, None, "no traffic yet, no estimate");
        assert!(rto >= RTO_MIN_MS);
    }

    let bootstrap = cluster
        .call(NodeAddr(0), |n| (n.me(), n.start_create()))
        .expect("node 0 answers");
    cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));

    // Live estimation: sample the whole window of a real join + the
    // stabilization chatter that follows. Every instant must satisfy the
    // clamp; loopback RTTs must keep the estimate far below the ceiling.
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut estimated = false;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        let samples = sample_rto(&cluster, 2, &cfg);
        if samples.iter().all(|(_, s)| s.is_some()) {
            estimated = true;
            for (rto, srtt) in samples {
                let s = srtt.expect("checked above");
                assert!(
                    s < cfg.rto_max_ms as f64 / 4.0,
                    "loopback srtt {s} ms is implausibly close to the clamp ceiling"
                );
                // Jacobson: the timeout is srtt plus variance margin, so
                // it can never undercut the smoothed estimate.
                assert!(
                    (rto as f64) >= s || rto == RTO_MIN_MS,
                    "rto {rto} below srtt {s} without hitting the floor"
                );
            }
            break;
        }
    }
    cluster.shutdown();
    assert!(estimated, "both nodes should converge to an RTT estimate");
}

#[test]
fn retransmission_through_the_tokio_timer_path_drives_the_join() {
    // The bootstrap activates ~250 ms late: the joiner's first
    // FindSuccessor lands while it is still `Created` and is
    // protocol-dropped. With a single protocol-level join attempt, only
    // RTO-driven datagram retransmission — fired by the async host's
    // per-actor timer heap — can complete the join.
    let run = |max_retries: u32| {
        let cfg = ChordConfig {
            max_retries,
            max_join_retries: 1,
            ..fast_cfg()
        };
        let a = ChordNode::new(cfg, Id(1_000), NodeAddr(0));
        let b = ChordNode::new(cfg, Id(2_000_000), NodeAddr(1));
        let cluster = ClusterHost::launch(vec![a, b]).expect("bind loopback sockets");
        let bootstrap = NodeRef::new(Id(1_000), NodeAddr(0));
        cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
        // Activate the bootstrap only after its socket has *received* the
        // joiner's first FindSuccessor — which the still-dormant node
        // protocol-drops. Synchronizing on the counter instead of a fixed
        // sleep keeps the race deterministic under arbitrary CPU load.
        let armed = Instant::now() + Duration::from_secs(10);
        while cluster.stats().received == 0 && Instant::now() < armed {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            cluster.stats().received > 0,
            "the join request never reached the dormant bootstrap"
        );
        // Counted slightly before it is enqueued — give the reader a beat
        // so the drop is ordered ahead of the create on node 0's inbox.
        std::thread::sleep(Duration::from_millis(50));
        cluster.cast(NodeAddr(0), |n| n.start_create());
        let deadline = Instant::now() + Duration::from_secs(20);
        let (mut joined, mut failed) = (false, false);
        while Instant::now() < deadline && !joined && !failed {
            std::thread::sleep(Duration::from_millis(50));
            // The backoff invariant must hold mid-retransmission too.
            sample_rto(&cluster, 2, &cfg);
            for (addr, u) in cluster.drain_upcalls() {
                if addr == NodeAddr(1) {
                    match u {
                        Upcall::Joined { .. } => joined = true,
                        Upcall::JoinFailed => failed = true,
                        _ => {}
                    }
                }
            }
        }
        cluster.shutdown();
        (joined, failed)
    };
    let (joined, _) = run(2);
    assert!(
        joined,
        "retransmission should recover the dropped join request"
    );
    let (joined, failed) = run(0);
    assert!(
        !joined && failed,
        "single-shot join through a sleeping bootstrap must fail (joined={joined}, failed={failed})"
    );
}
