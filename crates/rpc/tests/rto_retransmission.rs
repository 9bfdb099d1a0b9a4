//! Retransmission is driven by the threads host's timers: a join whose
//! first datagram is protocol-dropped completes only when
//! `max_retries > 0`. The tokio host's twin of this test is property 3 of
//! `crates/cluster/tests/rto_properties.rs`.

use std::time::{Duration, Instant};

use dat_chord::{ChordConfig, ChordNode, Id, IdSpace, NodeAddr, NodeRef, Upcall};
use dat_rpc::RpcCluster;

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
fn join_succeeds_only_with_datagram_retransmission() {
    // The bootstrap activates ~250 ms late: the joiner's first
    // FindSuccessor lands while it is still `Created` and is
    // protocol-dropped. With a single protocol-level join attempt
    // (max_join_retries: 1), only RTO-driven datagram retransmission
    // can complete the join — the no-retry config must surface
    // JoinFailed instead.
    let run = |max_retries: u32| {
        let cfg = ChordConfig {
            max_retries,
            max_join_retries: 1,
            ..fast_cfg()
        };
        let a = ChordNode::new(cfg, Id(1_000), NodeAddr(0));
        let b = ChordNode::new(cfg, Id(2_000_000), NodeAddr(1));
        let cluster = RpcCluster::launch(vec![a, b]).expect("bind loopback sockets");
        let bootstrap = NodeRef::new(Id(1_000), NodeAddr(0));
        cluster.cast(NodeAddr(1), move |n| n.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(250));
        cluster.cast(NodeAddr(0), |n| n.start_create());
        let deadline = Instant::now() + Duration::from_secs(8);
        let (mut joined, mut failed) = (false, false);
        while Instant::now() < deadline && !joined && !failed {
            std::thread::sleep(Duration::from_millis(50));
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
