//! The threads host runs one OS thread per node and leaves none behind.
//! A test binary of its own, so that no other test's threads are counted
//! in the process's `Threads:` line.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dat_chord::{Actor, Input, NodeAddr, Output};
use dat_rpc::RpcCluster;

struct Idle(NodeAddr);

impl Actor for Idle {
    fn addr(&self) -> NodeAddr {
        self.0
    }
    fn on_input(&mut self, _: Input) -> Vec<Output> {
        vec![]
    }
}

/// The `Threads:` count of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn sixteen_nodes_run_on_sixteen_threads_and_shutdown_ends_them() {
    let before = threads();
    let cluster = RpcCluster::launch((0..16).map(|i| Idle(NodeAddr(i))).collect()).unwrap();
    assert_eq!(threads(), before + 16, "one thread per node");
    assert_eq!(cluster.shutdown().len(), 16);
    // A joined thread has run its last instruction; the kernel may take a
    // moment longer to drop it from the count.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before, "shutdown ends every node's thread");
}
