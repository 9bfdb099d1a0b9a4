//! Offline stand-in for the slice of the `crossbeam` 0.8 API the
//! workspace uses: an unbounded channel with `recv_timeout`.
//! `std::sync::mpsc` has exactly that, so the shim is re-exports (every
//! receiver in the workspace has a single owner thread).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    pub use std::sync::mpsc::channel as unbounded;
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn unbounded_roundtrip_multi_producer() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(7).unwrap());
            tx.send(9).unwrap();
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![7, 9]);
        }

        #[test]
        fn timeout_and_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
