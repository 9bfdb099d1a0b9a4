//! Synchronization primitives: bounded multi-producer single-consumer
//! channels.

/// Bounded mpsc channels (subset of `tokio::sync::mpsc`).
pub mod mpsc {
    use std::collections::VecDeque;
    use std::future::poll_fn;
    use std::sync::{Arc, Mutex};
    use std::task::{Poll, Waker};

    /// Channel errors.
    pub mod error {
        /// The receiver was dropped or closed; the value comes back.
        #[derive(Debug, PartialEq, Eq)]
        pub struct SendError<T>(pub T);

        impl<T> std::fmt::Display for SendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "channel closed")
            }
        }

        impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

        /// Why a [`super::Sender::try_send`] could not enqueue.
        #[derive(Debug, PartialEq, Eq)]
        pub enum TrySendError<T> {
            /// The channel is at capacity; the value comes back. This is
            /// the shed path — callers count and drop.
            Full(T),
            /// The receiver was dropped or closed; the value comes back.
            Closed(T),
        }

        impl<T> std::fmt::Display for TrySendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match self {
                    TrySendError::Full(_) => write!(f, "no available capacity"),
                    TrySendError::Closed(_) => write!(f, "channel closed"),
                }
            }
        }

        impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}
    }

    use error::{SendError, TrySendError};

    struct State<T> {
        queue: VecDeque<T>,
        recv_waker: Option<Waker>,
        send_wakers: VecDeque<Waker>,
        senders: usize,
        rx_alive: bool,
    }

    struct Chan<T> {
        cap: usize,
        state: Mutex<State<T>>,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half; clonable, every clone feeds the same receiver.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; single consumer.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Create a bounded channel holding at most `cap` in-flight values.
    ///
    /// # Panics
    /// If `cap` is zero (matching tokio).
    pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "mpsc bounded channel requires buffer > 0");
        let chan = Arc::new(Chan {
            cap,
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap.min(1024)),
                recv_waker: None,
                send_wakers: VecDeque::new(),
                senders: 1,
                rx_alive: true,
            }),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.chan.lock();
            s.senders -= 1;
            if s.senders == 0 {
                if let Some(w) = s.recv_waker.take() {
                    w.wake();
                }
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue without waiting: `Full` when at capacity (the caller
        /// sheds), `Closed` when the receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut s = self.chan.lock();
            if !s.rx_alive {
                return Err(TrySendError::Closed(value));
            }
            if s.queue.len() >= self.chan.cap {
                return Err(TrySendError::Full(value));
            }
            s.queue.push_back(value);
            if let Some(w) = s.recv_waker.take() {
                w.wake();
            }
            Ok(())
        }

        /// Enqueue, asynchronously waiting for capacity (backpressure).
        pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut value = Some(value);
            poll_fn(|cx| {
                let mut s = self.chan.lock();
                if !s.rx_alive {
                    let v = value.take().expect("send future polled after completion");
                    return Poll::Ready(Err(SendError(v)));
                }
                if s.queue.len() < self.chan.cap {
                    let v = value.take().expect("send future polled after completion");
                    s.queue.push_back(v);
                    if let Some(w) = s.recv_waker.take() {
                        w.wake();
                    }
                    return Poll::Ready(Ok(()));
                }
                s.send_wakers.push_back(cx.waker().clone());
                Poll::Pending
            })
            .await
        }

        /// Enqueue from synchronous (non-runtime) code, blocking the
        /// calling thread for capacity.
        pub fn blocking_send(&self, value: T) -> Result<(), SendError<T>> {
            crate::park::block_on(self.send(value))
        }

        /// `true` once the receiver has been dropped or closed.
        pub fn is_closed(&self) -> bool {
            !self.chan.lock().rx_alive
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue, asynchronously waiting for a value; `None` once every
        /// sender dropped (or the receiver closed) and the queue drained.
        pub async fn recv(&mut self) -> Option<T> {
            poll_fn(|cx| {
                let mut s = self.chan.lock();
                if let Some(v) = s.queue.pop_front() {
                    if let Some(w) = s.send_wakers.pop_front() {
                        w.wake();
                    }
                    return Poll::Ready(Some(v));
                }
                if s.senders == 0 || !s.rx_alive {
                    return Poll::Ready(None);
                }
                s.recv_waker = Some(cx.waker().clone());
                Poll::Pending
            })
            .await
        }

        /// Dequeue from synchronous (non-runtime) code, blocking the
        /// calling thread.
        pub fn blocking_recv(&mut self) -> Option<T> {
            crate::park::block_on(self.recv())
        }

        /// Close the receiving half: further sends fail with `Closed`,
        /// already-buffered values still drain through `recv`.
        pub fn close(&mut self) {
            let mut s = self.chan.lock();
            s.rx_alive = false;
            for w in s.send_wakers.drain(..) {
                w.wake();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.close();
        }
    }
}
