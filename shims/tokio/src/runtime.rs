//! The runtime: `Builder`, `Runtime`, `Handle` and the thread-local
//! context that `spawn` / `sleep` / socket registration resolve through.

use std::cell::RefCell;
use std::future::Future;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle as ThreadHandle;

use crate::executor::{self, Shared};
use crate::reactor::ReactorShared;
use crate::task::JoinHandle;
use crate::time::TimerShared;

thread_local! {
    static CONTEXT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

/// A cheaply clonable reference to a runtime, valid for spawning and for
/// resolving the timer/reactor from library code.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
    timer: Arc<TimerShared>,
    reactor: Arc<ReactorShared>,
}

impl Handle {
    /// The handle of the runtime the current thread runs inside.
    ///
    /// # Panics
    /// Outside a runtime context, like tokio's.
    pub fn current() -> Handle {
        CONTEXT
            .with(|cx| cx.borrow().clone())
            .unwrap_or_else(|| panic!("must be called from the context of a Tokio 1.x runtime"))
    }

    /// Spawn a future onto this runtime.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        executor::spawn_on(&self.shared, future)
    }

    /// Run a future to completion on the calling thread, servicing the
    /// runtime context so the future can spawn/sleep/do I/O.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let _guard = ContextGuard::enter(self.clone());
        crate::park::block_on(future)
    }

    pub(crate) fn timer(&self) -> Arc<TimerShared> {
        Arc::clone(&self.timer)
    }

    pub(crate) fn reactor(&self) -> Arc<ReactorShared> {
        Arc::clone(&self.reactor)
    }
}

/// Restores the previous thread-local context on drop, so nested
/// `block_on` scopes unwind correctly.
struct ContextGuard {
    previous: Option<Handle>,
}

impl ContextGuard {
    fn enter(handle: Handle) -> ContextGuard {
        let previous = CONTEXT.with(|cx| cx.borrow_mut().replace(handle));
        ContextGuard { previous }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CONTEXT.with(|cx| *cx.borrow_mut() = previous);
    }
}

/// Builds a [`Runtime`] (subset of tokio's multi-thread builder).
pub struct Builder {
    worker_threads: Option<usize>,
    thread_name: String,
}

impl Builder {
    /// A builder for a multi-threaded runtime (the only flavor shipped).
    pub fn new_multi_thread() -> Builder {
        Builder {
            worker_threads: None,
            thread_name: "tokio-worker".to_string(),
        }
    }

    /// Number of worker threads; defaults to available parallelism.
    pub fn worker_threads(&mut self, n: usize) -> &mut Builder {
        self.worker_threads = Some(n.max(1));
        self
    }

    /// Base name for worker threads.
    pub fn thread_name(&mut self, name: impl Into<String>) -> &mut Builder {
        self.thread_name = name.into();
        self
    }

    /// Accepted for API compatibility; I/O and timers are always enabled.
    pub fn enable_all(&mut self) -> &mut Builder {
        self
    }

    /// Spawn the worker, timer and reactor threads.
    pub fn build(&mut self) -> io::Result<Runtime> {
        let workers = self.worker_threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let shared = Shared::new();
        let timer = TimerShared::new();
        let reactor = ReactorShared::new()?;
        let handle = Handle {
            shared: Arc::clone(&shared),
            timer: Arc::clone(&timer),
            reactor: Arc::clone(&reactor),
        };
        let mut threads = Vec::with_capacity(workers + 2);
        for i in 0..workers {
            let worker_handle = handle.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-{i}", self.thread_name))
                    .spawn(move || {
                        let _guard = ContextGuard::enter(worker_handle.clone());
                        worker_handle.shared.run_worker();
                    })?,
            );
        }
        {
            let timer = Arc::clone(&timer);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-timer", self.thread_name))
                    .spawn(move || timer.run_driver())?,
            );
        }
        {
            let reactor = Arc::clone(&reactor);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-reactor", self.thread_name))
                    .spawn(move || reactor.run_dispatcher())?,
            );
        }
        Ok(Runtime { handle, threads })
    }
}

/// A running executor: worker threads plus the timer and reactor drivers.
/// Dropping the runtime stops all of them (pending tasks are cancelled;
/// their `JoinHandle`s resolve with `JoinError`).
pub struct Runtime {
    handle: Handle,
    threads: Vec<ThreadHandle<()>>,
}

impl Runtime {
    /// Spawn a future onto the runtime.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.handle.spawn(future)
    }

    /// Run a future to completion on the calling thread.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        self.handle.block_on(future)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.handle.shared.begin_shutdown();
        self.handle.timer.begin_shutdown();
        self.handle.reactor.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
