//! Offline drop-in subset of the `parking_lot` 0.12 API.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice it uses: a [`Mutex`] whose `lock()` returns
//! the guard directly (no poison `Result`). Layered over `std::sync::Mutex`;
//! a poisoned lock is recovered rather than propagated, matching
//! parking_lot's no-poisoning semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// Guard releasing the [`Mutex`] on drop.
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wrap a value in a mutex.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
