//! The wake seam: how work running off the engine thread (the WAL flush
//! pipeline) tells the engine loop that something it waits for has finished.
//!
//! A runtime hands out a [`Waker`] through
//! [`Runtime::waker`](crate::Runtime::waker). Whoever owes the engine work
//! *holds* one unit per job before starting it and *releases* the units when
//! the jobs end. A release makes the runtime yield
//! [`Step::Wake`](crate::Step::Wake), and held units count as outstanding
//! work: the threaded runtime does not report quiescence and the simulator
//! does not advance its clock while any unit is held.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Interrupts a runtime blocked waiting for its next step.
type Notify = Box<dyn Fn() + Send + Sync>;

struct Shared {
    /// A release happened that the engine has not yet seen as a
    /// [`Step::Wake`](crate::Step::Wake).
    woken: AtomicBool,
    /// Units of outstanding work.
    held: AtomicUsize,
    lock: Mutex<()>,
    idle: Condvar,
    notify: Option<Notify>,
}

/// Shared handle for waking the engine loop from another thread. Clones
/// share one state.
#[derive(Clone)]
pub struct Waker(Arc<Shared>);

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("woken", &self.0.woken.load(Ordering::Relaxed))
            .field("held", &self.0.held.load(Ordering::Relaxed))
            .finish()
    }
}

impl Waker {
    /// A waker whose releases also call `notify` (to interrupt a blocked
    /// receive); `None` for a runtime that polls.
    pub(crate) fn new(notify: Option<Notify>) -> Self {
        Waker(Arc::new(Shared {
            woken: AtomicBool::new(false),
            held: AtomicUsize::new(0),
            lock: Mutex::new(()),
            idle: Condvar::new(),
            notify,
        }))
    }

    /// Count one unit of outstanding work the engine will wait for.
    pub(crate) fn hold(&self) {
        self.0.held.fetch_add(1, Ordering::AcqRel);
    }

    /// Finish `units` held units and wake the engine. Everything the
    /// releasing thread did before this call (advancing a durable
    /// watermark) is visible to the engine when it handles the wake: the
    /// `Release` store here pairs with the `Acquire` swap in `take`.
    pub(crate) fn release(&self, units: usize) {
        let before = self.0.held.fetch_sub(units, Ordering::AcqRel);
        assert!(before >= units, "released more units than were held");
        self.0.woken.store(true, Ordering::Release);
        // Pass through the lock first: a `wait_idle` that saw work
        // outstanding is then already waiting and cannot miss the notify.
        drop(self.0.lock.lock().expect("waker lock poisoned"));
        self.0.idle.notify_all();
        if let Some(notify) = &self.0.notify {
            notify();
        }
    }

    /// Consume a pending wake. One relaxed load when none is pending.
    #[inline]
    pub(crate) fn take(&self) -> bool {
        self.0.woken.load(Ordering::Relaxed) && self.0.woken.swap(false, Ordering::Acquire)
    }

    /// True while any unit is held.
    #[inline]
    pub(crate) fn busy(&self) -> bool {
        self.0.held.load(Ordering::Acquire) > 0
    }

    /// Block until no unit is held.
    pub(crate) fn wait_idle(&self) {
        let mut g = self.0.lock.lock().expect("waker lock poisoned");
        while self.busy() {
            g = self.0.idle.wait(g).expect("waker lock poisoned");
        }
    }
}
