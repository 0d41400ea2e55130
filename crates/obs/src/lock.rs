//! Ranked locks: the only `Mutex` and `RwLock` outside the vendored crates.
//!
//! Every lock carries its place in the workspace lock order as a const
//! generic, one of the [`rank`] consts below (lower rank = outer lock =
//! acquired first). Two threads that nest the same pair of locks in
//! opposite orders deadlock, so a thread may only acquire a rank above
//! every rank it holds. Linux's lockdep checks the same property at run
//! time, and so does this module: under `debug_assertions` each thread
//! keeps the ranks it holds, and acquiring a rank at or below the
//! highest one held panics with both locks' labels. Every debug test
//! therefore checks the order on every path it runs, calls through
//! `dyn` handlers and closures included. In release builds the types
//! are the plain `parking_lot` locks and the guard a zero-cost newtype.
//!
//! The root `clippy.toml` bans the raw `parking_lot` and `std::sync`
//! locks everywhere else, so a lock without a rank does not compile
//! under `-D warnings`.
//!
//! The same thread-local bookkeeping holds the reactor's one rule: the
//! thread that drives the connection core waits on nothing but its
//! poll. That thread marks itself with [`reactor`] for as long as it
//! drives the core, and each blocking primitive the workspace wraps
//! (the artifact store's fsyncs, the flight recorder's file write, the
//! client's dial and round trip) calls [`blocking`] first, which panics
//! in a debug build on a marked thread, naming the primitive and its
//! caller. Release builds compile the check out. The two waits no peer
//! or disk ends, a sleep and a channel receive, have their one home here
//! too ([`sleep`], [`recv`], [`recv_timeout`]), checked the same way;
//! `clippy.toml` bans the raw ones everywhere else.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one module that wraps the raw locks (each under a rank) and the raw waits"
)]

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError};

/// Declares the rank table once: a const per lock in [`rank`], and the
/// label a violation names it by.
macro_rules! ranks {
    ($($(#[doc = $doc:literal])* $name:ident = $rank:literal, $label:literal;)*) => {
        /// The workspace lock order, outermost first. A new lock takes a
        /// new rank here; two locks that may be held together never share
        /// one.
        pub mod rank {
            $($(#[doc = $doc])* pub const $name: u32 = $rank;)*
        }

        /// The label of `rank` in a violation message.
        #[cfg(debug_assertions)]
        fn label(rank: u32) -> &'static str {
            match rank {
                $($rank => $label,)*
                _ => "unlisted",
            }
        }
    };
}

ranks! {
    /// Serialises the daemon's artifact lifecycle verbs.
    RECONFIG_TRANSITION = 10, "reconfig.transition";
    /// The artifact store's journal and lifecycle state.
    STORE_INNER = 20, "store.inner";
    /// The daemon's soak monitor state.
    RECONFIG_SOAK = 30, "reconfig.soak";
    /// The daemon's rate-limiter bucket.
    RATE_LIMITER_STATE = 40, "rate_limiter.state";
    /// The router's membership table.
    MEMBERSHIP_STATE = 45, "membership.state";
    /// The service's load monitor.
    SERVICE_MONITOR = 50, "service.monitor";
    /// The service's node-health tracker.
    SERVICE_HEALTH = 51, "service.health";
    /// The service's published epoch.
    SERVICE_CACHED = 52, "service.cached";
    /// The profile registry's map.
    REGISTRY_MAP = 55, "registry.map";
    /// A compiled profile's located segments.
    REGISTRY_LOCATED = 56, "registry.located";
    /// A metrics registry's counters. The obs locks are innermost, so
    /// instrumentation can run under any lock above.
    OBS_COUNTERS = 60, "obs.counters";
    /// A metrics registry's gauges.
    OBS_GAUGES = 61, "obs.gauges";
    /// A metrics registry's histograms.
    OBS_HISTOGRAMS = 62, "obs.histograms";
    /// The span ring.
    SPANS_INNER = 63, "spans.inner";
    /// The flight recorder's event ring.
    FLIGHT_EVENTS = 64, "flight.events";
}

/// The rank stack each thread keeps in debug builds.
#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// Record that this thread is about to take `rank`; panic, before it
    /// blocks, if that breaks the order.
    #[track_caller]
    pub(super) fn acquire(rank: u32) {
        // A thread-local being torn down holds no guard worth checking.
        let top = HELD
            .try_with(|held| {
                let mut held = held.borrow_mut();
                let top = held.iter().copied().max().filter(|&top| rank <= top);
                if top.is_none() {
                    held.push(rank);
                }
                top
            })
            .ok()
            .flatten();
        if let Some(top) = top {
            panic!(
                "lock order violation: acquiring `{}` (rank {rank}) while holding `{}` (rank {top})",
                super::label(rank),
                super::label(top),
            );
        }
    }

    /// Forget this thread's entry for `rank`, wherever in the stack it
    /// sits: guards may drop in any order.
    pub(super) fn release(rank: u32) {
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&r| r == rank) {
                held.remove(at);
            }
        });
    }
}

thread_local! {
    /// Whether this thread holds the reactor role (debug builds only).
    static REACTOR: Cell<bool> = const { Cell::new(false) };
}

/// This thread drives the connection core until the guard drops: a
/// [`blocking`] call on it panics in a debug build.
#[must_use = "the thread leaves the reactor role when the guard drops"]
pub struct Reactor {
    was: bool,
}

/// Take the reactor role for this thread until the returned guard drops.
pub fn reactor() -> Reactor {
    let was = cfg!(debug_assertions) && REACTOR.try_with(|r| r.replace(true)).unwrap_or(false);
    Reactor { was }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            let _ = REACTOR.try_with(|r| r.set(self.was));
        }
    }
}

/// Declare that the caller is about to wait on a disk or a peer through
/// `primitive`. On a thread in the [`reactor`] role a debug build panics,
/// naming the primitive and the caller; in a release build the check is
/// a constant `false`, and compiles to nothing.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
pub fn blocking(primitive: &str) {
    if cfg!(debug_assertions) && REACTOR.try_with(Cell::get).unwrap_or(false) {
        let caller = std::panic::Location::caller();
        panic!("blocking call on the reactor thread: {primitive} at {caller}");
    }
}

/// Sleep for `duration`, a [`blocking`] wait.
#[cfg_attr(debug_assertions, track_caller)]
pub fn sleep(duration: Duration) {
    blocking("a sleep");
    std::thread::sleep(duration);
}

/// The reactor's own wait: the epoll driver's backoff after a poll
/// error, which runs on the reactor by design and so is not checked.
pub fn unchecked_sleep(duration: Duration) {
    std::thread::sleep(duration);
}

/// Wait for the next message on `rx`, a [`blocking`] wait.
#[cfg_attr(debug_assertions, track_caller)]
pub fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    blocking("a channel receive");
    rx.recv()
}

/// Wait up to `timeout` for the next message on `rx`, a [`blocking`]
/// wait.
#[cfg_attr(debug_assertions, track_caller)]
pub fn recv_timeout<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
    blocking("a channel receive");
    rx.recv_timeout(timeout)
}

/// A guard of a ranked lock: derefs to what the inner guard holds, and
/// in debug builds releases its rank when dropped.
#[must_use = "the lock is released as soon as the guard drops"]
pub struct Guard<G, const RANK: u32>(G);

/// The guard [`Mutex::lock`] returns.
pub type MutexGuard<'a, T, const RANK: u32> = Guard<parking_lot::MutexGuard<'a, T>, RANK>;

impl<G, const RANK: u32> Guard<G, RANK> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn acquire(take: impl FnOnce() -> G) -> Self {
        #[cfg(debug_assertions)]
        held::acquire(RANK);
        Guard(take())
    }

    #[cfg_attr(debug_assertions, track_caller)]
    fn try_acquire(take: impl FnOnce() -> Option<G>) -> Option<Self> {
        #[cfg(debug_assertions)]
        held::acquire(RANK);
        let guard = take();
        #[cfg(debug_assertions)]
        if guard.is_none() {
            held::release(RANK);
        }
        guard.map(Guard)
    }
}

impl<G: Deref, const RANK: u32> Deref for Guard<G, RANK> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.0
    }
}

impl<G: DerefMut, const RANK: u32> DerefMut for Guard<G, RANK> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<G, const RANK: u32> Drop for Guard<G, RANK> {
    fn drop(&mut self) {
        held::release(RANK);
    }
}

/// A mutex at rank `RANK` of the workspace lock order.
#[derive(Debug, Default)]
pub struct Mutex<T, const RANK: u32>(parking_lot::Mutex<T>);

impl<T, const RANK: u32> Mutex<T, RANK> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(parking_lot::Mutex::new(value))
    }

    /// Acquire the lock, blocking until it is free.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T, RANK> {
        Guard::acquire(|| self.0.lock())
    }

    /// Acquire the lock if it is free. The order check holds as for
    /// [`Self::lock`]: a thread that may not block on a lock may not
    /// try it either.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T, RANK>> {
        Guard::try_acquire(|| self.0.try_lock())
    }
}

/// A reader-writer lock at rank `RANK` of the workspace lock order. A
/// read nested in another read of the same lock is a violation too: with
/// a writer waiting between them, it deadlocks.
#[derive(Debug, Default)]
pub struct RwLock<T, const RANK: u32>(parking_lot::RwLock<T>);

impl<T, const RANK: u32> RwLock<T, RANK> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(parking_lot::RwLock::new(value))
    }

    /// Acquire a shared read guard.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> Guard<parking_lot::RwLockReadGuard<'_, T>, RANK> {
        Guard::acquire(|| self.0.read())
    }

    /// Acquire an exclusive write guard.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> Guard<parking_lot::RwLockWriteGuard<'_, T>, RANK> {
        Guard::acquire(|| self.0.write())
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::rank::*;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    /// The panic message of `f`, which must panic.
    fn violation(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the order check panics");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn ascending_nesting_passes_and_releases_every_rank() {
        let transition = Mutex::<(), RECONFIG_TRANSITION>::new(());
        let store = Mutex::<u32, STORE_INNER>::new(1);
        let cached = RwLock::<u32, SERVICE_CACHED>::new(2);
        let events = Mutex::<u32, FLIGHT_EVENTS>::new(3);
        for _ in 0..2 {
            let _t = transition.lock();
            let s = store.lock();
            let c = cached.read();
            assert_eq!(*s + *c + *events.lock(), 6);
        }
        // Every guard above dropped: the outermost lock is free to take.
        drop(transition.lock());
    }

    #[test]
    fn an_inversion_panics_naming_both_locks() {
        let transition = Mutex::<(), RECONFIG_TRANSITION>::new(());
        let soak = Mutex::<(), RECONFIG_SOAK>::new(());
        let msg = violation(|| {
            let _soak = soak.lock();
            let _flip = transition.lock();
        });
        assert!(msg.contains("`reconfig.transition` (rank 10)"), "{msg}");
        assert!(msg.contains("`reconfig.soak` (rank 30)"), "{msg}");
        // The panic unwound both guards: the right order still works.
        let _flip = transition.lock();
        let _soak = soak.lock();
    }

    #[test]
    fn a_same_rank_nesting_panics() {
        let buckets: Vec<Mutex<u8, RATE_LIMITER_STATE>> = vec![Mutex::default(), Mutex::default()];
        let msg = violation(|| {
            let _a = buckets[0].lock();
            let _b = buckets[1].lock();
        });
        assert!(msg.contains("`rate_limiter.state` (rank 40) while holding `rate_limiter.state`"));
        let state = RwLock::<u8, MEMBERSHIP_STATE>::new(0);
        let msg = violation(|| {
            let _outer = state.read();
            let _inner = state.read();
        });
        assert!(msg.contains("`membership.state` (rank 45)"), "{msg}");
    }

    #[test]
    fn an_outer_guard_dropped_first_leaves_the_inner_rank_held() {
        let outer = Mutex::<(), SERVICE_MONITOR>::new(());
        let between = RwLock::<(), SERVICE_HEALTH>::new(());
        let inner = RwLock::<(), SERVICE_CACHED>::new(());
        let (o, i) = (outer.lock(), inner.write());
        drop(o);
        // `cached` is still held, so `health` below it may not be taken.
        let msg = violation(|| drop(between.read()));
        assert!(msg.contains("while holding `service.cached`"), "{msg}");
        drop(i);
        // With nothing held, the middle rank is free again.
        let _h = between.write();
        let _c = inner.read();
    }

    #[test]
    fn a_blocking_call_panics_only_in_the_reactor_role() {
        blocking("an fsync off the reactor");
        let msg = violation(|| {
            let _reactor = reactor();
            blocking("`Store::append` fsync");
        });
        assert!(msg.starts_with("blocking call on the reactor thread: `Store::append` fsync at "));
        assert!(msg.contains("lock.rs"), "names its caller: {msg}");
        // The unwind dropped the role; a nested role restores the outer.
        blocking("after the reactor");
        let outer = reactor();
        drop(reactor());
        assert!(catch_unwind(|| blocking("still the reactor")).is_err());
        drop(outer);
        blocking("off again");
        // The wrapped waits are blocking calls like any other.
        let (tx, rx) = crossbeam::channel::unbounded::<u8>();
        tx.send(1).expect("the receiver is open");
        assert_eq!(recv(&rx), Ok(1));
        sleep(Duration::ZERO);
        let msg = violation(|| {
            let _reactor = reactor();
            sleep(Duration::ZERO);
        });
        assert!(
            msg.starts_with("blocking call on the reactor thread: a sleep at "),
            "{msg}"
        );
        let msg = violation(|| {
            let _reactor = reactor();
            let _ = recv_timeout(&rx, Duration::ZERO);
        });
        assert!(msg.starts_with("blocking call on the reactor thread: a channel receive"));
        // The role is the thread's: another thread may block.
        let _reactor = reactor();
        std::thread::spawn(|| blocking("a worker"))
            .join()
            .expect("a worker may block");
    }

    #[test]
    fn try_lock_takes_part_in_the_check() {
        let store = Mutex::<(), STORE_INNER>::new(());
        let soak = Mutex::<(), RECONFIG_SOAK>::new(());
        let held = soak.try_lock().expect("free");
        // A held try guard ranks what follows it, and an out-of-order try
        // panics like a blocking lock would.
        let msg = violation(|| drop(store.try_lock()));
        assert!(msg.contains("`store.inner` (rank 20) while holding `reconfig.soak`"));
        drop(held);
        std::thread::scope(|s| {
            let (held_tx, held_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let soak = &soak;
            let holder = s.spawn(move || {
                let _g = soak.lock();
                held_tx.send(()).expect("main waits");
                done_rx.recv().expect("main ends the hold");
            });
            held_rx.recv().expect("the holder took soak");
            assert!(soak.try_lock().is_none(), "held by the other thread");
            // The failed try left no rank behind.
            drop(store.lock());
            done_tx.send(()).expect("holder waits");
            holder.join().expect("holder exits");
        });
    }
}
