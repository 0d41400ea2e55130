//! The one source of time of a daemon or a router: each `Registry` owns
//! a [`Clock`], and whatever its owner stamps, times or schedules reads it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The origin of every default clock: the first reading in the process.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic time since an origin, shared by clones: the process epoch by
/// default (span stamps of all registries compare), or a [`Clock::manual`]
/// one a test moves to exact instants instead of sleeping.
#[derive(Debug, Clone, Default)]
pub struct Clock(Option<Arc<AtomicU64>>);

impl Clock {
    /// A clock at zero that only [`Self::advance`] moves.
    pub fn manual() -> Self {
        Clock(Some(Arc::default()))
    }

    /// Time since the clock's origin.
    pub fn now(&self) -> Duration {
        match &self.0 {
            None => process_epoch().elapsed(),
            Some(nanos) => Duration::from_nanos(nanos.load(Ordering::Relaxed)),
        }
    }

    /// Move a manual clock forward; the default clock ignores this.
    pub fn advance(&self, by: Duration) {
        if let Some(nanos) = &self.0 {
            nanos.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_advanced_and_clones_share_it() {
        let clock = Clock::manual();
        let twin = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        twin.advance(Duration::from_millis(1500));
        assert_eq!(clock.now(), Duration::from_millis(1500));
        assert_eq!(clock.now().as_secs(), 1);
    }

    #[test]
    fn default_clocks_share_the_process_epoch_and_ignore_advance() {
        let (a, b) = (Clock::default(), Clock::default());
        let first = a.now();
        a.advance(Duration::from_secs(3600));
        assert!(b.now() >= first, "one origin, monotonic");
        assert!(b.now() < Duration::from_secs(3600), "advance is a no-op");
    }
}
