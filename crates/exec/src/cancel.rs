//! Cooperative cancellation for queued and fanned-out work.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between whoever schedules work (a
//! campaign, the `mess-serve` daemon) and whoever might want to stop it (an HTTP
//! `DELETE`, a shutdown path). Cancellation is *cooperative* and coarse-grained: work
//! checks the token before it starts — a campaign member a [`par_map`](crate::par_map)
//! worker picks up after the token fired returns at once, a queued daemon run never
//! starts — but nothing already executing is interrupted, so partial, non-deterministic
//! results can never be observed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; the default token is
/// not cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone of the token.
    pub fn cancel(&self) {
        let was_cancelled = self.flag.swap(true, Ordering::SeqCst);
        if !was_cancelled {
            if let Some(m) = crate::obs::ExecMetrics::if_enabled() {
                m.cancels.inc();
            }
        }
    }

    /// `true` once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        // Cancelling twice is fine.
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
