//! Retry policy: per-request timeout, capped exponential backoff with
//! deterministic jitter, and a retry budget.
//!
//! The paper treats the peer network Σ as reliable; real deployments
//! (and the fault plans of `axml_net::FaultPlan`) are not. The engine
//! consults one [`RetryPolicy`] at its single wire choke point
//! (`send_wire`): when a send attempt fails with a *transient* error —
//! a dropped message, an outage window, a crashed peer — it waits
//! `timeout_ms` (the time a real sender spends discovering the loss),
//! backs off, and retries, up to `max_retries` times. Budget exhausted
//! ⇒ typed `EngineError::Exhausted`.
//!
//! All waiting happens on the simulated clock and the jitter stream is
//! derived deterministically from the engine seed, so retried runs stay
//! bit-reproducible: the one session loop performs sends in one global
//! order.

/// When and how the engine retries failed send attempts.
///
/// The delay before retry `k` (0-based) is
/// `timeout_ms + min(base_ms · 2ᵏ, max_ms) · (1 + jitter · u)` with
/// `u` drawn uniformly from `[0, 1)` off a deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retry budget per logical send: how many *re*-attempts are allowed
    /// after the first failure. `0` disables retrying entirely.
    pub max_retries: u32,
    /// Simulated time a sender spends discovering that an attempt
    /// failed (the per-request timeout), charged on every failure.
    pub timeout_ms: f64,
    /// Backoff before the first retry.
    pub base_ms: f64,
    /// Cap on the exponential backoff.
    pub max_ms: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction of itself (deterministically seeded).
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retrying at all — the engine's historical behavior: first
    /// failure surfaces immediately as a typed error.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            timeout_ms: 0.0,
            base_ms: 0.0,
            max_ms: 0.0,
            jitter: 0.0,
        }
    }

    /// A reasonable default for lossy links: 4 retries, 30 ms timeout,
    /// 5 ms base backoff capped at 80 ms, 50% jitter.
    pub const fn standard() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout_ms: 30.0,
            base_ms: 5.0,
            max_ms: 80.0,
            jitter: 0.5,
        }
    }

    /// Is retrying enabled at all?
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The capped exponential backoff for 0-based retry `attempt`,
    /// before jitter and before the timeout is added.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        let exp = 2f64.powi(attempt.min(52) as i32);
        (self.base_ms * exp).min(self.max_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_ms(0), 5.0);
        assert_eq!(p.backoff_ms(1), 10.0);
        assert_eq!(p.backoff_ms(2), 20.0);
        assert_eq!(p.backoff_ms(4), 80.0, "hits the cap");
        assert_eq!(p.backoff_ms(40), 80.0, "stays at the cap");
    }

    #[test]
    fn none_is_disabled() {
        assert!(!RetryPolicy::none().enabled());
        assert!(RetryPolicy::standard().enabled());
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let p = RetryPolicy::standard();
        assert!(p.backoff_ms(u32::MAX).is_finite());
    }
}
