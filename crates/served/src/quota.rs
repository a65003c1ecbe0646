//! Per-client quotas, layered *in front of* the service's admission
//! control: a connection that exhausts its in-flight window or its
//! query-rate bucket is told so with
//! [`ErrorCode::QuotaExceeded`](crate::wire::ErrorCode::QuotaExceeded)
//! before its batch ever touches a shard queue — one greedy client
//! cannot monopolize the bounded queues that every connection shares.

use std::time::Instant;

/// The quota knobs applied to every connection (see
/// [`ServedConfig`](crate::server::ServedConfig)).
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Maximum un-responded QUERY frames per connection; further queries
    /// are rejected until responses drain. Must be ≥ 1.
    pub max_inflight: u32,
    /// Maximum `(s, t)` pairs per QUERY/WITNESS frame.
    pub max_batch: u32,
    /// Sustained queries-per-second budget per connection, enforced by a
    /// token bucket with a burst of one second's worth of tokens;
    /// `None` disables rate limiting.
    pub queries_per_sec: Option<u32>,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            max_inflight: 64,
            max_batch: 4096,
            queries_per_sec: None,
        }
    }
}

/// Token-bucket rate limiter: `rate` tokens accrue per second up to
/// a burst of `rate`; a batch of `n` queries takes `n` tokens or is
/// rejected. Owned by one connection's reader thread — no
/// synchronization.
pub struct TokenBucket {
    rate: u64,
    /// The balance in billionths of a token: `rate` of them accrue per
    /// nanosecond, so the refill is exact integer arithmetic.
    nano_tokens: u64,
    refilled: Instant,
}

const NANO: u64 = 1_000_000_000;

impl TokenBucket {
    /// A full bucket accruing `rate` tokens/second with burst `rate`.
    pub fn new(rate: u32) -> TokenBucket {
        let rate = u64::from(rate.max(1));
        TokenBucket {
            rate,
            nano_tokens: rate * NANO,
            refilled: Instant::now(),
        }
    }

    /// Takes `n` tokens if available after refill; `false` rejects.
    pub fn try_take(&mut self, n: u32) -> bool {
        self.try_take_at(n, Instant::now())
    }

    /// [`try_take`](Self::try_take) at the caller's reading of the clock
    /// (a reading older than the last refill accrues nothing).
    pub fn try_take_at(&mut self, n: u32, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.refilled).as_nanos();
        // rate < 2^32 and a Duration is < 2^94 ns: no step overflows, and
        // the minimum is at most `burst`, which is a u64.
        let accrued = u128::from(self.rate) * elapsed;
        let burst = self.rate * NANO;
        self.nano_tokens = (u128::from(self.nano_tokens) + accrued).min(u128::from(burst)) as u64;
        self.refilled = self.refilled.max(now);
        let n = u64::from(n) * NANO;
        if self.nano_tokens >= n {
            self.nano_tokens -= n;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_enforces_burst_then_refills() {
        let mut b = TokenBucket::new(100);
        let t0 = b.refilled;
        // The initial burst is exactly one second's budget.
        assert!(b.try_take_at(100, t0));
        assert!(!b.try_take_at(1, t0));
        // Refill accrues with the clock: at 100/s a token takes 10 ms.
        assert!(!b.try_take_at(1, t0 + Duration::from_millis(9)));
        assert!(b.try_take_at(1, t0 + Duration::from_millis(10)));
        assert!(!b.try_take_at(1, t0 + Duration::from_millis(10)));
        // However far the clock jumps, never above the burst.
        let later = t0 + Duration::from_secs(3600);
        assert!(!b.try_take_at(101, later));
        assert!(b.try_take_at(100, later));
        assert!(!b.try_take_at(1, later));
        // A request larger than the burst can never pass.
        let mut b = TokenBucket::new(10);
        assert!(!b.try_take(11));
        assert!(b.try_take(10));
    }
}
