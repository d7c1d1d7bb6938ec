//! Deadline budgets, bounded retries, and read failover for the online
//! request path.
//!
//! The paper's deployments keep serving through tablet loss via
//! ZooKeeper-coordinated replicas (§3.1); this module is the reproduction's
//! equivalent contract, stated as three guarantees that
//! [`execute_request_with`](crate::execute_request_with) upholds:
//!
//! 1. **Never hang.** A [`Deadline`] is checked at every pipeline stage and
//!    before every storage access; budget exhaustion surfaces as a typed
//!    `Error::Timeout` naming the stage.
//! 2. **Transient faults are absorbed.** Storage errors classified
//!    transient by [`Error::is_transient`] get bounded
//!    exponential-backoff retries ([`RetryPolicy`]); if the primary table
//!    keeps faulting, the read fails over to
//!    [`TableProvider::fallback_table`](crate::TableProvider::fallback_table)
//!    (a caught-up replica) before giving up.
//! 3. **Degrade, don't die.** When the full-window path exceeds its budget
//!    and the window has a pre-aggregation, the answer comes from buckets
//!    alone, flagged `degraded: true` in [`RequestOutput`].

use std::cell::Cell;
use std::time::Duration;

use openmldb_storage::DataTable;
use openmldb_types::{Deadline, Result, Row};

use crate::engine::TableProvider;
use crate::readplan::BoundRead;

/// Bounded exponential backoff for transient storage faults.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = no retries).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base * 2^n`, capped below.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Disable retries entirely.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// Backoff before retry `attempt` (0-based), capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Per-request resilience knobs for
/// [`execute_request_with`](crate::execute_request_with).
#[derive(Clone, Copy, Debug)]
pub struct RequestOptions {
    pub deadline: Deadline,
    pub retry: RetryPolicy,
    /// Allow buckets-only answers (flagged `degraded`) when the full
    /// window path exceeds the deadline and a pre-aggregation exists.
    pub allow_degraded: bool,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            deadline: Deadline::none(),
            retry: RetryPolicy::default(),
            allow_degraded: true,
        }
    }
}

impl RequestOptions {
    /// Options with a deadline of `budget` and the default retry policy.
    pub fn with_deadline(budget: Duration) -> Self {
        RequestOptions {
            deadline: Deadline::within(budget),
            ..Self::default()
        }
    }
}

/// One resolved request: the feature row plus how much resilience
/// machinery it took to produce it.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestOutput {
    pub row: Row,
    /// The answer came from pre-aggregated buckets alone (raw edges
    /// skipped) because the full path exceeded its budget.
    pub degraded: bool,
    /// Transient-fault retries performed across all storage accesses.
    pub retries: u32,
    /// Reads that failed over from the primary table to its replica.
    pub failovers: u32,
    /// Flight-recorder trace id for this request — the key joining the
    /// response to its slow-query post-mortem. Zero under `obs-off`.
    pub trace_id: u64,
}

/// Per-request mutable state threaded through the engine (single-threaded
/// per request, hence `Cell`).
pub(crate) struct Ctx<'a> {
    pub(crate) opts: &'a RequestOptions,
    retries: Cell<u32>,
    failovers: Cell<u32>,
    degraded: Cell<bool>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(opts: &'a RequestOptions) -> Self {
        Ctx {
            opts,
            retries: Cell::new(0),
            failovers: Cell::new(0),
            degraded: Cell::new(false),
        }
    }

    #[inline]
    pub(crate) fn check(&self, stage: &'static str) -> Result<()> {
        // Once a window has degraded the deadline is expired by definition;
        // failing every later stage would make a degraded answer impossible
        // to return. The remaining work (encode) is deadline-free, and the
        // window loop guards later windows via `deadline_expired`.
        if self.degraded.get() {
            return Ok(());
        }
        self.opts.deadline.check(stage)
    }

    /// Raw deadline test that ignores the degraded-mode leniency of
    /// [`Ctx::check`] — used to keep later windows from starting an
    /// unbudgeted full scan after an earlier window already degraded.
    #[inline]
    pub(crate) fn deadline_expired(&self) -> bool {
        self.opts.deadline.expired()
    }

    pub(crate) fn note_retry(&self) {
        self.retries.set(self.retries.get() + 1);
        crate::metrics::retries().inc();
        openmldb_obs::flight::event(openmldb_obs::FlightEventKind::Retry, self.retries.get(), 0);
    }

    pub(crate) fn note_failover(&self) {
        self.failovers.set(self.failovers.get() + 1);
        crate::metrics::failovers().inc();
        openmldb_obs::flight::event(
            openmldb_obs::FlightEventKind::Failover,
            self.failovers.get(),
            0,
        );
    }

    pub(crate) fn note_degraded(&self) {
        self.degraded.set(true);
        crate::metrics::degraded().inc();
        openmldb_obs::flight::event(openmldb_obs::FlightEventKind::Degraded, 0, 0);
    }

    pub(crate) fn retries(&self) -> u32 {
        self.retries.get()
    }

    pub(crate) fn failovers(&self) -> u32 {
        self.failovers.get()
    }

    pub(crate) fn degraded(&self) -> bool {
        self.degraded.get()
    }

    fn backoff_sleep(&self, attempt: u32) {
        let mut d = self.opts.retry.backoff(attempt);
        // Never sleep past the deadline: the next check should fire at
        // most one backoff after expiry.
        if let Some(rem) = self.opts.deadline.remaining() {
            d = d.min(rem);
        }
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Run `op`, absorbing transient faults with bounded backoff. Returns the
/// first success, the first non-transient error, a `Timeout` if the
/// deadline expires between attempts, or the last transient error once
/// retries are exhausted.
pub(crate) fn retry_transient<T>(ctx: &Ctx, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < ctx.opts.retry.max_retries => {
                ctx.check("storage_retry")?;
                ctx.backoff_sleep(attempt);
                ctx.note_retry();
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run `op` against a bound table and its index id with the full resilience
/// ladder: deadline check → bounded retries on the primary → failover to
/// `fallback_table` (a caught-up replica, looked up by name and re-resolved
/// by index columns — the one place the request path consults the catalog)
/// with its own retry round. Non-transient errors and timeouts propagate
/// immediately.
pub(crate) fn resilient_read<T>(
    ctx: &Ctx,
    provider: &dyn TableProvider,
    read: &BoundRead,
    mut op: impl FnMut(&dyn DataTable, usize) -> Result<T>,
) -> Result<T> {
    ctx.check("storage_seek")?;
    match retry_transient(ctx, || op(&*read.table, read.index)) {
        Ok(v) => Ok(v),
        Err(e) if e.is_transient() => {
            // The primary is persistently faulting: try its replica.
            let Some(fallback) = provider.fallback_table(&read.name) else {
                return Err(e);
            };
            let index = read.index_on(&*fallback)?;
            ctx.note_failover();
            retry_transient(ctx, || op(&*fallback, index))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::Error;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
        };
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(2), Duration::from_micros(400));
        assert_eq!(p.backoff(5), Duration::from_millis(1), "capped");
        assert_eq!(p.backoff(63), Duration::from_millis(1), "no overflow");
    }

    #[test]
    fn defaults_are_sane() {
        let o = RequestOptions::default();
        assert!(!o.deadline.is_bounded());
        assert!(o.allow_degraded);
        assert_eq!(o.retry.max_retries, 3);
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn retry_absorbs_transient_then_succeeds() {
        let opts = RequestOptions::default();
        let ctx = Ctx::new(&opts);
        let mut calls = 0;
        let out = retry_transient(&ctx, || {
            calls += 1;
            if calls < 3 {
                Err(Error::Storage("transient fault injected at test".into()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 3);
        assert_eq!(ctx.retries(), 2);
    }

    #[test]
    fn retry_stops_at_non_transient() {
        let opts = RequestOptions::default();
        let ctx = Ctx::new(&opts);
        let mut calls = 0;
        let out: Result<()> = retry_transient(&ctx, || {
            calls += 1;
            Err(Error::Storage("no such index".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "non-transient errors never retry");
        assert_eq!(ctx.retries(), 0);
    }

    #[test]
    fn retry_exhaustion_returns_last_transient() {
        let opts = RequestOptions {
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
            },
            ..Default::default()
        };
        let ctx = Ctx::new(&opts);
        let mut calls = 0;
        let out: Result<()> = retry_transient(&ctx, || {
            calls += 1;
            Err(Error::Storage("transient fault injected at test".into()))
        });
        assert!(matches!(out, Err(ref e) if e.is_transient()));
        assert_eq!(calls, 3, "1 attempt + 2 retries");
    }

    #[test]
    fn expired_deadline_turns_retry_into_timeout() {
        let opts = RequestOptions {
            deadline: Deadline::within(Duration::ZERO),
            ..Default::default()
        };
        let ctx = Ctx::new(&opts);
        let out: Result<()> = retry_transient(&ctx, || {
            Err(Error::Storage("transient fault injected at test".into()))
        });
        assert!(matches!(out, Err(Error::Timeout { .. })), "{out:?}");
    }
}
