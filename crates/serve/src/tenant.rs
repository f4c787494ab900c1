//! Per-tenant budgets and quotas.
//!
//! A tenant is anyone submitting sessions — a user, a CI pipeline, a
//! bench. Two independent limits apply per tenant:
//!
//! - a **concurrent-session quota** (how many sessions may be in flight
//!   at once), which recovers as sessions drain; and
//! - an optional **lifetime budget** (how many sessions the tenant may
//!   submit over the service's lifetime), which never recovers.
//!
//! Violations surface as typed [`SubmitError`]s at
//! the admission boundary; accounting is exact — the ledger's in-flight
//! counters return to zero once everything drains (asserted by the
//! quota test suite).

use crate::error::SubmitError;
use std::collections::BTreeMap;

/// Limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum sessions in flight at once.
    pub max_concurrent: usize,
    /// Optional lifetime cap on submitted sessions.
    pub max_total: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        // Generous default: serving benches submit hundreds of thousands
        // of sessions under one tenant.
        TenantQuota { max_concurrent: 1 << 20, max_total: None }
    }
}

impl TenantQuota {
    /// A quota capping only concurrency.
    pub fn concurrent(max_concurrent: usize) -> Self {
        TenantQuota { max_concurrent, max_total: None }
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Default)]
struct TenantState {
    quota: Option<TenantQuota>,
    in_flight: usize,
    submitted: u64,
}

/// The admission ledger: quotas and live counters for every tenant.
///
/// `BTreeMap` (not `HashMap`) so iteration — and therefore any report
/// derived from it — is deterministically ordered by tenant name.
#[derive(Debug, Default)]
pub struct TenantLedger {
    tenants: BTreeMap<String, TenantState>,
    default_quota: TenantQuota,
}

impl TenantLedger {
    /// A ledger where unknown tenants get `default_quota`.
    pub fn new(default_quota: TenantQuota) -> Self {
        TenantLedger { tenants: BTreeMap::new(), default_quota }
    }

    /// Pins an explicit quota for `tenant` (replacing the default).
    pub fn set_quota(&mut self, tenant: &str, quota: TenantQuota) {
        self.tenants.entry(tenant.to_owned()).or_default().quota = Some(quota);
    }

    /// The quota in force for `tenant`.
    pub fn quota(&self, tenant: &str) -> TenantQuota {
        self.tenants.get(tenant).and_then(|t| t.quota).unwrap_or(self.default_quota)
    }

    /// Admits one session for `tenant`, or explains the refusal. On
    /// success the tenant's in-flight and lifetime counters are already
    /// incremented.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QuotaExceeded`] at the concurrency cap (recovers on
    /// [`release`](Self::release)); [`SubmitError::BudgetExhausted`] at
    /// the lifetime cap (permanent).
    pub fn admit(&mut self, tenant: &str) -> Result<(), SubmitError> {
        let default_quota = self.default_quota;
        let state = self.tenants.entry(tenant.to_owned()).or_default();
        let quota = state.quota.unwrap_or(default_quota);
        if let Some(budget) = quota.max_total {
            if state.submitted >= budget {
                return Err(SubmitError::BudgetExhausted {
                    tenant: tenant.to_owned(),
                    submitted: state.submitted,
                    budget,
                });
            }
        }
        if state.in_flight >= quota.max_concurrent {
            return Err(SubmitError::QuotaExceeded {
                tenant: tenant.to_owned(),
                in_flight: state.in_flight,
                limit: quota.max_concurrent,
                // The ledger knows quotas, not schedules; the service
                // fills the hint with its slice length.
                retry_after_steps: None,
            });
        }
        state.in_flight += 1;
        state.submitted += 1;
        Ok(())
    }

    /// Returns one session slot for `tenant` (its session completed).
    ///
    /// # Panics
    ///
    /// Panics if the tenant has nothing in flight — that would mean the
    /// scheduler double-completed a session, an accounting bug worth
    /// failing loudly on.
    pub fn release(&mut self, tenant: &str) {
        let state = self.tenants.get_mut(tenant).expect("release for unknown tenant");
        assert!(state.in_flight > 0, "release with zero in flight for `{tenant}`");
        state.in_flight -= 1;
    }

    /// Sessions in flight for `tenant` right now.
    pub fn in_flight(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.in_flight)
    }

    /// Total sessions in flight across all tenants.
    pub fn total_in_flight(&self) -> usize {
        self.tenants.values().map(|t| t.in_flight).sum()
    }

    /// Lifetime submissions for `tenant`.
    pub fn submitted(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_quota_rejects_then_recovers() {
        let mut ledger = TenantLedger::new(TenantQuota::concurrent(2));
        ledger.admit("a").unwrap();
        ledger.admit("a").unwrap();
        let err = ledger.admit("a").unwrap_err();
        assert!(matches!(err, SubmitError::QuotaExceeded { in_flight: 2, limit: 2, .. }));
        ledger.release("a");
        ledger.admit("a").unwrap();
        assert_eq!(ledger.in_flight("a"), 2);
    }

    #[test]
    fn lifetime_budget_never_recovers() {
        let mut ledger = TenantLedger::new(TenantQuota::default());
        ledger.set_quota("b", TenantQuota { max_concurrent: 10, max_total: Some(2) });
        ledger.admit("b").unwrap();
        ledger.admit("b").unwrap();
        ledger.release("b");
        ledger.release("b");
        let err = ledger.admit("b").unwrap_err();
        assert!(matches!(err, SubmitError::BudgetExhausted { submitted: 2, budget: 2, .. }));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut ledger = TenantLedger::new(TenantQuota::concurrent(1));
        ledger.admit("a").unwrap();
        ledger.admit("b").unwrap();
        assert!(ledger.admit("a").is_err());
        assert_eq!(ledger.total_in_flight(), 2);
        ledger.release("a");
        ledger.release("b");
        assert_eq!(ledger.total_in_flight(), 0);
    }
}
