//! Exactly-once payment accounting for the durable market ledger.
//!
//! The manager pays users in core-hours for reductions they accept
//! (Section III-D). When payments are journaled to a write-ahead ledger
//! and the manager can crash and replay, the same payment can be *seen*
//! twice — once from the surviving journal and once recomputed during
//! replay — but it must be *applied* exactly once. [`PaymentLog`] enforces
//! that with an idempotency key: one payment per `(slot, participant)` per
//! run, duplicates counted and suppressed.
//!
//! Amounts are accumulated in arrival order, so a log fed the same
//! payments in the same order always reaches a bit-identical total — the
//! property the simulator's recovery-equivalence tests assert.

use std::collections::BTreeMap;

use crate::units::CoreHours;

/// Idempotency key of one payment: a participant is paid at most once per
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PaymentKey {
    /// Simulation slot the payment belongs to.
    pub slot: u64,
    /// Paid participant (the engine uses the trace job index).
    pub participant: u64,
}

/// Exactly-once payment ledger: applies each [`PaymentKey`] once,
/// suppresses and counts duplicates, and keeps a deterministic running
/// total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaymentLog {
    applied: BTreeMap<PaymentKey, f64>,
    total_core_hours: f64,
    duplicates_suppressed: u64,
    conflicting_duplicates: u64,
}

impl PaymentLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a payment. Returns `true` when the key was fresh (the
    /// amount entered the total) and `false` for a suppressed duplicate.
    ///
    /// A duplicate whose amount differs from the first application is
    /// counted separately in
    /// [`conflicting_duplicates`](PaymentLog::conflicting_duplicates) — replay recomputing a
    /// *different* amount for a journaled payment is a divergence signal,
    /// not a benign retransmit.
    pub fn apply(&mut self, key: PaymentKey, amount: CoreHours) -> bool {
        let amount = amount.get();
        match self.applied.get(&key) {
            Some(first) => {
                self.duplicates_suppressed += 1;
                if (first - amount).abs() > f64::EPSILON * first.abs().max(1.0) {
                    self.conflicting_duplicates += 1;
                }
                false
            }
            None => {
                self.applied.insert(key, amount);
                self.total_core_hours += amount;
                true
            }
        }
    }

    /// Sum of all applied (unique) payments, in arrival order.
    #[must_use]
    pub fn total(&self) -> CoreHours {
        CoreHours::new(self.total_core_hours)
    }

    /// Number of unique payments applied.
    #[must_use]
    pub fn payments(&self) -> u64 {
        self.applied.len() as u64
    }

    /// Duplicates suppressed (same key seen again).
    #[must_use]
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Duplicates whose amount disagreed with the first application —
    /// evidence of replay divergence.
    #[must_use]
    pub fn conflicting_duplicates(&self) -> u64 {
        self.conflicting_duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(slot: u64, participant: u64) -> PaymentKey {
        PaymentKey { slot, participant }
    }

    #[test]
    fn fresh_payments_accumulate_in_order() {
        let mut log = PaymentLog::new();
        assert!(log.apply(key(0, 1), CoreHours::new(1.5)));
        assert!(log.apply(key(0, 2), CoreHours::new(2.5)));
        assert!(log.apply(key(1, 1), CoreHours::new(0.25)));
        assert_eq!(log.payments(), 3);
        assert_eq!(log.total().get(), 1.5 + 2.5 + 0.25);
        assert_eq!(log.duplicates_suppressed(), 0);
    }

    #[test]
    fn duplicate_keys_are_suppressed_exactly_once_semantics() {
        let mut log = PaymentLog::new();
        assert!(log.apply(key(3, 7), CoreHours::new(4.0)));
        assert!(!log.apply(key(3, 7), CoreHours::new(4.0)));
        assert!(!log.apply(key(3, 7), CoreHours::new(4.0)));
        assert_eq!(log.total().get(), 4.0);
        assert_eq!(log.payments(), 1);
        assert_eq!(log.duplicates_suppressed(), 2);
        assert_eq!(log.conflicting_duplicates(), 0);
    }

    #[test]
    fn conflicting_amounts_are_flagged() {
        let mut log = PaymentLog::new();
        log.apply(key(1, 1), CoreHours::new(2.0));
        log.apply(key(1, 1), CoreHours::new(3.0));
        assert_eq!(log.duplicates_suppressed(), 1);
        assert_eq!(log.conflicting_duplicates(), 1);
        assert_eq!(log.total().get(), 2.0, "first application wins");
    }

    #[test]
    fn total_is_order_deterministic() {
        // Same payments in the same order twice -> bit-identical totals.
        let amounts = [0.1, 0.37, 1e-9, 123.456, 0.2];
        let run = || {
            let mut log = PaymentLog::new();
            for (i, &a) in amounts.iter().enumerate() {
                log.apply(key(i as u64, 0), CoreHours::new(a));
            }
            log.total().get()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
