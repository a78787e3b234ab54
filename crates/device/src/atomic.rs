//! Atomic helpers mirroring the CUDA intrinsics HISA construction relies on.
//!
//! The paper's hash-table construction (Algorithm 2) uses `atomicCAS` both
//! to claim hash slots and to keep the *smallest* sorted-index position per
//! key. [`claim_key_slot`] wraps the first as a `std::sync::atomic`
//! compare-exchange so the data-structure code reads like the paper's
//! pseudo-code; the hash table's insert loop carries the second.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel marking an empty hash-table key slot.
pub const EMPTY_KEY: u64 = u64::MAX;
/// Sentinel marking an unwritten hash-table value slot.
pub const EMPTY_VALUE: u32 = u32::MAX;

/// Attempts to claim `slot` for `key`.
///
/// Returns `Ok(true)` when the slot was empty and is now freshly claimed,
/// `Ok(false)` when it already held `key`, and `Err(existing)` when the slot
/// is owned by a different key (the caller should continue linear probing).
pub fn claim_key_slot(slot: &AtomicU64, key: u64) -> Result<bool, u64> {
    match slot.compare_exchange(EMPTY_KEY, key, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => Ok(true),
        Err(existing) if existing == key => Ok(false),
        Err(existing) => Err(existing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_empty_slot_succeeds() {
        let slot = AtomicU64::new(EMPTY_KEY);
        assert_eq!(claim_key_slot(&slot, 42), Ok(true));
        assert_eq!(slot.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn claim_same_key_twice_reports_it_was_already_held() {
        let slot = AtomicU64::new(EMPTY_KEY);
        assert_eq!(claim_key_slot(&slot, 7), Ok(true));
        assert_eq!(claim_key_slot(&slot, 7), Ok(false));
    }

    #[test]
    fn claim_conflicting_key_reports_owner() {
        let slot = AtomicU64::new(EMPTY_KEY);
        claim_key_slot(&slot, 7).unwrap();
        assert_eq!(claim_key_slot(&slot, 9), Err(7));
    }
}
