//! Atomic helpers mirroring the CUDA intrinsics HISA construction relies on.
//!
//! The paper's hash-table construction (Algorithm 2) uses `atomicCAS` both
//! to claim hash slots and to keep the *smallest* sorted-index position per
//! key. These helpers wrap the equivalent `std::sync::atomic` loops so the
//! data-structure code reads like the paper's pseudo-code.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

/// Atomically lowers `slot` to `value` if `value` is smaller than the value
/// currently stored (CUDA's `atomicMin` on a 32-bit cell). Returns the value
/// observed before the update.
pub fn atomic_min_u32(slot: &AtomicU32, value: u32) -> u32 {
    let mut current = slot.load(Ordering::Acquire);
    while value < current {
        match slot.compare_exchange_weak(current, value, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => return prev,
            Err(observed) => current = observed,
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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

    #[test]
    fn atomic_min_keeps_smallest() {
        let slot = AtomicU32::new(EMPTY_VALUE);
        atomic_min_u32(&slot, 10);
        atomic_min_u32(&slot, 25);
        atomic_min_u32(&slot, 3);
        assert_eq!(slot.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn atomic_min_under_contention_finds_global_minimum() {
        let slot = AtomicU32::new(EMPTY_VALUE);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let slot = &slot;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        atomic_min_u32(slot, t * 1000 + i + 1);
                    }
                });
            }
        });
        assert_eq!(slot.load(Ordering::Relaxed), 1);
    }
}
