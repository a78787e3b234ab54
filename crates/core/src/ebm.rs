//! Eager Buffer Management (paper Section 5.3).
//!
//! Merging delta into full dominates iteration cost once relations grow,
//! largely because of buffer churn: a naive engine allocates a buffer of
//! size `|full| + |delta|` every iteration and frees it immediately after.
//! EBM instead keeps the buffer alive across iterations and, when it must
//! grow, grows it to `|full| + k x |delta|` so the next several iterations'
//! merges fit without reallocating. The cost is a bounded amount of slack
//! memory; the benefit concentrates in runs with long "tail" phases of many
//! small deltas (paper Table 1).

/// Configuration for eager buffer management.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbmConfig {
    /// Whether EBM is enabled. When disabled the engine sizes buffers
    /// exactly and releases slack after every merge (the "Normal" columns of
    /// Table 1).
    pub enabled: bool,
    /// The over-allocation factor `k`: on growth, reserve room for
    /// `k x |delta|` additional tuples beyond the merged size.
    pub growth_factor: f64,
}

impl Default for EbmConfig {
    /// EBM on with `k = 2`: the paper's ~1.3-1.4x footprint (Table 1). On
    /// the benchmark's workloads it peaks at 1.3-1.5x EBM off where EBM
    /// costs memory and models 6-11 % faster on REACH; `k = 8` peaked at
    /// 2.7-4.6x for at most 1.2 % less modeled time (29 % more where slack
    /// allocation dominates), `k = 1` models up to 0.8 % slower.
    fn default() -> Self {
        EbmConfig {
            enabled: true,
            growth_factor: 2.0,
        }
    }
}

impl EbmConfig {
    /// EBM disabled (exact-size allocation every iteration).
    pub fn disabled() -> Self {
        EbmConfig {
            enabled: false,
            growth_factor: 0.0,
        }
    }

    /// EBM enabled with an explicit growth factor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and positive.
    pub fn with_growth_factor(k: f64) -> Self {
        assert!(k.is_finite() && k > 0.0, "growth factor must be positive");
        EbmConfig {
            enabled: true,
            growth_factor: k,
        }
    }

    /// How many *additional* tuple slots to reserve ahead of a merge that
    /// will add `delta_rows` tuples. Zero when EBM is disabled.
    pub fn reserve_rows(&self, delta_rows: usize) -> usize {
        if !self.enabled || delta_rows == 0 {
            return 0;
        }
        (delta_rows as f64 * self.growth_factor).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_enabled_with_positive_factor() {
        let cfg = EbmConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.growth_factor > 1.0);
    }

    #[test]
    fn disabled_reserves_nothing() {
        assert_eq!(EbmConfig::disabled().reserve_rows(1000), 0);
    }

    #[test]
    fn enabled_reserves_k_times_delta() {
        let cfg = EbmConfig::with_growth_factor(4.0);
        assert_eq!(cfg.reserve_rows(100), 400);
        assert_eq!(cfg.reserve_rows(0), 0);
    }

    #[test]
    #[should_panic(expected = "growth factor must be positive")]
    fn non_positive_factor_is_rejected() {
        EbmConfig::with_growth_factor(0.0);
    }
}
