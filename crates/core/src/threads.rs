//! The single source of truth for worker-thread defaults.
//!
//! Every layer that owns RR-set generation (the shared `RrCache` behind a
//! `Workbench` and the experiment harness) defaults its thread count from here, so setting
//! `RMSA_THREADS` configures the whole stack consistently. Thread count
//! never changes the generated collections — generation is chunked on
//! `(seed, chunk_index)` — so this is purely a throughput knob.

/// Fallback when `RMSA_THREADS` is unset or unparsable.
pub const FALLBACK_THREADS: usize = 4;

/// The default worker-thread count: `RMSA_THREADS` when set to a positive
/// integer, [`FALLBACK_THREADS`] otherwise.
pub fn default_num_threads() -> usize {
    std::env::var("RMSA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(FALLBACK_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_positive() {
        // Whatever the environment says, the result is a usable count.
        assert!(default_num_threads() >= 1);
    }
}
