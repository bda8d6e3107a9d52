//! Protocol thresholds of the GA hybrid protocols (§5.3).
//!
//! "The thresholds used for switching between different protocols are
//! selected empirically to maximize the performance" — these are the knobs.

/// Thresholds and sizes of the hybrid GA protocols.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Contiguous transfers of at least this many **bytes** use direct
    /// remote memory copy (`LAPI_Put`/`LAPI_Get`) instead of active
    /// messages.
    pub direct_min_bytes: usize,
    /// 2-D patches of at least this many total bytes switch to per-column
    /// direct RMC (the paper's ≈0.5 MB switch point in Figures 3–4).
    pub direct_2d_min_bytes: usize,
    /// Accumulates larger than this use a single big active message with
    /// the data in `udata` (landing in a pool buffer, combined by the
    /// completion handler) instead of a pipelined header-payload stream.
    pub acc_udata_min_bytes: usize,
    /// Number of preallocated AM buffers per node (§5.3.1). Preallocated
    /// means the address range is reserved at backend init; its pages
    /// commit on first use, as on AIX. A request larger than a buffer, or
    /// one that finds every buffer taken, counts as `pool_exhausted`.
    pub pool_buffers: usize,
    /// Size of each pool buffer in bytes.
    pub pool_buffer_bytes: usize,
    /// Backoff charged between lock CAS retries (virtual µs).
    pub lock_backoff_us: u64,
    /// Use the §6 vector (`putv`/`getv`) extension for noncontiguous
    /// transfers instead of AM streams. Off by default — the paper's 1998
    /// protocols predate it; the ablation bench turns it on to quantify
    /// the improvement the paper predicts.
    pub use_vector_rmc: bool,
    /// Minimum bytes before a noncontiguous transfer uses the vector path
    /// (tiny requests still ride a single AM header).
    pub vector_min_bytes: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            direct_min_bytes: 976,
            direct_2d_min_bytes: 512 * 1024,
            acc_udata_min_bytes: 64 * 1024,
            pool_buffers: 16,
            pool_buffer_bytes: 256 * 1024,
            lock_backoff_us: 5,
            use_vector_rmc: false,
            vector_min_bytes: 2048,
        }
    }
}

impl GaConfig {
    /// Builder-style: enable the §6 vector-RMC extension.
    pub fn with_vector_rmc(mut self) -> Self {
        self.use_vector_rmc = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GaConfig::default();
        assert!(c.direct_min_bytes < c.direct_2d_min_bytes);
        assert!(c.pool_buffers > 0 && c.pool_buffer_bytes > 0);
    }
}
