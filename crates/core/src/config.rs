//! CHIME configuration.
//!
//! Every technique from the paper can be toggled independently so the factor
//! analysis (Fig. 15) can start from a Sherman-like configuration and apply
//! the optimizations one by one.

/// Stored key size in bytes. Keys are `u64` at the API; Fig. 16's
/// variable-length-key layout arithmetic builds a [`crate::layout::LeafLayout`]
/// with larger keys directly.
pub const KEY_SIZE: usize = 8;

/// Configuration of a CHIME tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChimeConfig {
    /// Leaf span: number of hash-table entries per leaf node. Must be a
    /// multiple of `neighborhood`. Paper default: 64.
    pub span: usize,
    /// Fan-out of internal (B+-tree) nodes. Paper default: 64.
    pub internal_span: usize,
    /// Hopscotch neighborhood size H (2..=16). Paper default: 8.
    pub neighborhood: usize,
    /// Inline value size in bytes. Paper default: 8.
    pub value_size: usize,
    /// Compute-side cache budget per CN, in bytes (internal nodes).
    pub cache_bytes: u64,
    /// Hotspot-buffer budget per CN, in bytes. Hotness-aware speculative
    /// reads (§4.3) run exactly when it is non-zero: 0 disables both the
    /// buffer and the reads.
    pub hotspot_bytes: u64,
    /// Enable vacancy-bitmap piggybacking onto the lock word via masked-CAS
    /// (§4.2.1). When disabled the vacancy bitmap lives in a separate word
    /// and costs a dedicated READ on every insert.
    pub vacancy_piggyback: bool,
    /// Enable leaf-metadata replication every H entries (§4.2.2). When
    /// disabled the leaf keeps a single header and every read pays a
    /// dedicated metadata READ.
    pub metadata_replication: bool,
    /// Enable sibling-based validation (§4.2.3). When disabled the leaf
    /// metadata carries full fence keys instead (more metadata bytes).
    pub sibling_validation: bool,
    /// Store values out-of-line behind an 8-byte pointer (variable-length
    /// value support, §4.5).
    pub indirect_values: bool,
    /// Crash-safe lock recovery: number of consecutive failed lock-CAS
    /// attempts observing an *identical* locked word before a waiter
    /// presumes the holder dead and reclaims the lock by bumping the lease
    /// epoch (see `lockword`). `0` disables reclamation (the default):
    /// stealing from a holder that is merely slow is unsound, so leases are
    /// opted into by fault-tolerant deployments / the chaos harness only.
    pub lock_lease_spins: u32,
}

impl Default for ChimeConfig {
    fn default() -> Self {
        ChimeConfig {
            span: 64,
            internal_span: 64,
            neighborhood: 8,
            value_size: 8,
            cache_bytes: 100 << 20,
            hotspot_bytes: 30 << 20,
            vacancy_piggyback: true,
            metadata_replication: true,
            sibling_validation: true,
            indirect_values: false,
            lock_lease_spins: 0,
        }
    }
}

impl ChimeConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (e.g. span not a multiple of H).
    pub fn validate(&self) {
        assert!(self.neighborhood >= 2 && self.neighborhood <= 16);
        assert!(self.span >= self.neighborhood);
        assert_eq!(
            self.span % self.neighborhood,
            0,
            "span must be a multiple of the neighborhood size"
        );
        assert!(self.internal_span >= 4);
        assert!(self.value_size >= 1);
        assert!(
            self.vacancy_piggyback || !self.sibling_validation,
            "sibling validation needs the argmax field of the piggybacked lock word"
        );
    }

    /// A configuration with all CHIME-specific optimizations disabled
    /// ("Sherman + hopscotch leaf node", the Fig. 15 starting point).
    pub fn baseline() -> Self {
        ChimeConfig {
            vacancy_piggyback: false,
            metadata_replication: false,
            sibling_validation: false,
            hotspot_bytes: 0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ChimeConfig::default().validate();
        ChimeConfig::baseline().validate();
    }

    #[test]
    #[should_panic]
    fn span_must_be_multiple_of_h() {
        ChimeConfig {
            span: 62,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn neighborhood_capped_at_16() {
        ChimeConfig {
            neighborhood: 32,
            span: 64,
            ..Default::default()
        }
        .validate();
    }
}
