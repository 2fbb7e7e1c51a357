//! Digests shared by the same-bytes oracles (`lhr_oracle`, `serve_oracle`,
//! `sim_oracle`). Kept out of `common/mod.rs` so that each oracle includes
//! exactly the helpers it uses.

/// FNV-1a digest and byte length of one pinned output.
pub type Pin = (u64, usize);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The [`Pin`] of `s`.
pub fn pin(s: &str) -> Pin {
    (fnv1a(s.as_bytes()), s.len())
}
