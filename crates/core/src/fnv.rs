//! FNV-1a: the non-cryptographic hash the paper's prototype uses to identify
//! epoch-boundary packets (§6.1).
//!
//! FNV was chosen by the authors because it is fast (a handful of integer
//! multiplies per packet — the only extra per-packet work the datapath does)
//! and has a low collision rate. The sendbox and receivebox must compute the
//! *same* hash over the *same* header bytes, so the function is fixed here
//! rather than pluggable.

/// 64-bit FNV-1a offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV64_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// Incremental FNV-1a hasher, for callers that assemble the header subset
/// field by field without a temporary buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Creates a hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv1a {
            state: FNV64_OFFSET,
        }
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV64_PRIME);
        }
        self
    }

    /// Feeds a big-endian `u16`.
    pub fn write_u16(&mut self, v: u16) -> &mut Self {
        self.write(&v.to_be_bytes())
    }

    /// Feeds a big-endian `u32`.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_be_bytes())
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));

        let mut h2 = Fnv1a::new();
        h2.write_u16(0x0102).write_u32(0x0304_0506);
        assert_eq!(h2.finish(), fnv1a(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn small_input_changes_change_the_hash() {
        assert_ne!(fnv1a(b"packet-1"), fnv1a(b"packet-2"));
        assert_ne!(fnv1a(&[0, 0, 0, 1]), fnv1a(&[0, 0, 1, 0]));
    }

    #[test]
    fn distribution_over_low_bits_is_reasonable() {
        // Hashing sequential IDs should spread across the low bits well
        // enough for modulo-based epoch sampling. With 4096 inputs and a
        // sampling period of 16, roughly 1/16 should match.
        let mut matches = 0;
        for i in 0u32..4096 {
            let mut h = Fnv1a::new();
            h.write_u16(i as u16).write_u32(0x0a00_0001).write_u16(443);
            if h.finish().is_multiple_of(16) {
                matches += 1;
            }
        }
        let frac = matches as f64 / 4096.0;
        assert!(
            (0.03..0.1).contains(&frac),
            "sampling fraction {frac} far from 1/16"
        );
    }
}
