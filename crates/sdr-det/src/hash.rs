//! FNV-1a, 64-bit: the workspace's one platform-independent digest.
//!
//! Pinned digests (the chaos suite's trace hash, the traversal pins, the
//! wire format's golden digest, `Cluster::structure_hash`) must not move
//! with the standard library, whose `DefaultHasher` algorithm is not
//! pinned across releases. FNV-1a is fixed by its two constants.

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher: feeding bytes in several calls gives the
/// digest of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen nothing.
    pub fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
