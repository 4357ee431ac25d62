//! FNV-1a (64-bit), the workspace's one stable byte hash.
//!
//! Shard routing, scenario-trial seeds and the wire client's trace
//! seeds all fold their inputs through it, so its output is part of
//! every pinned result those feed: changing it moves sessions between
//! shards and re-seeds every scenario trial.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_more(OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a stream from hash state `h`:
/// `fnv1a_more(fnv1a(a), b) == fnv1a(a ++ b)`, so independent fields
/// fold into one hash without concatenating them.
pub fn fnv1a_more(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_more(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
