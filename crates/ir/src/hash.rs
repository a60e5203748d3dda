//! The workspace's one content hash: 64-bit FNV-1a.
//!
//! Every persistent identity in the system is derived from it — module
//! and program content hashes (which name snapshot-store files and key the
//! golden cache), the snapshot-file checksum, region hashes and their
//! salts, the static-prune signature and bit-table fingerprints, the
//! matrix fingerprint, and the fault-model registry hash. Those values are
//! written into checkpoints and compared across processes, so they must
//! come from this single definition and never drift.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

fn extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    extend(OFFSET, bytes)
}

/// Fold one more word, as its eight little-endian bytes, into an FNV-1a
/// state: `fnv_fold(fnv1a(a), x) == fnv1a(a ++ x.to_le_bytes())`.
pub fn fnv_fold(h: u64, word: u64) -> u64 {
    extend(h, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fold_continues_the_byte_stream() {
        let x = 0x0123_4567_89ab_cdefu64;
        let mut joined = b"foo".to_vec();
        joined.extend_from_slice(&x.to_le_bytes());
        assert_eq!(fnv_fold(fnv1a(b"foo"), x), fnv1a(&joined));
    }
}
