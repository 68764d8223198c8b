//! Checked zero-copy reinterpretation between byte and word slices.
//!
//! The on-disk snapshot format (`bane-snap`) stores all numeric sections as
//! little-endian `u32`/`u64` words at 8-byte-aligned offsets. On a
//! little-endian host a loaded file can therefore be viewed directly as word
//! slices without copying — but only if the pointer really is aligned and the
//! length really is a whole number of words. The functions here perform
//! exactly those checks and return `None` instead of invoking undefined
//! behaviour when they fail, so callers can surface corruption as an error.
//!
//! Big-endian hosts must not use the zero-copy view; the loader in
//! `bane-snap` rejects files whose endianness marker does not match the host
//! before these functions are reached.
//!
//! # Examples
//!
//! ```
//! use bane_util::cast;
//!
//! let words: Vec<u32> = vec![1, 2, 3];
//! let bytes = cast::u32s_as_bytes(&words);
//! assert_eq!(bytes.len(), 12);
//! assert_eq!(cast::as_u32s(bytes), Some(&words[..]));
//! ```

/// Views a byte slice as `u32` words, zero-copy.
///
/// Returns `None` if the slice is misaligned for `u32` or its length is not
/// a multiple of 4.
#[inline]
pub fn as_u32s(bytes: &[u8]) -> Option<&[u32]> {
    // An empty slice casts unconditionally: its pointer is never read, and
    // its address (alignment 1) carries no information. Empty sections are
    // legitimate in the snapshot format, so this must not depend on where a
    // zero-length borrow happens to point.
    if bytes.is_empty() {
        return Some(&[]);
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>())
        || !bytes.len().is_multiple_of(4)
    {
        return None;
    }
    // SAFETY: alignment and length divisibility checked above; every bit
    // pattern is a valid u32; the lifetime is inherited from `bytes`.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
}

/// Views a byte slice as `u64` words, zero-copy.
///
/// Returns `None` if the slice is misaligned for `u64` or its length is not
/// a multiple of 8.
#[inline]
pub fn as_u64s(bytes: &[u8]) -> Option<&[u64]> {
    // See `as_u32s`: empty casts must succeed regardless of address.
    if bytes.is_empty() {
        return Some(&[]);
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u64>())
        || !bytes.len().is_multiple_of(8)
    {
        return None;
    }
    // SAFETY: alignment and length divisibility checked above; every bit
    // pattern is a valid u64; the lifetime is inherited from `bytes`.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) })
}

/// Views `u32` words as their underlying bytes in host order, zero-copy.
///
/// Total: word slices are always validly readable as bytes.
#[inline]
pub fn u32s_as_bytes(words: &[u32]) -> &[u8] {
    // SAFETY: u32 has no padding and byte alignment (1) is always satisfied.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 4) }
}

/// Views `u64` words as their underlying bytes in host order, zero-copy.
///
/// Total: word slices are always validly readable as bytes.
#[inline]
pub fn u64s_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: u64 has no padding and byte alignment (1) is always satisfied.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// Views `u64` words as their underlying bytes in host order, mutably and
/// zero-copy — the single-copy way to fill an 8-byte-aligned buffer from a
/// byte slice.
///
/// Total: every byte pattern written through the view is a valid `u64`.
#[inline]
pub fn u64s_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: u64 has no padding, byte alignment (1) is always satisfied,
    // every bit pattern is a valid u64, and the exclusive borrow of `words`
    // is carried over to the returned view.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
}

/// Whether the host stores integers little-endian.
///
/// The snapshot format is defined as little-endian on disk; on a big-endian
/// host the zero-copy read path is unsound and the loader must refuse (or
/// byte-swap, which the format does not implement).
#[inline]
pub const fn host_is_little_endian() -> bool {
    cfg!(target_endian = "little")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let words: Vec<u32> = vec![0, 1, 0xdead_beef, u32::MAX];
        let bytes = u32s_as_bytes(&words);
        assert_eq!(bytes.len(), 16);
        assert_eq!(as_u32s(bytes), Some(&words[..]));
    }

    #[test]
    fn u64_roundtrip() {
        let words: Vec<u64> = vec![7, u64::MAX, 0x0123_4567_89ab_cdef];
        let bytes = u64s_as_bytes(&words);
        assert_eq!(bytes.len(), 24);
        assert_eq!(as_u64s(bytes), Some(&words[..]));
    }

    #[test]
    fn u64_bytes_mut_writes_through() {
        let mut words = vec![0u64; 2];
        u64s_as_bytes_mut(&mut words)[..9].copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(words, [1, 2].map(|b| u64::from_ne_bytes([b, 0, 0, 0, 0, 0, 0, 0])));
    }

    #[test]
    fn length_not_divisible_rejected() {
        let backing: Vec<u64> = vec![0, 0];
        let bytes = u64s_as_bytes(&backing);
        assert_eq!(as_u32s(&bytes[..7]), None);
        assert_eq!(as_u64s(&bytes[..12]), None);
    }

    #[test]
    fn misaligned_rejected() {
        let backing: Vec<u64> = vec![0; 4];
        let bytes = u64s_as_bytes(&backing);
        // Offset by one byte: still plenty long, but misaligned.
        assert_eq!(as_u32s(&bytes[1..13]), None);
        assert_eq!(as_u64s(&bytes[1..17]), None);
        // Offset by four bytes: fine for u32, misaligned for u64.
        assert!(as_u32s(&bytes[4..12]).is_some());
        assert_eq!(as_u64s(&bytes[4..20]), None);
    }

    #[test]
    fn empty_slices_ok() {
        assert_eq!(as_u32s(&[]), Some(&[][..]));
        assert_eq!(as_u64s(&[]), Some(&[][..]));
        assert_eq!(u32s_as_bytes(&[]), &[] as &[u8]);
    }
}
