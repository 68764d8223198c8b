//! On-disk layout constants and the integrity checksum.
//!
//! The normative specification of the format lives in
//! `docs/SNAPSHOT_FORMAT.md`; the constants here are the single in-code
//! copy of the numbers that document fixes. `tests/golden.rs` asserts the
//! two stay in lock step (the spec's version line is parsed and compared
//! against [`FORMAT_VERSION`] and against the bytes a writer emits), so a
//! format change that forgets to update the spec — or vice versa — fails CI.

/// The 8-byte magic at offset 0 of every snapshot file.
pub const MAGIC: [u8; 8] = *b"BANESNAP";

/// The format version this crate writes and reads.
///
/// Bumped on any change to the header, section table, section set, or
/// section encodings. Readers reject files whose version differs: the
/// format carries no in-band migration machinery, and a snapshot is cheap
/// to regenerate from the solver (see the compatibility policy in
/// `docs/SNAPSHOT_FORMAT.md` §6).
pub const FORMAT_VERSION: u32 = 2;

/// The endianness marker stored at header offset 12, written in host byte
/// order. A reader that decodes a different value is running on a host
/// whose endianness differs from the writer's and must reject the file:
/// the zero-copy read path reinterprets file bytes as host-order words.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Header size in bytes. The section table starts at this offset.
pub const HEADER_BYTES: usize = 64;

/// Byte offset of the [`FORMAT_VERSION`] word within the header.
pub const VERSION_OFFSET: usize = 8;

/// Byte offset of the [`checksum`] word within the header.
pub const CHECKSUM_OFFSET: usize = 48;

/// Size of one section-table entry in bytes
/// (`id: u32`, `reserved: u32`, `offset: u64`, `len: u64`).
pub const SECTION_ENTRY_BYTES: usize = 24;

/// Required alignment of every section payload's file offset, and the
/// granularity file and section padding is zero-filled to.
pub const SECTION_ALIGN: usize = 8;

/// Section identifiers, in file order. See `docs/SNAPSHOT_FORMAT.md` §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Canonical representative of every variable (`u32` per variable).
    Rep = 0,
    /// CSR predecessor rows: `(start, end)` pairs into [`Cols`](Self::Cols).
    VarRows = 1,
    /// CSR predecessor columns: canonical, sorted, distinct variables.
    Cols = 2,
    /// CSR source rows: `(start, end)` pairs into [`Srcs`](Self::Srcs).
    SrcRows = 3,
    /// CSR source columns: sorted, distinct term ids.
    Srcs = 4,
    /// Least-solution spans: `(start, end)` pairs into
    /// [`LsArena`](Self::LsArena), indexed by representative.
    LsSpans = 5,
    /// Least-solution arena: concatenated sorted source-term sets.
    LsArena = 6,
    /// Term rows: `(start, end)` word ranges into
    /// [`TermData`](Self::TermData).
    TermRows = 7,
    /// Term payloads: constructor word followed by `(tag, payload)` pairs.
    TermData = 8,
    /// Constructor rows: `(name_start, name_end, arity, variance_bits)`.
    ConRows = 9,
    /// Constructor name bytes (UTF-8, concatenated).
    Strs = 10,
}

/// Every section id, in the order sections appear in the table and file.
pub const SECTIONS: [SectionId; 11] = [
    SectionId::Rep,
    SectionId::VarRows,
    SectionId::Cols,
    SectionId::SrcRows,
    SectionId::Srcs,
    SectionId::LsSpans,
    SectionId::LsArena,
    SectionId::TermRows,
    SectionId::TermData,
    SectionId::ConRows,
    SectionId::Strs,
];

/// Number of sections in a file.
pub const SECTION_COUNT: usize = SECTIONS.len();

/// File offset at which section payloads begin (header + section table,
/// already 8-byte aligned: 64 + 11 × 24 = 328).
pub const PAYLOAD_START: usize = HEADER_BYTES + SECTION_COUNT * SECTION_ENTRY_BYTES;

/// `SetExpr` tag words used inside the [`SectionId::TermData`] encoding.
pub mod expr_tag {
    /// The empty set `0` (payload word is 0).
    pub const ZERO: u32 = 0;
    /// The universal set `1` (payload word is 0).
    pub const ONE: u32 = 1;
    /// A set variable (payload word is the raw variable index).
    pub const VAR: u32 = 2;
    /// A constructed term (payload word is the raw term id).
    pub const TERM: u32 = 3;
}

/// Maximum constructor arity representable by the `variance_bits` word.
pub const MAX_ARITY: usize = 32;

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
pub const fn align_up(n: usize) -> usize {
    (n + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
}

/// Multiplier of the checksum's mixing step (odd, so multiplication by it
/// is a bijection on `u64`).
const CHECKSUM_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial states of the checksum's four lanes.
const CHECKSUM_SEEDS: [u64; 4] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

/// One checksum step: `x = (state ^ w) * K; x ^ (x >> 29)`.
///
/// For a fixed `w` the step is a bijection of `state` (xor, odd multiply
/// and xorshift each are), and for a fixed `state` a bijection of `w`, so
/// a change to any single input word always changes the result.
#[inline(always)]
fn mix(state: u64, w: u64) -> u64 {
    let x = (state ^ w).wrapping_mul(CHECKSUM_K);
    x ^ (x >> 29)
}

/// The integrity checksum stored in the header, computed over every byte
/// from the end of the header to the end of the file (section table,
/// payloads, and padding included).
///
/// `bytes` is read as little-endian `u64` words, word `i` feeding lane
/// `i mod 4`; a final partial word is zero-padded. The four lanes are then
/// folded in order and the byte length is mixed in last. The lanes carry
/// independent dependency chains, so the multiply latency overlaps across
/// them. `docs/SNAPSHOT_FORMAT.md` §2.1 defines the function exactly.
///
/// The checksum is not cryptographic; it guards against truncation and bit
/// rot, not adversaries (see `docs/SNAPSHOT_FORMAT.md` §5).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
    }
    // The last 0–31 bytes continue the rotation at lane 0, the final
    // partial word zero-padded.
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *lane = mix(*lane, u64::from_le_bytes(word));
    }
    let h = lanes[1..].iter().fold(lanes[0], |h, &lane| mix(h, lane));
    mix(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_start_is_aligned() {
        assert_eq!(PAYLOAD_START, 328);
        assert_eq!(PAYLOAD_START % SECTION_ALIGN, 0);
    }

    #[test]
    fn section_ids_are_dense_and_ordered() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert_eq!(*s as u32 as usize, i);
        }
    }

    #[test]
    fn checksum_known_vectors() {
        // Fixed vectors of the definition in docs/SNAPSHOT_FORMAT.md §2.1,
        // computed by an independent implementation of that text.
        assert_eq!(checksum(b""), 0xc5ff_c0c0_a100_ddde);
        let bytes: Vec<u8> = (1..=43).collect();
        // One word: lane 0 only.
        assert_eq!(checksum(&bytes[..8]), 0x463d_32d6_aed6_5c90);
        // Five full words (all four lanes, then lane 0 again) and a
        // three-byte tail in lane 1.
        assert_eq!(checksum(&bytes), 0x49ff_e21f_0fd6_c6c9);
    }

    #[test]
    fn align_up_rounds_to_eight() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 8);
        assert_eq!(align_up(8), 8);
        assert_eq!(align_up(9), 16);
    }
}
