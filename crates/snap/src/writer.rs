//! The snapshot writer: a solved run → format-v2 bytes.
//!
//! Writing is a pure function of the solved state — no timestamps, no
//! host identifiers, no randomness — so the same run always produces the
//! same bytes. That determinism is what makes the committed golden fixture
//! (`tests/fixtures/tiny.snap`) and the cross-backend byte-equality
//! property tests possible.
//!
//! The writer encodes into an in-memory `Vec<u8>` first
//! ([`encode_solver`]/[`encode_parts`]) and only then touches the
//! filesystem ([`write_solver`]), so every structural path is testable
//! without temp files. The image is allocated once at its exact size and
//! every section is written straight into its place.

use bane_core::cons::{ConRegistry, Variance};
use bane_core::expr::{SetExpr, TermArena, TermId, Var};
use bane_core::least::{CsrSnapshot, LeastSolution};
use bane_core::solver::{Form, Solver};
use bane_obs::{Counter, Recorder};

use crate::error::SnapError;
use crate::format::{
    self, expr_tag, SectionId, CHECKSUM_OFFSET, ENDIAN_MARKER, FORMAT_VERSION, HEADER_BYTES,
    MAGIC, MAX_ARITY, PAYLOAD_START, SECTIONS, SECTION_COUNT,
};

/// Computes the least solution of `solver` and encodes it, with the CSR
/// snapshot that pass froze, as a complete snapshot file image.
///
/// Takes `&mut` because [`Solver::least_solution`] does; call after
/// [`Solver::solve`] has converged.
pub fn encode_solver(solver: &mut Solver) -> Result<Vec<u8>, SnapError> {
    let ls = solver.least_solution();
    encode_parts(solver.config().form, solver.csr_snapshot(), &ls, solver.terms(), solver.cons())
}

/// Encodes already-extracted solved-run parts as a snapshot file image.
///
/// `csr` must be built from the same run `ls` was computed from; the
/// writer cross-checks their variable counts but cannot detect a deeper
/// mismatch. Most callers want [`encode_solver`].
pub fn encode_parts(
    form: Form,
    csr: &CsrSnapshot,
    ls: &LeastSolution,
    terms: &TermArena,
    cons: &ConRegistry,
) -> Result<Vec<u8>, SnapError> {
    let (var_rows, cols, src_rows, srcs) = csr.raw_parts();
    let (rep, arena, spans) = ls.raw_parts();
    let var_count = rep.len();
    if var_rows.len() != var_count || src_rows.len() != var_count || spans.len() != var_count {
        return Err(SnapError::Corrupt("csr and least solution disagree on variable count"));
    }
    if cons.iter().any(|(_, sig)| sig.arity() > MAX_ARITY) {
        return Err(SnapError::Unsupported("constructor arity exceeds 32"));
    }
    let term_words: usize = terms.ids().map(|id| 1 + 2 * terms.data(id).args().len()).sum();
    let name_bytes: usize = cons.iter().map(|(_, sig)| sig.name().len()).sum();

    // Section byte lengths in SECTIONS order, then the aligned layout.
    let lens: [usize; SECTION_COUNT] = [
        4 * var_count,
        8 * var_count,
        4 * cols.len(),
        8 * var_count,
        4 * srcs.len(),
        8 * var_count,
        4 * arena.len(),
        8 * terms.len(),
        4 * term_words,
        16 * cons.len(),
        name_bytes,
    ];
    let mut offsets = [0usize; SECTION_COUNT];
    let mut file_len = PAYLOAD_START;
    for (off, len) in offsets.iter_mut().zip(lens) {
        *off = file_len;
        file_len = format::align_up(file_len + len);
    }
    let sect = |id: SectionId| offsets[id as usize]..offsets[id as usize] + lens[id as usize];

    // Zero-filled, so padding, reserved fields and the checksum slot need
    // no writes of their own.
    let mut out = vec![0u8; file_len];
    out[..8].copy_from_slice(&MAGIC);
    let form_word = match form {
        Form::Standard => 0,
        Form::Inductive => 1,
    };
    // The eight header words at offsets 8..40 (spec §3).
    put_words(
        &mut out[format::VERSION_OFFSET..40],
        [
            FORMAT_VERSION,
            ENDIAN_MARKER,
            HEADER_BYTES as u32,
            SECTION_COUNT as u32,
            form_word,
            var_count as u32,
            terms.len() as u32,
            cons.len() as u32,
        ],
    );
    for (i, id) in SECTIONS.into_iter().enumerate() {
        let entry = &mut out[section_table_offset(id)..][..format::SECTION_ENTRY_BYTES];
        entry[..4].copy_from_slice(&(id as u32).to_le_bytes());
        entry[8..16].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
        entry[16..].copy_from_slice(&(lens[i] as u64).to_le_bytes());
    }

    put_words(&mut out[sect(SectionId::Rep)], Var::unwrap_slice(rep).iter().copied());
    put_pairs(&mut out[sect(SectionId::VarRows)], var_rows);
    put_words(&mut out[sect(SectionId::Cols)], Var::unwrap_slice(cols).iter().copied());
    put_pairs(&mut out[sect(SectionId::SrcRows)], src_rows);
    put_words(&mut out[sect(SectionId::Srcs)], TermId::unwrap_slice(srcs).iter().copied());
    put_pairs(&mut out[sect(SectionId::LsSpans)], spans);
    put_words(&mut out[sect(SectionId::LsArena)], TermId::unwrap_slice(arena).iter().copied());

    let mut term_end = 0u32;
    let term_rows = terms.ids().flat_map(|id| {
        let start = term_end;
        term_end += 1 + 2 * terms.data(id).args().len() as u32;
        [start, term_end]
    });
    put_words(&mut out[sect(SectionId::TermRows)], term_rows);
    let term_data = terms.ids().flat_map(|id| {
        let data = terms.data(id);
        let args = data.args().iter().flat_map(|&arg| match arg {
            SetExpr::Zero => [expr_tag::ZERO, 0],
            SetExpr::One => [expr_tag::ONE, 0],
            SetExpr::Var(v) => [expr_tag::VAR, v.raw()],
            SetExpr::Term(t) => [expr_tag::TERM, t.raw()],
        });
        std::iter::once(data.con().raw()).chain(args)
    });
    put_words(&mut out[sect(SectionId::TermData)], term_data);

    let mut name_end = 0u32;
    let con_rows = cons.iter().flat_map(|(_, sig)| {
        let start = name_end;
        name_end += sig.name().len() as u32;
        let variance_bits = sig
            .variances()
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Variance::Contravariant))
            .fold(0u32, |bits, (i, _)| bits | 1 << i);
        [start, name_end, sig.arity() as u32, variance_bits]
    });
    put_words(&mut out[sect(SectionId::ConRows)], con_rows);
    let names = cons.iter().flat_map(|(_, sig)| sig.name().bytes());
    for (slot, b) in out[sect(SectionId::Strs)].iter_mut().zip(names) {
        *slot = b;
    }

    let checksum = format::checksum(&out[HEADER_BYTES..]);
    out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Encodes `solver` and writes the snapshot to `path`, returning the file
/// size in bytes.
///
/// When a recorder is supplied, the written size is added to the
/// `snap.bytes-written` counter. The write goes through a temporary
/// sibling file renamed into place, so a crash mid-write never leaves a
/// half-written file at `path`.
pub fn write_solver(
    solver: &mut Solver,
    path: &std::path::Path,
    rec: Option<&Recorder>,
) -> Result<u64, SnapError> {
    let bytes = encode_solver(solver)?;
    let tmp = path.with_extension("snap.tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    if let Some(r) = rec {
        r.add(Counter::SnapBytesWritten, bytes.len() as u64);
    }
    Ok(bytes.len() as u64)
}

/// Writes `words` little-endian into `dst`, which must hold exactly
/// that many words.
fn put_words(dst: &mut [u8], words: impl IntoIterator<Item = u32>) {
    let (mut slots, mut words) = (dst.chunks_exact_mut(4), words.into_iter());
    for (slot, w) in (&mut slots).zip(&mut words) {
        slot.copy_from_slice(&w.to_le_bytes());
    }
    debug_assert!(
        slots.next().is_none() && words.next().is_none(),
        "word count disagrees with the section length"
    );
}

/// Writes row pairs into `dst` as consecutive little-endian words.
fn put_pairs(dst: &mut [u8], pairs: &[(u32, u32)]) {
    debug_assert_eq!(dst.len(), 8 * pairs.len());
    for (slot, &(s, e)) in dst.chunks_exact_mut(8).zip(pairs) {
        slot[..4].copy_from_slice(&s.to_le_bytes());
        slot[4..].copy_from_slice(&e.to_le_bytes());
    }
}

/// Identifies the section table entry for `id` in an encoded image —
/// shared with the loader and the corruption tests, which patch specific
/// sections.
pub fn section_table_offset(id: SectionId) -> usize {
    HEADER_BYTES + (id as u32 as usize) * format::SECTION_ENTRY_BYTES
}
