//! Order statistics over recorded samples, and answer digests.

use bane_core::TermId;

/// The `q`-quantile of `samples` (sorted in place), smoothed: the mean of
/// the order statistics whose rank lies within `w = min(0.1, (1 - q) / 4)`
/// of `q` (at least the nearest-rank one). Timings are whole nanoseconds,
/// so a single order statistic of sub-microsecond reads repeats exactly
/// from run to run. And a single order statistic that falls where two
/// populations meet — `serve-edit`'s restore commits are exactly half of
/// its commits, and the host's speed drifts between two levels — jumps
/// between them from run to run, where the window mean moves in
/// proportion. 0 when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    let w = (0.1f64).min((1.0 - q) / 4.0);
    let rank = |p: f64| ((p * n).ceil() as usize).clamp(1, samples.len());
    let window = &samples[rank(q - w) - 1..rank(q + w)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// The smoothed median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// FNV-1a over a sequence of 32-bit words, length included: the digest
/// every checked answer is compared by.
pub fn digest(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0u32;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    for b in n.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The digest of a points-to answer.
pub fn points_to_digest(terms: &[TermId]) -> u64 {
    digest(terms.iter().map(|t| t.raw()))
}

/// The digest of an alias answer.
pub fn alias_digest(alias: bool) -> u64 {
    digest([u32::from(alias)])
}

/// [`digest`] of a byte string (response frames).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    digest(bytes.iter().map(|&b| u32::from(b)))
}
