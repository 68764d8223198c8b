//! Support utilities shared across the `bane` workspace.
//!
//! The constraint solver in `bane-core` is extremely hash-map intensive (edge
//! dedup sets, term interning) and index intensive (adjacency lists keyed by
//! dense node ids). This crate provides:
//!
//! - [`hash`]: a fast, deterministic, non-cryptographic hasher ([`FxHasher`])
//!   and the [`FxHashMap`]/[`FxHashSet`] aliases built on it,
//! - [`idx`]: the [`newtype_index!`](crate::newtype_index) macro for dense
//!   `u32` index newtypes,
//! - [`bitset`]: a growable bit set ([`BitSet`]) and an epoch-stamped
//!   visited set ([`EpochSet`]) used by the online cycle-detection searches,
//! - [`rng`]: a tiny deterministic PRNG ([`SplitMix64`]) and a Fisher–Yates
//!   [`shuffle`](rng::shuffle) used to pick random variable orders,
//! - [`cast`]: checked zero-copy byte↔word slice reinterpretation used by
//!   the `bane-snap` on-disk snapshot reader.
//!
//! # Examples
//!
//! ```
//! use bane_util::{FxHashMap, BitSet};
//!
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m[&7], "seven");
//!
//! let mut bits = BitSet::new(100);
//! bits.insert(42);
//! assert!(bits.contains(42));
//! ```

pub mod bitset;
pub mod cast;
pub mod hash;
pub mod idx;
pub mod rng;

pub use bitset::{BitSet, EpochSet, EpochSetImpl, EpochStamp};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use rng::SplitMix64;
