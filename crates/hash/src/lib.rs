//! From-scratch hash primitives used across the SHHC reproduction.
//!
//! The paper fingerprints chunks with SHA-1 and relies on uniformly
//! distributed hashes for routing, bucketing and bloom filters. This crate
//! implements every hash the workspace needs without external
//! dependencies:
//!
//! - [`Sha1`] — the RFC 3174 digest used for chunk fingerprints,
//! - [`fnv1a64`] / [`Fnv1a`] — tiny non-cryptographic hash for test helpers,
//! - [`xxh64`] — fast 64-bit hash used for bloom-filter double hashing
//!   over arbitrary byte keys,
//! - [`RabinHasher`] — rolling Rabin fingerprint over a sliding window,
//!   used by the content-defined chunker,
//! - [`GearHasher`] — the gear rolling hash used by the FastCDC-style
//!   chunker.
//!
//! # SHA-1 kernels
//!
//! [`Sha1`] compresses blocks with one of two kernels, chosen on every
//! call that has whole blocks to compress. On x86-64 CPUs that report the
//! SHA extensions (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`) and
//! SSE4.1 it uses a hardware kernel; every other CPU and architecture uses
//! the portable kernel, which also serves as the test oracle. Both give
//! identical digests, so the choice is not configurable: no option,
//! feature or build flag selects it, and everything built on [`Sha1`]
//! ([`fingerprint_of`], the chunkers, chunk-store verification) speeds up
//! without changes.
//!
//! The hardware kernel is a safe `#[target_feature]` function, but calling
//! it from code compiled without those features needs one `unsafe` block
//! after the CPUID check. This crate is therefore `deny(unsafe_code)`
//! with that single, documented exception, where every other workspace
//! crate is `forbid(unsafe_code)`.
//!
//! # Examples
//!
//! ```
//! use shhc_hash::Sha1;
//!
//! let digest = Sha1::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d",
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
mod gear;
mod rabin;
mod sha1;
mod xxh;

pub use fnv::{fnv1a64, Fnv1a};
pub use gear::{GearHasher, GEAR_TABLE};
pub use rabin::{is_irreducible, RabinHasher, RabinTables, DEFAULT_IRREDUCIBLE_POLY};
pub use sha1::{Digest, Sha1};
pub use xxh::xxh64;

// The fingerprint-aware `std::hash` plumbing lives in `shhc-types` (next
// to `Fingerprint` itself) but belongs to this crate's vocabulary too.
pub use shhc_types::{FingerprintBuildHasher, FingerprintHasher, FpHashMap, FpHashSet};

use shhc_types::Fingerprint;

/// Computes the SHA-1 fingerprint of a chunk of data.
///
/// This is the fingerprinting function of the paper's client application:
/// every chunk is identified by the SHA-1 digest of its content.
///
/// # Examples
///
/// ```
/// use shhc_hash::fingerprint_of;
///
/// let fp = fingerprint_of(b"hello world");
/// assert_eq!(fp.to_hex(), "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed");
/// ```
pub fn fingerprint_of(data: &[u8]) -> Fingerprint {
    Fingerprint::from_bytes(Sha1::digest(data).into_bytes())
}
