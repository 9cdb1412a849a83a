//! Hermetic in-repo test toolkit.
//!
//! The build environment has no crate registry, so everything the workspace
//! needs for randomized testing lives here, on `std` alone:
//!
//! - [`rng`]: a deterministic, seedable PRNG (splitmix64-seeded
//!   xoshiro256++) with the handful of distributions the generators and
//!   initializers use — the in-repo replacement for `rand`;
//! - [`prop`]: a mini property-testing harness — strategies, seeded case
//!   generation, greedy failure shrinking, and a `proptest!`-compatible
//!   macro — the in-repo replacement for `proptest`;
//! - [`hermetic`]: a `Cargo.toml` scanner that detects non-`path`
//!   dependencies, backing the workspace's hermeticity guard test.
//!
//! # Writing a property test
//!
//! ```
//! use wisegraph_testkit::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!
//!     /// Reversing twice is the identity.
//!     fn reverse_roundtrip(v in prop::collection::vec(0u32..100, 0..20)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(v, w);
//!     }
//! }
//! ```
//!
//! On failure the harness greedily shrinks the failing case (integers
//! toward their lower bound, vectors by dropping elements) and panics with
//! the minimal counterexample it reached plus the seed to reproduce it.

pub mod hermetic;
pub mod prop;
pub mod rng;

/// Everything a property test needs: the [`proptest!`] macro family, the
/// [`prop::Strategy`] trait (for `.prop_map`), [`prop::ProptestConfig`],
/// and the [`prop`] module itself (for `prop::collection::vec`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::prop::{ProptestConfig, Strategy, TestCaseError};
    pub use crate::rng::Rng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}
