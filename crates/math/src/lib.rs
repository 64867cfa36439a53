//! # athena-math
//!
//! Number-theoretic foundations for the Athena reproduction: modular
//! arithmetic, NTTs (negacyclic and cyclic/Fermat), a from-scratch big
//! integer, RNS bases with exact and fast base conversion (including the
//! word-sized exact kernels of [`baseconv`]), lattice samplers,
//! and the baby-step/giant-step schedules used by functional bootstrapping.
//!
//! Everything above this crate (BFV, the Athena framework, the accelerator
//! model) is built on these primitives; they are deliberately
//! dependency-free — randomness comes from the in-repo [`prng`] module and
//! thread parallelism from the `std`-only [`par`] module, so the whole
//! workspace builds with zero registry access.
//!
//! ## Example
//!
//! ```
//! use athena_math::poly::Ring;
//!
//! // Multiply two polynomials in Z_12289[X]/(X^64 + 1).
//! let ring = Ring::new(12289, 64);
//! let a = ring.from_i64(&vec![1i64; 64]);
//! let b = ring.from_i64(&vec![2i64; 64]);
//! let c = ring.to_coeff(&ring.mul(&a, &b));
//! assert_eq!(c.values().len(), 64);
//! ```

pub mod arena;
pub mod baseconv;
pub mod bigint;
pub mod bsgs;
pub mod modops;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod prime;
pub mod prng;
pub mod rns;
pub mod sampler;
pub mod stats;

pub use arena::{ArenaLease, LimbVec};
pub use bigint::{IBig, UBig};
pub use modops::Modulus;
pub use poly::{Domain, Poly, Ring};
pub use rns::{RnsBasis, RnsPoly};
pub use sampler::Sampler;
