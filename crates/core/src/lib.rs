//! # athena-core
//!
//! The Athena framework — the paper's primary contribution.
//!
//! * [`encoding`] — Eq. 1's coefficient encoding of convolution and the
//!   Table 2 packing strategies (Athena output-channel-first vs Cheetah
//!   input-channel-first).
//! * [`pipeline`] — the five-step loop over real cryptography: linear →
//!   mod-switch → sample-extract/dimension-switch → pack → FBS(+remap) →
//!   S2C, plus the homomorphic max-tree and softmax of §3.2.3.
//! * [`plan`] — the execution-plan IR: a typed per-layer step program
//!   compiled from a quantized model, with layouts, LUTs, Galois elements,
//!   key requirements, and analytic op counts resolved up front. One
//!   generic interpreter drives the plan across three backends (encrypted,
//!   noise simulation, analytic counting); the same plan also feeds the
//!   accelerator trace, key generation, and the cached batched
//!   `InferenceSession`.
//! * [`infer`] — end-to-end encrypted inference of a quantized model (a
//!   thin compile-then-execute wrapper over [`plan`]).
//! * [`simulate`] — the validated `e_ms` noise model driving full-scale
//!   accuracy experiments (Table 5, Fig. 4, Fig. 12).
//! * [`fuzz`] — deterministic differential fuzzing: a seeded model-zoo
//!   generator run through four oracles (plain reference, fast sim,
//!   plan-driven sim, real encryption), with a shrinker and a pinned
//!   regression corpus.
//! * [`trace`] — per-layer FHE-op counts at production parameters, consumed
//!   by the accelerator model.
//! * [`complexity`] / [`paramsets`] — Tables 3 and 1.
//!
//! ## Example: one loop iteration under real FHE
//!
//! ```no_run
//! use athena_core::pipeline::AthenaEngine;
//! use athena_fhe::fbs::Lut;
//! use athena_fhe::params::BfvParams;
//! use athena_math::sampler::Sampler;
//!
//! let engine = AthenaEngine::new(BfvParams::test_small());
//! let mut sampler = Sampler::from_seed(1);
//! let (secrets, keys) = engine.keygen(&mut sampler);
//! let n = engine.context().n();
//! let positions: Vec<usize> = (0..n).collect();
//! let ct = engine.encrypt_at(&vec![5; n], &positions, &secrets, &mut sampler);
//! let lwes = engine.extract_lwes(&ct, &positions, &keys);
//! let relu = Lut::from_signed_fn(engine.context().t(), |x| x.max(0));
//! let opt: Vec<_> = lwes.into_iter().map(Some).collect();
//! let refreshed = engine.pack_fbs_s2c(&opt, &relu, &keys);
//! let out = engine.decrypt_coeffs(&refreshed, &positions, &secrets);
//! assert!(out.iter().all(|&v| (v - 5).abs() <= 4));
//! ```

pub mod complexity;
pub mod encoding;
pub mod fuzz;
pub mod infer;
pub mod paramsets;
pub mod pipeline;
pub mod plan;
pub mod simulate;
pub mod trace;
pub mod util;
