//! Differential tests pinning the word-sized RNS kernels of ciphertext
//! multiplication, modulus switching and decryption to their big-integer
//! references, at every runnable preset: the centered lift `Q → Q ∪ P`
//! ([`BfvContext::tensor_lift`]), the `t/Q` rescale `Q ∪ P → Q`
//! ([`BfvContext::tensor_scale`]) and scaled rounding
//! ([`RnsBasis::scale_round`]).
//!
//! Inputs are random residues, real tensor products of centered lifts, and
//! the boundary coefficients `0`, `Q − 1`, `(Q − 1)/2` and `(Q + 1)/2`. The
//! last two sit `1/(2Q)` from a rounding boundary, so they force the
//! kernels' big-integer fallback (the per-coefficient kernels are asserted
//! to decline them) and must still match the reference and their
//! closed-form values.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, SecretKey};
use athena_fhe::params::BfvParams;
use athena_math::baseconv::{CenteredConv, TensorScaler};
use athena_math::bigint::{IBig, UBig};
use athena_math::poly::{Domain, Poly};
use athena_math::prng::Prng;
use athena_math::rns::{RnsBasis, RnsPoly};
use athena_math::sampler::Sampler;

fn presets() -> [BfvParams; 3] {
    [
        BfvParams::test_small(),
        BfvParams::test_medium(),
        BfvParams::test_full_t(),
    ]
}

/// A coefficient-form polynomial with uniformly random residues.
fn random_poly(basis: &RnsBasis, rng: &mut Prng) -> RnsPoly {
    let vals: Vec<Vec<u64>> = basis
        .moduli()
        .iter()
        .map(|&q| (0..basis.n()).map(|_| rng.next_below(q)).collect())
        .collect();
    let limbs = vals
        .into_iter()
        .map(|v| Poly::from_values(v, Domain::Coeff))
        .collect();
    RnsPoly::from_limbs(limbs)
}

/// A uniformly random big integer below `bound`.
fn random_below(bound: &UBig, rng: &mut Prng) -> UBig {
    let limbs = (0..=bound.limbs().len()).map(|_| rng.next_u64()).collect();
    UBig::from_limbs(limbs).rem(bound)
}

/// The four boundary values of `[0, Q)`: `0`, `Q − 1`, `(Q − 1)/2`, `(Q + 1)/2`.
fn boundary_values(q: &UBig) -> [UBig; 4] {
    let half = q.shr(1);
    [
        UBig::zero(),
        q.sub(&UBig::one()),
        half.clone(),
        half.add_u64(1),
    ]
}

/// A polynomial over `basis` whose coefficients cycle through `vals`
/// (signed values are reduced modulo the basis product).
fn cycling_poly(basis: &RnsBasis, vals: &[IBig]) -> RnsPoly {
    let coeffs: Vec<UBig> = (0..basis.n())
        .map(|j| vals[j % vals.len()].rem_euclid(basis.product()))
        .collect();
    basis.poly_from_ubig(&coeffs)
}

fn q_boundary_poly(ctx: &BfvContext) -> RnsPoly {
    let qb = ctx.q_basis();
    let vals: Vec<IBig> = boundary_values(qb.product())
        .into_iter()
        .map(|v| IBig::new(false, v))
        .collect();
    cycling_poly(qb, &vals)
}

fn aux_primes(ctx: &BfvContext) -> Vec<u64> {
    ctx.mult_basis().moduli()[ctx.q_basis().len()..].to_vec()
}

#[test]
fn half_boundary_takes_the_fallback_and_stays_exact() {
    for params in presets() {
        let ctx = BfvContext::new(params.clone());
        let aux = aux_primes(&ctx);
        let (qb, mb) = (ctx.q_basis(), ctx.mult_basis());
        let q = qb.product().clone();
        let lift = CenteredConv::new(&params.q_primes, &aux);
        let scale = TensorScaler::new(&params.q_primes, &aux, params.t);
        for x in [q.shr(1), q.shr(1).add_u64(1)] {
            let mut out = vec![0u64; aux.len()];
            assert!(!lift.convert(&qb.crt_decompose(&x), &mut out));
            // t is odd, so t·(Q ± 1)/(2Q) is t/(2Q) from a half-integer.
            let mut out = vec![0u64; params.q_primes.len()];
            assert!(!scale.scale(&mb.crt_decompose(&x), &mut out));
            // The fallback gives the closed-form values: the centered lift
            // of x, round(t·x/Q), and round(t·x_c/Q) mod t = (t ∓ 1)/2.
            let centered = if x > q.shr(1) {
                IBig::new(true, q.sub(&x))
            } else {
                IBig::new(false, x.clone())
            };
            let x_q = qb.poly_from_ubig(&vec![x.clone(); params.n]);
            let lifted = ctx.tensor_lift(&x_q);
            for (limb, &p) in lifted.limbs()[qb.len()..].iter().zip(&aux) {
                let want = centered.rem_euclid_u64(p);
                assert!(limb.values().iter().all(|&v| v == want));
            }
            let w = x.mul_u64(params.t).div_round(&q);
            let scaled = ctx.tensor_scale(&mb.poly_from_ubig(&vec![x.clone(); params.n]));
            for (limb, &qi) in scaled.limbs().iter().zip(&params.q_primes) {
                let want = w.rem_u64(qi);
                assert!(limb.values().iter().all(|&v| v == want));
            }
            let t = params.t;
            let want = if x > q.shr(1) { t.div_ceil(2) } else { t / 2 };
            assert!(qb.scale_round(&x_q, t, t).iter().all(|&v| v == want));
        }
    }
}

#[test]
fn tensor_lift_matches_reference() {
    for params in presets() {
        let ctx = BfvContext::new(params);
        let mut rng = Prng::seed_from_u64(0x11f7);
        for p in [
            random_poly(ctx.q_basis(), &mut rng),
            random_poly(ctx.q_basis(), &mut rng),
            q_boundary_poly(&ctx),
        ] {
            assert_eq!(ctx.tensor_lift(&p), ctx.tensor_lift_reference(&p));
        }
    }
}

#[test]
fn tensor_scale_matches_reference() {
    for params in presets() {
        let ctx = BfvContext::new(params.clone());
        let (qb, mb) = (ctx.q_basis(), ctx.mult_basis());
        let mut rng = Prng::seed_from_u64(0x5ca1e);
        let mut inputs = Vec::new();
        // Random values across the whole tensor range |x| ≤ N·Q²/2.
        let bound = qb.product().mul(qb.product()).mul_u64(params.n as u64 / 2);
        let random: Vec<IBig> = (0..params.n)
            .map(|_| IBig::new(rng.next_bool(), random_below(&bound, &mut rng)))
            .collect();
        inputs.push(cycling_poly(mb, &random));
        // Boundary values of [0, Q) and their negatives.
        let boundary: Vec<IBig> = boundary_values(qb.product())
            .into_iter()
            .flat_map(|v| [IBig::new(false, v.clone()), IBig::new(true, v)])
            .collect();
        inputs.push(cycling_poly(mb, &boundary));
        // Tensor products of centered lifts of random polynomials: the
        // three components of a ciphertext product.
        let lift = |p: &RnsPoly| mb.poly_to_eval(&ctx.tensor_lift_reference(p));
        let a = [0, 1].map(|_| lift(&random_poly(qb, &mut rng)));
        let b = [0, 1].map(|_| lift(&random_poly(qb, &mut rng)));
        inputs.push(mb.mul_poly(&a[0], &b[0]));
        inputs.push(mb.add_poly(&mb.mul_poly(&a[0], &b[1]), &mb.mul_poly(&a[1], &b[0])));
        inputs.push(mb.mul_poly(&a[1], &b[1]));
        for p in &inputs {
            assert_eq!(ctx.tensor_scale(p), ctx.tensor_scale_reference(p));
        }
    }
}

#[test]
fn ciphertext_product_matches_reference_kernels() {
    for params in presets() {
        let ctx = BfvContext::new(params.clone());
        let (qb, mb) = (ctx.q_basis(), ctx.mult_basis());
        let ev = BfvEvaluator::new(&ctx);
        let mut sampler = Sampler::from_seed(4242);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let enc = ctx.encoder();
        let t = params.t;
        let a: Vec<u64> = (0..params.n as u64).map(|i| (i * 7 + 3) % t).collect();
        let b: Vec<u64> = (0..params.n as u64).map(|i| (i * i + 11) % t).collect();
        let ca = ev.encrypt_sk(&enc.encode(&a), &sk, &mut sampler);
        let cb = ev.encrypt_sk(&enc.encode(&b), &sk, &mut sampler);
        // The tensor step rebuilt from the big-integer reference kernels.
        let lift = |p: &RnsPoly| mb.poly_to_eval(&ctx.tensor_lift_reference(&qb.poly_to_coeff(p)));
        let (a0, a1) = (lift(&ca.parts()[0]), lift(&ca.parts()[1]));
        let (b0, b1) = (lift(&cb.parts()[0]), lift(&cb.parts()[1]));
        let want = [
            mb.mul_poly(&a0, &b0),
            mb.add_poly(&mb.mul_poly(&a0, &b1), &mb.mul_poly(&a1, &b0)),
            mb.mul_poly(&a1, &b1),
        ]
        .map(|e| ctx.tensor_scale_reference(&e));
        let got = ev.mul_no_relin(&ca, &cb);
        assert_eq!(got.parts(), &want[..]);
    }
}

#[test]
fn scale_round_matches_reference() {
    for params in presets() {
        let ctx = BfvContext::new(params.clone());
        let qb = ctx.q_basis();
        let mut rng = Prng::seed_from_u64(0xdec);
        let inputs = [
            random_poly(qb, &mut rng),
            random_poly(qb, &mut rng),
            q_boundary_poly(&ctx),
        ];
        let q0 = params.q_primes[0];
        // Decryption (t → t), modulus switching to t and to one limb
        // prime, and a mixed numerator/target pair.
        for (num, target) in [
            (params.t, params.t),
            (q0, q0),
            (params.t, q0),
            (q0, params.t),
        ] {
            for p in &inputs {
                assert_eq!(
                    qb.scale_round(p, num, target),
                    qb.scale_round_reference(p, num, target),
                    "num={num} target={target}"
                );
            }
        }
    }
}
