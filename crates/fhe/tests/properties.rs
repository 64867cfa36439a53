//! Property-style tests of the FHE layer: homomorphism laws of BFV,
//! encoder/LUT/extraction invariants, all on random inputs.
//!
//! Originally written with `proptest`; ported to plain `#[test]`s driven by
//! the in-repo PRNG (fixed seeds, N random cases each) so the suite runs
//! with zero external dependencies.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, RelinKey, SecretKey};
use athena_fhe::encoder::SlotEncoder;
use athena_fhe::extract::{mod_switch_to_t, rlwe_secret_as_lwe, sample_extract_all, SmallRlwe};
use athena_fhe::fbs::Lut;
use athena_fhe::lwe::LweSecret;
use athena_fhe::params::BfvParams;
use athena_math::modops::Modulus;
use athena_math::prng::Prng;
use athena_math::sampler::Sampler;
use std::sync::OnceLock;

const CASES: usize = 8;

/// Shared context (keygen is the slow part; the properties hold for any
/// fixed key).
struct Fixture {
    ctx: BfvContext,
    sk: SecretKey,
    rlk: RelinKey,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(0xF1);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        Fixture { ctx, sk, rlk }
    })
}

fn slot_values(rng: &mut Prng) -> Vec<u64> {
    (0..128).map(|_| rng.next_below(257)).collect()
}

#[test]
fn enc_dec_roundtrip() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let mut rng = Prng::seed_from_u64(0x21);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let m = f.ctx.encoder().encode(&vals);
        let ct = ev.encrypt_sk(&m, &f.sk, &mut s);
        assert_eq!(ev.decrypt(&ct, &f.sk), m);
    }
}

#[test]
fn add_is_homomorphic() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x22);
    for _ in 0..CASES {
        let a = slot_values(&mut rng);
        let b = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ca = ev.encrypt_sk(&enc.encode(&a), &f.sk, &mut s);
        let cb = ev.encrypt_sk(&enc.encode(&b), &f.sk, &mut s);
        let got = enc.decode(&ev.decrypt(&ev.add(&ca, &cb), &f.sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % 257).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn mul_is_homomorphic() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x23);
    for _ in 0..CASES {
        let a = slot_values(&mut rng);
        let b = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ca = ev.encrypt_sk(&enc.encode(&a), &f.sk, &mut s);
        let cb = ev.encrypt_sk(&enc.encode(&b), &f.sk, &mut s);
        let got = enc.decode(&ev.decrypt(&ev.mul(&ca, &cb, &f.rlk), &f.sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y % 257).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn lut_interpolation_is_exact_everywhere() {
    // Random LUT over t = 257: the interpolated polynomial must hit
    // every entry exactly (both interpolation paths).
    let t = 257u64;
    let m = Modulus::new(t);
    let mut rng = Prng::seed_from_u64(0x24);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let lut = Lut::from_fn(t, |k| (k.wrapping_mul(seed | 1) ^ (k >> 3)) % t);
        for coeffs in [lut.interpolate_ntt(), lut.interpolate_naive()] {
            for x in (0..t).step_by(17) {
                let mut acc = 0u64;
                for &c in coeffs.iter().rev() {
                    acc = m.mul_add(acc, x, c);
                }
                assert_eq!(acc, lut.get(x), "seed={seed} x={x}");
            }
        }
    }
}

#[test]
fn extraction_linear_in_ciphertext() {
    // Extracted LWE decryptions equal the SmallRlwe ring decryption at
    // every coefficient, for arbitrary ciphertext data.
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let mut rng = Prng::seed_from_u64(0x25);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let m = athena_fhe::encoder::encode_coeff(
            &vals.iter().map(|&v| v as i64).collect::<Vec<_>>(),
            257,
            128,
        );
        let ct = ev.encrypt_sk(&m, &f.sk, &mut s);
        let small = mod_switch_to_t(&f.ctx, &ct);
        let ring_dec = small.decrypt(f.sk.coeffs());
        let lwe_sk = rlwe_secret_as_lwe(&f.ctx, &f.sk);
        for (i, lwe) in sample_extract_all(&small).iter().enumerate().step_by(13) {
            assert_eq!(lwe.decrypt(&lwe_sk), ring_dec[i]);
        }
    }
}

#[test]
fn extraction_of_trivial_is_exact() {
    let mut rng = Prng::seed_from_u64(0x26);
    for _ in 0..CASES {
        let b_vals: Vec<u64> = (0..16).map(|_| rng.next_below(257)).collect();
        let rlwe = SmallRlwe {
            a: vec![0; 16],
            b: b_vals.clone(),
            q: 257,
        };
        let sk = LweSecret::from_coeffs(vec![0; 16], 257);
        for (i, lwe) in sample_extract_all(&rlwe).iter().enumerate() {
            assert_eq!(lwe.decrypt(&sk), b_vals[i]);
        }
    }
}

#[test]
fn encoder_rotation_group_structure() {
    // rot(k1) ∘ rot(k2) = rot(k1 + k2) on the plaintext semantics.
    let enc = SlotEncoder::new(257, 128);
    let mut rng = Prng::seed_from_u64(0x27);
    for _ in 0..CASES * 4 {
        let vals = slot_values(&mut rng);
        let k1 = rng.next_below(64) as usize;
        let k2 = rng.next_below(64) as usize;
        let lhs = enc.rotate_slots(&enc.rotate_slots(&vals, k1), k2);
        let rhs = enc.rotate_slots(&vals, (k1 + k2) % 64);
        assert_eq!(lhs, rhs, "k1={k1} k2={k2}");
        // row swap is an involution
        assert_eq!(enc.swap_rows(&enc.swap_rows(&vals)), vals);
    }
}

#[test]
fn batched_fbs_parallel_matches_serial() {
    // fbs_apply_batch must agree with per-ciphertext fbs_apply, and must be
    // bit-identical for any worker count (the par layer reassembles chunks
    // in input order).
    use athena_fhe::fbs::{fbs_apply, fbs_apply_batch};
    use athena_math::par;
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let lut = Lut::from_signed_fn(f.ctx.t(), |x| x.max(0));
    let mut rng = Prng::seed_from_u64(0x29);
    let mut s = Sampler::from_seed(rng.next_u64());
    let cts: Vec<_> = (0..4)
        .map(|_| ev.encrypt_sk(&enc.encode(&slot_values(&mut rng)), &f.sk, &mut s))
        .collect();

    let singles: Vec<_> = cts
        .iter()
        .map(|ct| fbs_apply(&f.ctx, ct, &lut, &f.rlk))
        .collect();
    par::set_threads(1);
    let batch_1 = fbs_apply_batch(&f.ctx, &cts, &lut, &f.rlk);
    par::set_threads(4);
    let batch_4 = fbs_apply_batch(&f.ctx, &cts, &lut, &f.rlk);
    par::set_threads(0);

    assert_eq!(batch_1.len(), cts.len());
    assert_eq!(batch_4.len(), cts.len());
    for (i, single) in singles.iter().enumerate() {
        let want = ev.decrypt(single, &f.sk);
        assert_eq!(ev.decrypt(&batch_1[i], &f.sk), want, "ct {i} (1 thread)");
        assert_eq!(ev.decrypt(&batch_4[i], &f.sk), want, "ct {i} (4 threads)");
    }
}

#[test]
fn noise_budget_decreases_under_mul() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x28);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut s);
        let fresh = ev.noise_budget(&ct, &f.sk);
        let squared = ev.mul(&ct, &ct, &f.rlk);
        let after = ev.noise_budget(&squared, &f.sk);
        assert!(after < fresh, "budget must shrink: {fresh} -> {after}");
        assert!(after > 0, "one multiplication cannot exhaust the budget");
    }
}

/// The budget probe saturates instead of wrapping: repeated squaring
/// drives the budget monotonically down to the declared saturation value
/// `-1` (noise magnitude ≥ Q/4, past which the wrapped phase carries no
/// recoverable magnitude information), and *stays* exactly `-1` for
/// arbitrarily deeper circuits — no i64 underflow, no wrapped "recovered"
/// positive budget.
#[test]
fn noise_budget_saturates_at_minus_one_once_swamped() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut s = Sampler::from_seed(0x5A7);
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i * 3 + 1) % 17).collect();
    let mut ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut s);
    let mut prev = ev.noise_budget(&ct, &f.sk);
    assert!(prev > 0, "fresh ciphertext must have positive budget");
    let mut exhausted_at = None;
    for depth in 1..=24 {
        ct = ev.mul(&ct, &ct, &f.rlk);
        let b = ev.noise_budget(&ct, &f.sk);
        if b >= 0 {
            assert!(
                b < prev,
                "depth {depth}: healthy budget must keep shrinking ({prev} -> {b})"
            );
        } else {
            assert_eq!(
                b, -1,
                "depth {depth}: saturation must read exactly -1, got {b}"
            );
            exhausted_at.get_or_insert(depth);
        }
        prev = b;
    }
    let first = exhausted_at.expect("test_small must exhaust within 24 squarings");
    // Two more squarings past exhaustion: still exactly -1.
    for _ in 0..2 {
        ct = ev.mul(&ct, &ct, &f.rlk);
        assert_eq!(
            ev.noise_budget(&ct, &f.sk),
            -1,
            "saturation band must be sticky"
        );
    }
    assert!(first >= 2, "budget should survive at least one squaring");
}
