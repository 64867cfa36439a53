//! Round-trip coverage of the residual-skip mixed-modulus path: the
//! client-bound branch keeps both the accumulator and the skip LWEs at the
//! extraction prime `q_mid` (no `e_ms` rounding), the in-pipeline branch
//! drops both to `t` — and `lwe_add_scaled` + `decrypt_lwes` are exact at
//! either level.

use athena_core::pipeline::AthenaEngine;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;

fn centered(v: i64, t: i64) -> i64 {
    let r = v.rem_euclid(t);
    if r > t / 2 {
        r - t
    } else {
        r
    }
}

/// Client-bound residual: both operands stay at `q_mid`
/// (`extract_lwes_mid`), the scaled add happens at `q_mid`, and
/// `decrypt_lwes` recovers `a + mult·b` exactly — no rounding noise at all.
#[test]
fn residual_add_at_q_mid_is_exact() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(24_601);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let n = engine.context().n();
    let t = engine.context().t() as i64;

    let positions: Vec<usize> = (0..16).collect();
    let a_vals: Vec<i64> = (0..16).map(|i| i - 8).collect();
    let b_vals: Vec<i64> = (0..16).map(|i| 2 * i - 15).collect();
    let mut a_coeffs = vec![0i64; n];
    let mut b_coeffs = vec![0i64; n];
    for (i, &p) in positions.iter().enumerate() {
        a_coeffs[p] = a_vals[i];
        b_coeffs[p] = b_vals[i];
    }
    let all: Vec<usize> = (0..n).collect();
    let ct_a = engine.encrypt_at(&a_coeffs, &all, &secrets, &mut sampler);
    let ct_b = engine.encrypt_at(&b_coeffs, &all, &secrets, &mut sampler);

    let lwes_a = engine.extract_lwes_mid(&ct_a, &positions, &keys);
    let lwes_b = engine.extract_lwes_mid(&ct_b, &positions, &keys);
    assert!(
        lwes_a.iter().all(|c| c.q() == engine.q_mid()),
        "client-bound LWEs must stay at q_mid"
    );

    let mult = 3i64;
    let sum: Vec<_> = lwes_a
        .iter()
        .zip(&lwes_b)
        .map(|(a, b)| engine.lwe_add_scaled(a, b, mult))
        .collect();
    let ints = engine.decrypt_lwes(&sum, &secrets);
    for (i, &got) in ints.iter().enumerate() {
        let want = centered(a_vals[i] + mult * b_vals[i], t);
        assert_eq!(got, want, "position {i}: {got} != {want} (exact path)");
    }
}

/// In-pipeline residual: both operands drop to `t` (`extract_lwes`), the
/// add is exact mod-`t` arithmetic, and decryption recovers the centered
/// sum (the `e_ms` rounding is absorbed by the noise margin of the small
/// values used here).
#[test]
fn residual_add_at_t_round_trips() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(24_602);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let n = engine.context().n();
    let t = engine.context().t();

    let positions: Vec<usize> = (0..12).collect();
    let a_vals: Vec<i64> = (0..12).map(|i| i - 6).collect();
    let b_vals: Vec<i64> = (0..12).map(|i| 5 - i).collect();
    let mut a_coeffs = vec![0i64; n];
    let mut b_coeffs = vec![0i64; n];
    for (i, &p) in positions.iter().enumerate() {
        a_coeffs[p] = a_vals[i];
        b_coeffs[p] = b_vals[i];
    }
    let all: Vec<usize> = (0..n).collect();
    let ct_a = engine.encrypt_at(&a_coeffs, &all, &secrets, &mut sampler);
    let ct_b = engine.encrypt_at(&b_coeffs, &all, &secrets, &mut sampler);

    let lwes_a = engine.extract_lwes(&ct_a, &positions, &keys);
    let lwes_b = engine.extract_lwes(&ct_b, &positions, &keys);
    assert!(lwes_a.iter().all(|c| c.q() == t), "pipeline LWEs live at t");

    let mult = 2i64;
    let sum: Vec<_> = lwes_a
        .iter()
        .zip(&lwes_b)
        .map(|(a, b)| engine.lwe_add_scaled(a, b, mult))
        .collect();
    let ints = engine.decrypt_lwes(&sum, &secrets);
    for (i, &got) in ints.iter().enumerate() {
        let want = a_vals[i] + mult * b_vals[i];
        // Each operand carries its own e_ms rounding error (a few plaintext
        // units at test_small) and the skip's is amplified by `mult`.
        assert!(
            (got - want).abs() <= 10,
            "position {i}: {got} vs {want} (mod-t path, e_ms-bounded)"
        );
    }
}

/// The two levels must not be mixed: `lwe_add_scaled` on a `q_mid` operand
/// and a `t` operand is a modulus mismatch and panics rather than silently
/// mis-adding.
#[test]
#[should_panic(expected = "modulus mismatch")]
fn mixed_modulus_residual_add_panics() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(24_603);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let n = engine.context().n();

    let positions = vec![0usize];
    let coeffs = vec![1i64; n];
    let all: Vec<usize> = (0..n).collect();
    let ct = engine.encrypt_at(&coeffs, &all, &secrets, &mut sampler);
    let at_mid = engine.extract_lwes_mid(&ct, &positions, &keys);
    let at_t = engine.extract_lwes(&ct, &positions, &keys);
    let _ = engine.lwe_add_scaled(&at_mid[0], &at_t[0], 1);
}
