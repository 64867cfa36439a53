//! Cross-crate integration: the five-step Athena loop under real FHE, and
//! validation of the `e_ms` noise model that the fast simulator uses.

use athena::core::pipeline::AthenaEngine;
use athena::core::simulate::NoiseSpec;
use athena::fhe::fbs::Lut;
use athena::fhe::params::BfvParams;
use athena::math::sampler::Sampler;

/// The measured modulus-switch noise distribution must match the analytic
/// `N(0, (tσ/Q)² + (‖s‖²+1)/12)` model that `simulate::NoiseSpec` uses —
/// this is what licenses running Table 5 at full model scale without FHE.
#[test]
fn e_ms_distribution_matches_noise_model() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(31415);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let n = engine.context().n();
    let t = engine.context().t() as i64;

    // Encrypt known values, run mod-switch + extraction + dimension switch,
    // decrypt, and collect the errors.
    let mut errors: Vec<f64> = Vec::new();
    for round in 0..4 {
        let values: Vec<i64> = (0..n as i64)
            .map(|i| ((i * 13 + round) % 101) - 50)
            .collect();
        let positions: Vec<usize> = (0..n).collect();
        let ct = engine.encrypt_at(&values, &positions, &secrets, &mut sampler);
        let lwes = engine.extract_lwes(&ct, &positions, &keys);
        let decs = engine.decrypt_lwes(&lwes, &secrets);
        for (&got, &want) in decs.iter().zip(&values) {
            let mut e = got - want;
            if e > t / 2 {
                e -= t;
            }
            if e < -t / 2 {
                e += t;
            }
            errors.push(e as f64);
        }
    }
    let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
    let var: f64 =
        errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errors.len() as f64;
    let measured_sigma = var.sqrt();
    let model = NoiseSpec::for_bfv(engine.context().params());
    assert!(mean.abs() < 1.0, "e_ms mean {mean}");
    assert!(
        measured_sigma < model.sigma * 2.5 && measured_sigma > model.sigma * 0.3,
        "measured σ = {measured_sigma}, model σ = {}",
        model.sigma
    );
}

/// One full loop where the LUT is a *composition* of remap and a non-ReLU
/// function (sigmoid), proving arbitrary non-linearity support end to end.
#[test]
fn loop_with_sigmoid_lut() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(27182);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let t = engine.context().t();
    let n = engine.context().n();

    let values: Vec<i64> = (0..n as i64).map(|i| (i % 65) - 32).collect();
    let positions: Vec<usize> = (0..n).collect();
    let ct = engine.encrypt_at(&values, &positions, &secrets, &mut sampler);
    let lwes = engine.extract_lwes(&ct, &positions, &keys);
    // LUT: sigmoid on x/8, remapped to 4 bits.
    let lut = Lut::from_signed_fn(t, |x| {
        (15.0 / (1.0 + (-(x as f64) / 8.0).exp())).round() as i64
    });
    let opt: Vec<_> = lwes.into_iter().map(Some).collect();
    let out = engine.pack_fbs_s2c(&opt, &lut, &keys);
    let got = engine.decrypt_coeffs(&out, &positions, &secrets);
    let mut close = 0;
    for (&g, &v) in got.iter().zip(&values) {
        let want = (15.0 / (1.0 + (-(v as f64) / 8.0).exp())).round() as i64;
        if (g - want).abs() <= 1 {
            close += 1;
        }
    }
    // e_ms can shift a LUT bin boundary by ±1; nearly all slots must land
    // within one output step.
    assert!(
        close as f64 > 0.95 * n as f64,
        "sigmoid loop: only {close}/{n} within ±1"
    );
}

/// The loop refreshes noise: chaining many loops keeps the budget stable
/// (bootstrapping property at system level).
#[test]
fn chained_loops_sustain_noise_budget() {
    use athena::fhe::bfv::BfvEvaluator;
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(16180);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let n = engine.context().n();
    let t = engine.context().t();
    let positions: Vec<usize> = (0..n).collect();
    let id_lut = Lut::from_signed_fn(t, |x| x);

    let values: Vec<i64> = (0..n as i64).map(|i| (i % 21) - 10).collect();
    let mut ct = engine.encrypt_at(&values, &positions, &secrets, &mut sampler);
    let ev = BfvEvaluator::new(engine.context());
    let mut budgets = Vec::new();
    for _ in 0..3 {
        let lwes = engine.extract_lwes(&ct, &positions, &keys);
        let opt: Vec<_> = lwes.into_iter().map(Some).collect();
        ct = engine.pack_fbs_s2c(&opt, &id_lut, &keys);
        budgets.push(ev.noise_budget(&ct, &secrets.sk));
    }
    // Budgets after each refresh are flat (within a few bits), not decaying.
    assert!(budgets.iter().all(|&b| b > 10), "budgets {budgets:?}");
    assert!(
        (budgets[0] - budgets[2]).abs() <= 6,
        "budget should be stable across loops: {budgets:?}"
    );
    // And the payload survived three identity loops (within e_ms).
    let got = engine.decrypt_coeffs(&ct, &positions, &secrets);
    let close = got
        .iter()
        .zip(&values)
        .filter(|(&g, &v)| (g - v).abs() <= 12)
        .count();
    assert!(close as f64 > 0.9 * n as f64, "{close}/{n} survived");
}
