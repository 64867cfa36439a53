//! The non-linearity zoo: functional bootstrapping evaluating exact ReLU,
//! Sigmoid, GELU, absolute-value, and division LUTs homomorphically — the
//! paper's "any non-linear function" claim (§3.2.3), exercised on real
//! ciphertexts.
//!
//! ```sh
//! cargo run --release --example nonlinear_zoo
//! ```

use athena::fhe::bfv::{BfvContext, BfvEvaluator, RelinKey, SecretKey};
use athena::fhe::fbs::{fbs_apply, Lut};
use athena::fhe::params::BfvParams;
use athena::math::modops::Modulus;
use athena::math::sampler::Sampler;
use athena::math::stats::op_stats;
use athena::nn::qmodel::Activation;

fn main() {
    let ctx = BfvContext::new(BfvParams::test_small());
    let t = ctx.t();
    let mut sampler = Sampler::from_seed(7);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
    let ev = BfvEvaluator::new(&ctx);
    let enc = ctx.encoder();

    // Quantized-domain LUTs: input is a centered accumulator, output a
    // remapped activation (scale 8 keeps outputs within the byte range).
    let scale = 8.0;
    let luts: Vec<(&str, Lut)> = vec![
        (
            "ReLU+remap",
            Lut::from_signed_fn(t, |x| ((x.max(0) as f64) / scale).round() as i64),
        ),
        (
            "Sigmoid+remap",
            Lut::from_signed_fn(t, |x| {
                (Activation::Sigmoid.apply(x as f64 / 16.0) * 15.0).round() as i64
            }),
        ),
        (
            "GELU+remap",
            Lut::from_signed_fn(t, |x| {
                (Activation::Gelu.apply(x as f64 / scale) * 4.0).round() as i64
            }),
        ),
        ("abs", Lut::from_signed_fn(t, |x| x.abs())),
        (
            "divide-by-9 (avgpool)",
            Lut::from_signed_fn(t, |x| ((x as f64) / 9.0).round() as i64),
        ),
    ];

    // One ciphertext of test inputs spanning the centered range.
    let tm = Modulus::new(t);
    let inputs: Vec<i64> = (0..ctx.n() as i64).map(|i| (i * 7 % 201) - 100).collect();
    let slots: Vec<u64> = inputs.iter().map(|&v| tm.from_i64(v)).collect();
    let ct = ev.encrypt_sk(&enc.encode(&slots), &sk, &mut sampler);

    println!(
        "evaluating {} LUTs homomorphically on {} slots each (t = {t})\n",
        luts.len(),
        ctx.n()
    );
    for (name, lut) in &luts {
        let start = std::time::Instant::now();
        let (out, stats) = op_stats::measure(|| fbs_apply(&ctx, &ct, lut, &rlk));
        let elapsed = start.elapsed();
        let decoded = enc.decode(&ev.decrypt(&out, &sk));
        let mut exact = 0usize;
        for (&inp, &got) in inputs.iter().zip(&decoded) {
            if got == lut.get(tm.from_i64(inp)) {
                exact += 1;
            }
        }
        println!(
            "{name:22} exact on {exact}/{} slots | {} CMult, {} SMult | {:.2?}",
            inputs.len(),
            stats.cmult,
            stats.smult,
            elapsed
        );
        assert_eq!(
            exact,
            inputs.len(),
            "{name} must be exact — FBS is not an approximation"
        );
    }
    println!("\nAll LUTs evaluated exactly: FBS supports arbitrary non-linear functions.");
}
