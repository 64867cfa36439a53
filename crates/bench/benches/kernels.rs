//! Micro-benchmarks of the kernels whose costs drive every evaluation
//! table: NTT, the five framework steps, and the FBS internals (the
//! bottleneck per Table 3 / Fig. 9), measured on real ciphertexts at the
//! reduced parameter set.
//!
//! This is a `std`-only harness (`harness = false`, timed with
//! `std::time::Instant`) so the workspace builds with zero external
//! dependencies. Run with `cargo bench -p athena-bench`.

use std::time::Duration;

use athena_bench::microbench::{run_named, BenchOpts};
use athena_core::encoding::ConvEncoder;
use athena_core::pipeline::AthenaEngine;
use athena_fhe::bfv::{BfvEvaluator, RelinKey, SecretKey};
use athena_fhe::extract::{mod_switch_rlwe, sample_extract_all};
use athena_fhe::fbs::{fbs_apply, Lut};
use athena_fhe::params::BfvParams;
use athena_math::ntt::NttTables;
use athena_math::sampler::Sampler;
use athena_nn::models::ConvShape;
use athena_nn::tensor::ITensor;

fn bench_ntt(opts: &BenchOpts) {
    for n in [1024usize, 4096] {
        let tables = NttTables::new(athena_math::prime::ntt_primes(50, n, 1)[0], n);
        let mut data: Vec<u64> = (0..n as u64).collect();
        run_named(opts, &format!("ntt/forward_{n}"), || {
            tables.forward(std::hint::black_box(&mut data))
        });
    }
}

fn bench_framework_steps(opts: &BenchOpts) {
    let params = BfvParams::test_small();
    let ctx_engine = AthenaEngine::new(params.clone());
    let mut sampler = Sampler::from_seed(1);
    let (secrets, keys) = ctx_engine.keygen(&mut sampler);
    let n = ctx_engine.context().n();
    let t = ctx_engine.context().t();

    // Step 1: conv via one PMult (Table 3's Conv row).
    let shape = ConvShape {
        hw: 6,
        c_in: 2,
        c_out: 1,
        k: 3,
        stride: 1,
        padding: 0,
    };
    let enc = ConvEncoder::new(shape, n);
    let img = ITensor::from_vec(&[2, 6, 6], (0..72).map(|i| (i % 7) - 3).collect());
    let ker = ITensor::from_vec(&[1, 2, 3, 3], (0..18).map(|i| (i % 5) - 2).collect());
    let positions: Vec<usize> = (0..n).collect();
    let ct = ctx_engine.encrypt_at(&enc.encode_input(&img), &positions, &secrets, &mut sampler);
    let kcoeffs = enc.encode_kernel(&ker);
    run_named(opts, "framework/conv_pmult", || {
        ctx_engine.linear(std::hint::black_box(&ct), &kcoeffs, &[])
    });

    // Step 2: modulus switch.
    let ctx = ctx_engine.context();
    run_named(opts, "framework/mod_switch", || {
        mod_switch_rlwe(ctx, std::hint::black_box(&ct), params.q_primes[0])
    });

    // Step 3: sample extraction of all N coefficients.
    let small = mod_switch_rlwe(ctx, &ct, t);
    run_named(opts, "framework/sample_extract_all", || {
        sample_extract_all(std::hint::black_box(&small))
    });

    // Steps 2+3 fused as the engine runs them (incl. dimension switch).
    run_named(opts, "framework/extract_pipeline", || {
        ctx_engine.extract_lwes(&ct, &positions[..32], &keys)
    });

    // Step 4: packing 32 LWEs.
    let lwes: Vec<_> = ctx_engine
        .extract_lwes(&ct, &positions[..32], &keys)
        .into_iter()
        .map(Some)
        .collect();
    run_named(opts, "framework/pack_32_lwes", || {
        ctx_engine.pack(std::hint::black_box(&lwes), &keys)
    });

    // Step 5: S2C.
    run_named(opts, "framework/s2c", || {
        ctx_engine.s2c(std::hint::black_box(&ct), &keys)
    });
}

fn bench_fbs(opts: &BenchOpts) {
    let ctx = athena_fhe::bfv::BfvContext::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(2);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
    let ev = BfvEvaluator::new(&ctx);
    let enc = ctx.encoder();
    let inputs: Vec<u64> = (0..ctx.n() as u64).map(|i| i % ctx.t()).collect();
    let ct = ev.encrypt_sk(&enc.encode(&inputs), &sk, &mut sampler);
    let relu = Lut::from_signed_fn(ctx.t(), |x| x.max(0));

    run_named(opts, "fbs/fbs_full_t257", || {
        fbs_apply(&ctx, std::hint::black_box(&ct), &relu, &rlk)
    });
    // The two LUT→polynomial interpolation paths (design decision 2 of
    // DESIGN.md).
    run_named(opts, "fbs/lut_interpolate_ntt_t257", || {
        std::hint::black_box(&relu).interpolate_ntt()
    });
    run_named(opts, "fbs/lut_interpolate_naive_t257", || {
        std::hint::black_box(&relu).interpolate_naive()
    });
    let big = Lut::from_signed_fn(65537, |x| x.max(0));
    run_named(opts, "fbs/lut_interpolate_ntt_t65537", || {
        std::hint::black_box(&big).interpolate_ntt()
    });
    // One CMult (the giant-step unit of Alg. 2).
    run_named(opts, "fbs/cmult_relin", || {
        ev.mul(std::hint::black_box(&ct), &ct, &rlk)
    });
    // The two exact RNS kernels inside every CMult, each against its
    // big-integer reference: the centered lift Q → Q ∪ P of one ciphertext
    // part and the t/Q rescale of one (coefficient-form) tensor component.
    let part = ctx.q_basis().poly_to_coeff(&ct.parts()[1]);
    let mb = ctx.mult_basis();
    let lifted = mb.poly_to_eval(&ctx.tensor_lift(&part));
    let tensor = mb.poly_to_coeff(&mb.mul_poly(&lifted, &lifted));
    run_named(opts, "fbs/tensor_lift", || {
        ctx.tensor_lift(std::hint::black_box(&part))
    });
    run_named(opts, "fbs/tensor_lift_reference", || {
        ctx.tensor_lift_reference(std::hint::black_box(&part))
    });
    run_named(opts, "fbs/tensor_scale", || {
        ctx.tensor_scale(std::hint::black_box(&tensor))
    });
    run_named(opts, "fbs/tensor_scale_reference", || {
        ctx.tensor_scale_reference(std::hint::black_box(&tensor))
    });
    // One SMult (the baby-step unit).
    run_named(opts, "fbs/smult", || {
        ev.mul_scalar(std::hint::black_box(&ct), 123)
    });
}

fn bench_base_conversion(opts: &BenchOpts) {
    // Exact vs fast base conversion — the FRU's RNS datapath (ablation 1).
    use athena_math::prime::ntt_primes;
    use athena_math::rns::RnsBasis;
    let n = 1024;
    let src = RnsBasis::new(&ntt_primes(50, n, 4), n);
    let dst = RnsBasis::new(&ntt_primes(49, n, 4), n);
    let p = src.poly_from_i64(&(0..n as i64).map(|i| i * 31 % 1000).collect::<Vec<_>>());
    run_named(opts, "base_conversion/fast_bconv_4to4_n1024", || {
        src.fast_base_convert(std::hint::black_box(&p), &dst)
    });
    run_named(opts, "base_conversion/exact_bconv_4to4_n1024", || {
        src.exact_base_convert(std::hint::black_box(&p), &dst)
    });
}

fn main() {
    // `cargo bench` passes --bench (and possibly filter args); ignore them.
    let opts = BenchOpts {
        warmup: Duration::from_millis(300),
        measure: Duration::from_secs(2),
        ..BenchOpts::default()
    };
    bench_ntt(&opts);
    bench_framework_steps(&opts);
    bench_fbs(&opts);
    bench_base_conversion(&opts);
}
