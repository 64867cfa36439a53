//! Kernel timings at a workload's parameters (the `athena_bench`
//! micro-benchmark harness), and the fixed host reference loop.

use std::time::{Duration, Instant};

use athena_bench::microbench::{run, BenchOpts};
use athena_core::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use athena_fhe::bfv::{BfvEvaluator, GaloisKeys};
use athena_math::ntt::NttTables;
use athena_math::prime::ntt_primes;
use athena_math::sampler::Sampler;

/// Median seconds per call of each kernel, in [`KERNEL_NAMES`] order.
pub type KernelTimes = [f64; 5];

/// Kernel metric names.
pub const KERNEL_NAMES: [&str; 5] = [
    "ntt_fwd_s",
    "ntt_inv_s",
    "cmult_relin_s",
    "hrot_s",
    "lwe_ks_s",
];

/// Times one-limb NTT forward/inverse at `(q₀, N)`, one CMult with
/// relinearization, one eager Galois rotation, and one LWE key switch
/// (`N → n` at `q_mid`) on real ciphertexts under the given keys.
pub fn time_kernels(
    engine: &AthenaEngine,
    secrets: &AthenaSecrets,
    keys: &AthenaEvalKeys,
    seed: u64,
) -> KernelTimes {
    let opts = BenchOpts {
        warmup: Duration::from_millis(30),
        measure: Duration::from_millis(250),
        samples: 5,
    };
    let secs = |f: &mut dyn FnMut()| run(&opts, f).median.as_secs_f64();
    let ctx = engine.context();
    let p = ctx.params();
    let n = p.n;
    let mut sampler = Sampler::from_seed(seed);
    let ntt = NttTables::new(p.q_primes[0], n);
    let mut data: Vec<u64> = (0..n as u64).collect();
    let fwd = secs(&mut || ntt.forward(std::hint::black_box(&mut data)));
    let inv = secs(&mut || ntt.inverse(std::hint::black_box(&mut data)));

    let coeffs: Vec<i64> = (0..n as i64).map(|i| i % 7 - 3).collect();
    let positions: Vec<usize> = (0..n).collect();
    let ct = engine.encrypt_at(&coeffs, &positions, secrets, &mut sampler);
    let ev = BfvEvaluator::new(ctx);
    let cmult = secs(&mut || {
        std::hint::black_box(ev.mul(std::hint::black_box(&ct), &ct, &keys.rlk));
    });
    // A plan that never rotates ships no Galois keys: time the rotation
    // under a one-element key set of its own.
    let g = engine
        .required_galois_elements()
        .first()
        .copied()
        .unwrap_or(3);
    let gk = GaloisKeys::generate(ctx, &secrets.sk, &[g], &mut sampler);
    let hrot = secs(&mut || {
        std::hint::black_box(ev.apply_galois(std::hint::black_box(&ct), g, &gk));
    });
    let small = engine.mod_switch_mid(&ct);
    let lwe = engine.sample_extract(&small, &[0], &mut PipelineStats::default())[0].clone();
    let ks = secs(&mut || {
        std::hint::black_box(keys.lwe_ksk.switch(std::hint::black_box(&lwe)));
    });
    [fwd, inv, cmult, hrot, ks]
}

/// A fixed single-threaded NTT loop (forward + inverse at N = 4096, 64
/// rounds), timed once: a run taken in a slow host phase shows here.
pub fn host_ref_kernel_s() -> f64 {
    let n = 4096;
    let ntt = NttTables::new(ntt_primes(50, n, 1)[0], n);
    let mut data: Vec<u64> = (0..n as u64).collect();
    let t0 = Instant::now();
    for _ in 0..64 {
        ntt.forward(std::hint::black_box(&mut data));
        ntt.inverse(std::hint::black_box(&mut data));
    }
    t0.elapsed().as_secs_f64()
}
