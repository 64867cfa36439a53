//! NTT budget of one five-step Athena layer (linear → mod-switch/extract →
//! pack → FBS → S2C) under the Eval-resident ciphertext representation.
//!
//! The pre-refactor baseline on `test_small` — recorded by
//! `report_domains` in `reports/domain_ntt_baseline.txt` — spent
//! 12 095 forward and 7 107 inverse NTTs on this layer. Keeping key
//! material and rotation chains in Eval form must beat that; the bound
//! below leaves headroom over the measured post-refactor cost so the test
//! guards the representation, not one exact schedule. A second, tighter
//! forward bound pins the hoisting layer on top: shared digit
//! decompositions in the BSGS schedules plus the FBS tensor-lift cache
//! must keep the layer at least 30% below the Eval-resident measurement.

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_fhe::fbs::Lut;
use athena_fhe::lwe::LweCiphertext;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_math::stats::ntt_stats;

/// Pre-refactor counts from `reports/domain_ntt_baseline.txt`; the
/// Eval-resident path measures 4 095 / 2 149 (`reports/domain_ntt.txt`),
/// so requiring better than *half* the baseline still leaves ~45% slack
/// for schedule changes while catching any fall-back to Coeff residency.
const BASELINE_FORWARD: u64 = 12_095;
const BASELINE_INVERSE: u64 = 7_107;

/// Eval-resident counts from `reports/domain_ntt.txt`, the pre-hoisting
/// measurement. Hoisted rotations (decompose-once/rotate-many in the BSGS
/// schedules) plus the FBS tensor-lift cache measure 2 523 / 2 054
/// (`reports/hoisting.txt`); the bound pins the headline ≥30% forward-NTT
/// cut over the Eval-resident schedule with ~12% slack, so losing either
/// digit cache (every rotation decomposing again) or the lift cache
/// (every CMult re-lifting its operands) trips it.
const EVAL_RESIDENT_FORWARD: u64 = 4_095;

#[test]
fn five_step_layer_beats_coeff_resident_baseline() {
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), PackingMethod::Bsgs);
    let ctx = engine.context();
    let mut sampler = Sampler::from_seed(4242);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let ev = athena_fhe::bfv::BfvEvaluator::new(ctx);
    let enc = ctx.encoder();
    let n = ctx.n();
    let t = ctx.t();

    let vals: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % t).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &secrets.sk, &mut sampler);
    let positions: Vec<usize> = (0..32).collect();
    let kernel: Vec<i64> = {
        let mut v = vec![0i64; n];
        v[0] = 2;
        v[1] = -1;
        v
    };
    let lut = Lut::from_signed_fn(t, |x| x.max(0));

    let ((), counts) = ntt_stats::measure(|| {
        let conv = engine.linear(&ct, &kernel, &[]);
        let lw = engine.extract_lwes(&conv, &positions, &keys);
        let opt: Vec<Option<LweCiphertext>> = lw.into_iter().map(Some).collect();
        std::hint::black_box(engine.pack_fbs_s2c(&opt, &lut, &keys));
    });

    assert!(
        counts.forward < BASELINE_FORWARD / 2,
        "five-step layer forward NTTs regressed: {} >= half the Coeff-resident baseline {}",
        counts.forward,
        BASELINE_FORWARD
    );
    assert!(
        counts.inverse < BASELINE_INVERSE / 2,
        "five-step layer inverse NTTs regressed: {} >= half the Coeff-resident baseline {}",
        counts.inverse,
        BASELINE_INVERSE
    );
    assert!(
        counts.forward <= EVAL_RESIDENT_FORWARD * 7 / 10,
        "five-step layer forward NTTs regressed: {} > 70% of the pre-hoisting \
         Eval-resident measurement {} — a hoisting digit cache or the CMult \
         tensor-lift cache stopped being shared",
        counts.forward,
        EVAL_RESIDENT_FORWARD
    );
}
