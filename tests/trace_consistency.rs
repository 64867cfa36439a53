//! Consistency between the *functional* engine (what actually runs under
//! FHE) and the *analytical* trace (what the accelerator model charges):
//! the op categories the engine executes must be the ones the trace counts,
//! and their relative magnitudes must rank the same way.
//!
//! The engine side reads the measured `op_stats` counts of each step's
//! `StepReport`. The counters are process-global, so the tests serialize
//! on one mutex.

use std::sync::Mutex;

use athena::core::infer::{run_encrypted, EncryptedInference};
use athena::core::pipeline::AthenaEngine;
use athena::core::trace::{trace_model, OpCounts, Phase, TraceParams};
use athena::fhe::params::BfvParams;
use athena::math::sampler::Sampler;
use athena::nn::models::{ConvShape, ModelSpec, NonLinear, SpecLayer};
use athena::nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena::nn::tensor::ITensor;

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

/// The summed measured counts of the steps labelled `label`.
fn measured(enc: &EncryptedInference, label: &str) -> OpCounts {
    let mut total = OpCounts::default();
    for s in enc.steps.iter().filter(|s| s.label == label) {
        total.add(&s.measured);
    }
    total
}

fn label_count(enc: &EncryptedInference, label: &str) -> usize {
    enc.steps.iter().filter(|s| s.label == label).count()
}

/// A tiny conv+FC model and its matching shape-level spec.
fn tiny_model_and_spec() -> (QModel, ModelSpec) {
    let conv_w: Vec<i64> = (0..9).map(|i| (i % 3) - 1).collect();
    let fc_w: Vec<i64> = (0..18).map(|i| (i % 3) - 1).collect();
    let model = QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 1, 3, 3], conv_w),
                    bias: vec![0],
                    stride: 1,
                    padding: 0,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 9, 1, 1], fc_w),
                    bias: vec![0, 0],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let spec = ModelSpec {
        name: "tiny",
        layers: vec![
            SpecLayer {
                conv: ConvShape {
                    hw: 5,
                    c_in: 1,
                    c_out: 1,
                    k: 3,
                    stride: 1,
                    padding: 0,
                },
                act: NonLinear::Activation,
            },
            SpecLayer {
                conv: ConvShape {
                    hw: 1,
                    c_in: 9,
                    c_out: 2,
                    k: 1,
                    stride: 1,
                    padding: 0,
                },
                act: NonLinear::None,
            },
        ],
    };
    (model, spec)
}

#[test]
fn engine_op_mix_matches_trace_structure() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let (model, spec) = tiny_model_and_spec();
    // Run the tiny model through the real engine at reduced parameters.
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(808);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) - 1).collect());
    let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);

    // Trace the matching spec at the *engine's* parameters.
    let params = TraceParams {
        n: engine.context().n(),
        limbs: engine.context().q_basis().len(),
        t: engine.context().t(),
        lwe_n: engine.context().params().lwe_n,
    };
    let trace = trace_model(&spec, &params, &QuantConfig::new(3, 3));

    // Structural consistency: one FBS pass (the FC layer's act is the
    // output), one S2C, one pack — trace's activation phase is non-empty
    // for exactly one layer.
    assert_eq!(label_count(&enc, "fbs"), 1);
    assert_eq!(label_count(&enc, "s2c"), 1);
    assert_eq!(label_count(&enc, "pack"), 1);
    let act_layers = trace
        .layers
        .iter()
        .filter(|l| l.phases.iter().any(|(p, _)| *p == Phase::Activation))
        .count();
    assert_eq!(act_layers, 1, "one activation layer in the trace too");

    // Magnitude ranking: SMult dominates CMult in both views (Alg. 2's
    // t vs 2√t), and extraction counts are within the same order.
    let totals: OpCounts = trace.total();
    assert!(totals.smult > totals.cmult);
    let fbs = measured(&enc, "fbs");
    assert!(fbs.smult > fbs.cmult);
    // Engine extracts the valid conv outputs (9) + FC logits (2); the trace
    // charges the layer outputs likewise.
    let extracts: u64 = enc.steps.iter().map(|s| s.measured.sample_extract).sum();
    assert!(extracts >= 11);
    assert!(totals.sample_extract >= 11);
}

#[test]
fn trace_fbs_op_counts_match_engine_fbs_counts() {
    // The BSGS structure of Alg. 2 must produce a CMult count in the engine
    // (measured) that matches the baby/giant decomposition at the engine's t.
    let _lock = COUNTER_GUARD.lock().unwrap();
    let (model, _) = tiny_model_and_spec();
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(809);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let input = ITensor::from_vec(&[1, 5, 5], vec![1; 25]);
    let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
    let t = engine.context().t();
    let bs = (t as f64).sqrt().ceil() as u64;
    let gs = t.div_ceil(bs);
    // One FBS pass per Alg. 2: baby powers (bs − 1), the log-depth giant
    // power tree (gs − 1), and one giant multiply per non-initial block
    // (gs − 1) — about 3·√t in total, not the 2·√t a depth-gs serial
    // schedule would suggest (the tree trades extra CMults for log depth;
    // see DESIGN.md §7 "FBS depth").
    let expected = (bs - 1) + 2 * (gs - 1);
    let fbs = measured(&enc, "fbs");
    assert!(
        fbs.cmult <= expected + 2 && fbs.cmult >= expected / 2,
        "engine cmult {} vs expected ≈ {}",
        fbs.cmult,
        expected
    );
    assert!(fbs.smult <= t, "engine smult {} exceeds t = {t}", fbs.smult);
}
