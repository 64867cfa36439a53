//! Quickstart: encrypt an image, run a tiny quantized CNN **fully under
//! FHE** through the Athena five-step loop, decrypt the logits, and compare
//! with the plaintext integer pipeline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use athena::core::infer::run_encrypted;
use athena::core::pipeline::AthenaEngine;
use athena::core::trace::OpCounts;
use athena::fhe::params::BfvParams;
use athena::math::sampler::Sampler;
use athena::nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena::nn::tensor::ITensor;

fn main() {
    // A reduced parameter set: every pipeline step is real cryptography,
    // just at degree 128 / t = 257 so it finishes in seconds.
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(2025);
    println!("generating keys (RLWE sk, relin, Galois, LWE ksk, packing)...");
    let (secrets, keys) = engine.keygen(&mut sampler);

    // Tiny quantized CNN: conv 1→2 (ReLU, fused remap) then FC 18→3.
    let conv_w: Vec<i64> = (0..18).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..54).map(|i| ((i % 3) as i64) - 1).collect();
    let model = QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 1, 3, 3], conv_w),
                    bias: vec![1, -2],
                    stride: 1,
                    padding: 0,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 0.5,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[3, 18, 1, 1], fc_w),
                    bias: vec![0, 1, -1],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    };

    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 5) - 2).collect());
    let reference = model.forward(&input);

    println!("running encrypted inference (conv → modswitch → extract → pack → FBS → S2C → FC)...");
    let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);

    println!("\nplaintext logits : {reference:?}");
    println!("encrypted logits : {:?}", enc.logits);
    let plain_arg = athena::core::util::argmax(&reference);
    let enc_arg = athena::core::util::argmax(&enc.logits);
    println!("predicted class  : plaintext {plain_arg}, encrypted {enc_arg}");
    let max_delta = reference
        .iter()
        .zip(&enc.logits)
        .map(|(p, e)| (p - e).abs())
        .fold(0.0f64, f64::max);
    println!(
        "max logit delta  : {max_delta} (≤ one activation step expected: e_ms noise on LUT inputs)"
    );
    // Op counts come from the run's per-step records.
    let mut ops = OpCounts::default();
    for s in &enc.steps {
        ops.add(&s.measured);
    }
    let steps = |label: &str| enc.steps.iter().filter(|s| s.label == label).count();
    println!(
        "\npipeline ops: {} PMult, {} extractions, {} pack, {} FBS ({} CMult, {} SMult), {} S2C",
        ops.pmult,
        ops.sample_extract,
        steps("pack"),
        steps("fbs"),
        ops.cmult,
        ops.smult,
        steps("s2c"),
    );
}
