//! Encrypted pooling scenario: a LeNet-style conv → ReLU → max-pool block
//! running fully under FHE, demonstrating the PEGASUS-style homomorphic
//! max-tree (`max(a,b) = b + ReLU(a − b)`, one LUT per round) and the
//! LWE-level exact summation used for average pooling.
//!
//! ```sh
//! cargo run --release --example encrypted_pooling
//! ```

use athena::core::infer::run_encrypted;
use athena::core::pipeline::AthenaEngine;
use athena::fhe::params::BfvParams;
use athena::math::sampler::Sampler;
use athena::nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena::nn::tensor::ITensor;

fn block(pool: QOp) -> QModel {
    QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 1, 3, 3], vec![0, 1, 0, 1, 2, 1, 0, 1, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 1,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 1.0,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: pool,
                input: 1,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 4, 1, 1], vec![1, -1, 1, -1, 2, 0, -2, 0]),
                    bias: vec![0, 0],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 2,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 4),
    }
}

fn main() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(99);
    println!("generating keys...");
    let (secrets, keys) = engine.keygen(&mut sampler);
    let input = ITensor::from_vec(
        &[1, 4, 4],
        vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
    );
    for (name, pool) in [
        ("max-pool 2x2", QOp::MaxPool { k: 2 }),
        ("avg-pool 2x2", QOp::AvgPool { k: 2 }),
    ] {
        let model = block(pool);
        let reference = model.forward(&input);
        let start = std::time::Instant::now();
        let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
        println!(
            "\n{name}: plaintext logits {reference:?}\n{:13} encrypted logits {:?} ({:.2?})",
            "",
            enc.logits,
            start.elapsed()
        );
        let cmult: u64 = enc.steps.iter().map(|s| s.measured.cmult).sum();
        println!(
            "{:13} FBS CMults: {cmult} (max-tree costs k^2-1 = 3 extra ReLU rounds vs avg's divide LUT)",
            ""
        );
    }
}
