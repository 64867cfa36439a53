//! Bit-identity of the plan-driven executor against the pre-plan monolithic
//! inference loop.
//!
//! `legacy` below is a frozen copy of the original `infer::run_encrypted`
//! (before it became a compile-then-execute wrapper), preserved verbatim so
//! the refactor is checked against the real old control flow, not against a
//! re-derivation. Both paths draw the same keys and the same input
//! encryption randomness, and every evaluation step is exact modular
//! arithmetic — so the logits must agree **exactly**, not within tolerance.

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::{infer, plan};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

/// The pre-plan inference loop, frozen.
mod legacy {
    use athena_core::encoding::ConvEncoder;
    use athena_core::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets};
    use athena_fhe::bfv::BfvCiphertext;
    use athena_fhe::fbs::Lut;
    use athena_fhe::lwe::LweCiphertext;
    use athena_math::sampler::Sampler;
    use athena_nn::models::ConvShape;
    use athena_nn::qmodel::{QLinear, QModel, QOp};
    use athena_nn::tensor::ITensor;

    #[derive(Debug, Clone)]
    struct StoredValue {
        ct: BfvCiphertext,
        positions: Vec<usize>,
        shape: Vec<usize>,
    }

    #[derive(Debug, Clone)]
    struct ConsumerLayout {
        slot_of: Vec<Option<usize>>,
        positions: Vec<usize>,
    }

    fn flat_layout(len: usize, n: usize) -> ConsumerLayout {
        assert!(len <= n);
        let mut slot_of = vec![None; n];
        for (i, s) in slot_of.iter_mut().take(len).enumerate() {
            *s = Some(i);
        }
        ConsumerLayout {
            slot_of,
            positions: (0..len).collect(),
        }
    }

    fn conv_layout(shape: &[usize], padding: usize, n: usize) -> ConsumerLayout {
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (hp, wp) = (h + 2 * padding, w + 2 * padding);
        assert!(c * hp * wp <= n);
        let mut slot_of = vec![None; n];
        let mut positions = vec![0usize; c * h * w];
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let flat = (ci * h + y) * w + x;
                    let slot = ci * hp * wp + (y + padding) * wp + (x + padding);
                    slot_of[slot] = Some(flat);
                    positions[flat] = slot;
                }
            }
        }
        ConsumerLayout { slot_of, positions }
    }

    fn consumer_layout(
        model: &QModel,
        value_idx: usize,
        shape: &[usize],
        n: usize,
    ) -> ConsumerLayout {
        for node in &model.nodes {
            if node.input == value_idx {
                return match &node.op {
                    QOp::Linear(l) if !l.is_fc => conv_layout(shape, l.padding, n),
                    _ => flat_layout(shape.iter().product(), n),
                };
            }
        }
        flat_layout(shape.iter().product(), n)
    }

    pub fn run_encrypted(
        engine: &AthenaEngine,
        secrets: &AthenaSecrets,
        keys: &AthenaEvalKeys,
        model: &QModel,
        input: &ITensor,
        sampler: &mut Sampler,
    ) -> Vec<f64> {
        let n = engine.context().n();
        let t = engine.context().t();
        let a_max = model.cfg.a_max();

        let in_layout = consumer_layout(model, 0, input.shape(), n);
        let input_sv = {
            let mut coeffs = vec![0i64; n];
            for (flat, &pos) in in_layout.positions.iter().enumerate() {
                coeffs[pos] = input.data()[flat];
            }
            let positions_all: Vec<usize> = (0..n).collect();
            StoredValue {
                ct: engine.encrypt_at(&coeffs, &positions_all, secrets, sampler),
                positions: in_layout.positions.clone(),
                shape: input.shape().to_vec(),
            }
        };

        let mut values: Vec<Option<StoredValue>> = vec![Some(input_sv)];
        let mut logits: Vec<f64> = Vec::new();

        for (ni, node) in model.nodes.iter().enumerate() {
            let is_last = ni == model.nodes.len() - 1;
            let sv = values[node.input]
                .as_ref()
                .expect("producer stored")
                .clone();
            let (out_lwes, out_shape): (Vec<LweCiphertext>, Vec<usize>) = match &node.op {
                QOp::Linear(l) => {
                    let (acc_lwes, shape) = run_linear_accumulate(engine, keys, &sv, l, is_last);
                    let mut acc_lwes = acc_lwes;
                    if let Some((skip_idx, mult)) = node.skip {
                        let skip_sv = values[skip_idx].as_ref().expect("skip stored");
                        let skip_lwes = if is_last {
                            engine.extract_lwes_mid(&skip_sv.ct, &skip_sv.positions, keys)
                        } else {
                            engine.extract_lwes(&skip_sv.ct, &skip_sv.positions, keys)
                        };
                        assert_eq!(skip_lwes.len(), acc_lwes.len());
                        for (a, s) in acc_lwes.iter_mut().zip(&skip_lwes) {
                            *a = engine.lwe_add_scaled(a, s, mult);
                        }
                    }
                    (acc_lwes, shape)
                }
                QOp::MaxPool { k } => {
                    let lwes = engine.extract_lwes(&sv.ct, &sv.positions, keys);
                    let (c, h, w) = (sv.shape[0], sv.shape[1], sv.shape[2]);
                    let (oh, ow) = (h / k, w / k);
                    let mut streams: Vec<Vec<LweCiphertext>> = Vec::with_capacity(k * k);
                    for ky in 0..*k {
                        for kx in 0..*k {
                            let mut s = Vec::with_capacity(c * oh * ow);
                            for ci in 0..c {
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        s.push(
                                            lwes[(ci * h + oy * k + ky) * w + ox * k + kx].clone(),
                                        );
                                    }
                                }
                            }
                            streams.push(s);
                        }
                    }
                    while streams.len() > 1 {
                        let b = streams.pop().expect("len > 1");
                        let a = streams.pop().expect("len > 1");
                        streams.push(engine.lwe_max(&a, &b, keys));
                    }
                    (streams.pop().expect("one stream left"), vec![c, oh, ow])
                }
                QOp::AvgPool { k } => {
                    let lwes = engine.extract_lwes(&sv.ct, &sv.positions, keys);
                    let (c, h, w) = (sv.shape[0], sv.shape[1], sv.shape[2]);
                    let (oh, ow) = (h / k, w / k);
                    let mut sums = Vec::with_capacity(c * oh * ow);
                    for ci in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc: Option<LweCiphertext> = None;
                                for ky in 0..*k {
                                    for kx in 0..*k {
                                        let e = &lwes[(ci * h + oy * k + ky) * w + ox * k + kx];
                                        acc = Some(match acc {
                                            None => e.clone(),
                                            Some(a) => engine.lwe_add_scaled(&a, e, 1),
                                        });
                                    }
                                }
                                sums.push(acc.expect("k >= 1"));
                            }
                        }
                    }
                    (sums, vec![c, oh, ow])
                }
            };

            if is_last {
                let ints = engine.decrypt_lwes(&out_lwes, secrets);
                if let QOp::Linear(l) = &node.op {
                    logits = ints
                        .iter()
                        .map(|&v| v as f64 * l.in_scale * l.w_scale)
                        .collect();
                } else {
                    logits = ints.iter().map(|&v| v as f64).collect();
                }
                values.push(None);
                continue;
            }

            let out_len: usize = out_shape.iter().product();
            let layout = consumer_layout(model, ni + 1, &out_shape, n);
            let mut slots: Vec<Option<LweCiphertext>> = vec![None; n];
            for (slot, flat) in layout.slot_of.iter().enumerate() {
                if let Some(f) = flat {
                    slots[slot] = Some(out_lwes[*f].clone());
                }
            }
            let lut = match &node.op {
                QOp::Linear(l) => {
                    let lc = l.clone();
                    Lut::from_signed_fn(t, move |v| lc.remap(v, a_max))
                }
                QOp::AvgPool { k } => {
                    let kk = (k * k) as f64;
                    Lut::from_signed_fn(t, move |v| {
                        ((v as f64 / kk).round() as i64).clamp(-a_max, a_max)
                    })
                }
                QOp::MaxPool { .. } => Lut::from_signed_fn(t, |v| v),
            };
            let ct = engine.pack_fbs_s2c(&slots, &lut, keys);
            assert_eq!(layout.positions.len(), out_len);
            values.push(Some(StoredValue {
                ct,
                positions: layout.positions,
                shape: out_shape,
            }));
        }

        logits
    }

    fn run_linear_accumulate(
        engine: &AthenaEngine,
        keys: &AthenaEvalKeys,
        sv: &StoredValue,
        l: &QLinear,
        client_bound: bool,
    ) -> (Vec<LweCiphertext>, Vec<usize>) {
        let n = engine.context().n();
        let (c_out, c_in, k) = (
            l.weight.shape()[0],
            l.weight.shape()[1],
            l.weight.shape()[2],
        );
        let (hp, wp) = if l.is_fc {
            (1usize, 1usize)
        } else {
            (sv.shape[1] + 2 * l.padding, sv.shape[2] + 2 * l.padding)
        };
        let eff_cin = if l.is_fc { sv.positions.len() } else { c_in };
        assert_eq!(
            if l.is_fc { eff_cin } else { c_in },
            if l.is_fc { c_in } else { sv.shape[0] },
        );
        let hw = hp * wp;
        let mut co_g = c_out;
        loop {
            let t_idx = hw * (co_g * eff_cin - 1) + wp * (k - 1) + k - 1;
            if t_idx + eff_cin * hw <= n {
                break;
            }
            assert!(co_g > 1);
            co_g = co_g.div_ceil(2);
        }
        let groups = c_out.div_ceil(co_g);
        let valid = hp - k + 1;
        let out_hw = if l.is_fc {
            1
        } else {
            (sv.shape[1] + 2 * l.padding - k) / l.stride + 1
        };
        let mut all_lwes: Vec<LweCiphertext> = Vec::new();
        for g in 0..groups {
            let co_lo = g * co_g;
            let co_hi = ((g + 1) * co_g).min(c_out);
            let g_cout = co_hi - co_lo;
            let shape = ConvShape {
                hw: hp,
                c_in: eff_cin,
                c_out: g_cout,
                k,
                stride: 1,
                padding: 0,
            };
            let enc = ConvEncoder::new(shape, n);
            let per = eff_cin * k * k;
            let kw = ITensor::from_vec(
                &[g_cout, eff_cin, k, k],
                l.weight.data()[co_lo * per..co_hi * per].to_vec(),
            );
            let mut bias_at = Vec::new();
            let mut positions = Vec::new();
            for co in 0..g_cout {
                for oy in 0..out_hw {
                    for ox in 0..out_hw {
                        let (y, x) = (oy * l.stride, ox * l.stride);
                        debug_assert!(y < valid && x < valid);
                        let pos = enc.output_index(co, y, x);
                        positions.push(pos);
                        let b = l.bias[co_lo + co];
                        if b != 0 {
                            bias_at.push((pos, b));
                        }
                    }
                }
            }
            let conv_ct = engine.linear(&sv.ct, &enc.encode_kernel(&kw), &bias_at);
            all_lwes.extend(if client_bound {
                engine.extract_lwes_mid(&conv_ct, &positions, keys)
            } else {
                engine.extract_lwes(&conv_ct, &positions, keys)
            });
        }
        (all_lwes, vec![c_out, out_hw, out_hw])
    }
}

fn conv_fc_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
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
    }
}

fn pool_model() -> QModel {
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
                op: QOp::MaxPool { k: 2 },
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

fn skip_model() -> QModel {
    let idk = |w: Vec<i64>| ITensor::from_vec(&[1, 1, 3, 3], w);
    QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: idk(vec![0, 0, 0, 0, 1, 0, 0, 0, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 1,
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
                    weight: idk(vec![0, 1, 0, 0, 0, 0, 0, 1, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 1,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: Some((1, 2)),
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 9, 1, 1], vec![1; 9]),
                    bias: vec![0],
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
        cfg: QuantConfig::new(4, 4),
    }
}

/// Runs both paths with identical key and encryption draws and asserts the
/// logits are exactly equal.
fn assert_bit_identical(method: PackingMethod, model: &QModel, input: &ITensor, seed: u64) {
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
    let mut key_sampler = Sampler::from_seed(seed);
    let (secrets, keys) = engine.keygen(&mut key_sampler);

    let mut s_legacy = Sampler::from_seed(seed + 1);
    let legacy_logits =
        legacy::run_encrypted(&engine, &secrets, &keys, model, input, &mut s_legacy);

    let mut s_plan = Sampler::from_seed(seed + 1);
    let enc = infer::run_encrypted(&engine, &secrets, &keys, model, input, &mut s_plan);

    assert_eq!(
        enc.logits, legacy_logits,
        "plan executor diverged from the legacy loop ({method:?})"
    );
    assert!(!enc.logits.is_empty());
}

#[test]
fn conv_fc_bit_identical_column() {
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    assert_bit_identical(PackingMethod::Column, &conv_fc_model(), &input, 31_337);
}

#[test]
fn conv_fc_bit_identical_bsgs() {
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    assert_bit_identical(PackingMethod::Bsgs, &conv_fc_model(), &input, 31_338);
}

#[test]
fn padding_and_maxpool_bit_identical() {
    let input = ITensor::from_vec(
        &[1, 4, 4],
        vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
    );
    assert_bit_identical(PackingMethod::Column, &pool_model(), &input, 31_339);
}

#[test]
fn residual_skip_bit_identical() {
    let input = ITensor::from_vec(&[1, 3, 3], vec![2, -1, 3, 0, 1, -2, 4, 2, 0]);
    assert_bit_identical(PackingMethod::Column, &skip_model(), &input, 31_340);
}

/// Plan-driven keygen is draw-identical to the engine's blanket keygen for
/// a full-pipeline plan: same sampler seed, same keys, same logits.
#[test]
fn keygen_for_plan_matches_keygen_on_full_pipeline() {
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        let model = conv_fc_model();
        let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) as i64 - 1).collect());
        let compiled = plan::compile(&engine, &model, input.shape());

        let mut s_a = Sampler::from_seed(90_210);
        let (sec_a, keys_a) = engine.keygen(&mut s_a);
        let mut s_b = Sampler::from_seed(90_210);
        let (sec_b, keys_b) = engine.keygen_for_plan(&compiled, &mut s_b);

        assert_eq!(
            keys_a.gk.elements(),
            keys_b.gk.elements(),
            "{method:?}: galois element sets differ"
        );
        let mut r_a = Sampler::from_seed(555);
        let run_a = plan::execute(&engine, &sec_a, &keys_a, &compiled, &input, &mut r_a);
        let mut r_b = Sampler::from_seed(555);
        let run_b = plan::execute(&engine, &sec_b, &keys_b, &compiled, &input, &mut r_b);
        assert_eq!(run_a.logits, run_b.logits, "{method:?}: logits differ");
    }
}
