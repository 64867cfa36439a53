//! The benchmark workloads: parameter set, model, and certified inputs.
//!
//! Models are fixed; the run seed drives only the inputs here (and, in
//! the runner, key and encryption draws). Every input is drawn inside the
//! accumulator headroom the fuzz generator enforces and then certified by
//! the fuzz oracles (`athena_core::fuzz::run_case`, plaintext oracles
//! only), which also yields the reference logits and the propagated
//! `e_ms` tolerance each encrypted answer is held to.

use athena_core::fuzz::{e_ms_bound, run_case, CaseParams, FuzzCase, OracleCtx};
use athena_core::pipeline::PackingMethod;
use athena_fhe::params::BfvParams;
use athena_math::prime::ntt_primes;
use athena_math::prng::Prng;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QStats, QuantConfig};
use athena_nn::tensor::ITensor;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["conv_relu_fc", "linear_only", "maxpool_batch"];

/// Salt for the input-drawing PRNG (inputs are independent of key and
/// encryption draws made from the same run seed).
const INPUT_SALT: u64 = 0x1a9e_77c3_0b5d_2f41;
/// Distinct inputs a run cycles through.
const POOL: usize = 16;
/// Accumulator headroom at the certification modulus `t = 257`: the
/// fuzz generator's `(t−1)/2` minus its safety notch.
const HALF_T: f64 = 126.0;

/// How the closed-loop client submits requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `run_encrypted` at a time, back to back.
    Single,
    /// One `run_batch` of this many inputs at a time.
    Batch(usize),
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Parameters the encrypted requests run at.
    pub params: BfvParams,
    /// The fuzz-oracle parameter point the model and inputs are certified
    /// at (`t = 257`, same LWE dimension as `params`).
    pub cert: CaseParams,
    /// The quantized model.
    pub model: QModel,
    /// Input shape `[c, h, w]`.
    pub input_shape: [usize; 3],
    /// Request submission mode.
    pub mode: Mode,
}

/// One certified input: the reference logits and the tolerance every
/// encrypted answer for it must meet.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The input tensor.
    pub input: ITensor,
    /// `QModel::forward` logits (equal to both simulation oracles).
    pub reference: Vec<f64>,
    /// `CaseOutcome::tolerance`: the propagated `e_ms` logit bound.
    pub tolerance: f64,
}

impl Certified {
    /// Largest |logit − reference| of an answer, or `None` when it has
    /// the wrong number of logits.
    pub fn deviation(&self, logits: &[f64]) -> Option<f64> {
        (logits.len() == self.reference.len()).then(|| {
            logits
                .iter()
                .zip(&self.reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        })
    }
}

fn conv(
    c_out: usize,
    c_in: usize,
    k: usize,
    weights: Vec<i64>,
    bias: Vec<i64>,
    padding: usize,
    act: Activation,
) -> QOp {
    QOp::Linear(QLinear {
        weight: ITensor::from_vec(&[c_out, c_in, k, k], weights),
        bias,
        stride: 1,
        padding,
        is_fc: false,
        act,
        in_scale: 0.5,
        w_scale: 0.5,
        out_scale: 1.0,
    })
}

fn fc(c_out: usize, c_in: usize, weights: Vec<i64>, bias: Vec<i64>) -> QOp {
    QOp::Linear(QLinear {
        weight: ITensor::from_vec(&[c_out, c_in, 1, 1], weights),
        bias,
        stride: 1,
        padding: 0,
        is_fc: true,
        act: Activation::Identity,
        in_scale: 1.0,
        w_scale: 0.5,
        out_scale: 1.0,
    })
}

fn chain(ops: Vec<QOp>) -> QModel {
    QModel {
        nodes: ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| QNode {
                op,
                input: i,
                skip: None,
            })
            .collect(),
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

/// The fuzz-oracle parameter point with ring degree `n` and LWE dimension
/// `lwe_n` (column packing).
fn cert_params(n: usize, lwe_n: usize, ks_base_log: u32) -> CaseParams {
    CaseParams {
        n,
        lwe_n,
        ks_base_log,
        packing: PackingMethod::Column,
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        // The quickstart shape at test_small: one full five-step cycle.
        "conv_relu_fc" => {
            let cert = cert_params(128, 32, 4);
            Some(Workload {
                name: "conv_relu_fc",
                params: cert.bfv(),
                cert,
                model: chain(vec![
                    conv(
                        2,
                        1,
                        3,
                        (0..18).map(|i| (i % 5) - 2).collect(),
                        vec![1, -2],
                        0,
                        Activation::ReLU,
                    ),
                    fc(
                        3,
                        18,
                        (0..54).map(|i| (i % 3) - 1).collect(),
                        vec![0, 1, -1],
                    ),
                ]),
                input_shape: [1, 5, 5],
                mode: Mode::Single,
            })
        }
        // One client-bound linear layer: no pack, FBS or S2C. The
        // parameters are built here (not taken from a named preset) so
        // the workload cannot change when a preset does.
        "linear_only" => {
            let params = BfvParams {
                n: 1024,
                q_primes: ntt_primes(55, 1024, 4),
                t: 12289,
                lwe_n: 128,
                sigma: 3.2,
                lwe_ks_base_log: 7,
            };
            let mut r = Prng::seed_from_u64(0x11ea_0001);
            Some(Workload {
                name: "linear_only",
                params,
                cert: cert_params(128, 128, 7),
                model: chain(vec![conv(
                    4,
                    1,
                    3,
                    (0..36).map(|_| r.next_i64_in(-3, 3)).collect(),
                    (0..4).map(|_| r.next_i64_in(-3, 3)).collect(),
                    1,
                    Activation::Identity,
                )]),
                input_shape: [1, 8, 8],
                mode: Mode::Single,
            })
        }
        // conv → ReLU → 2×2 max-pool → FC, served in batches. The LWE
        // dimension is 16, not test_small's 32: at 32 the fuzz
        // generator's headroom gate rejects every 2×2 max-pool (the
        // k²·e_ms term alone exceeds it).
        "maxpool_batch" => {
            let cert = cert_params(128, 16, 4);
            Some(Workload {
                name: "maxpool_batch",
                params: cert.bfv(),
                cert,
                model: chain(vec![
                    conv(
                        2,
                        1,
                        3,
                        (0..18).map(|i| ((i * 3 + 1) % 7) - 3).collect(),
                        vec![1, -1],
                        1,
                        Activation::ReLU,
                    ),
                    QOp::MaxPool { k: 2 },
                    fc(
                        3,
                        8,
                        (0..24).map(|i| [1, 0, -1, 1, 0, 0, -1, 1][i % 8]).collect(),
                        vec![1, 0, -1],
                    ),
                ]),
                input_shape: [1, 4, 4],
                mode: Mode::Batch(8),
            })
        }
        _ => None,
    }
}

/// Activation slope bound over ℝ (as the fuzz deviation bound uses it).
fn lipschitz(act: Activation) -> f64 {
    match act {
        Activation::Identity | Activation::ReLU => 1.0,
        Activation::Sigmoid => 0.25,
        Activation::Gelu => 1.13,
    }
}

/// The fuzz generator's accumulator-headroom gate: every accumulator,
/// widened by its propagated worst-case `e_ms` deviation, stays inside
/// `(−t/2, t/2)` at `t = 257`, and each max-pool diff tree has room for
/// twice its operand. The deviation propagation mirrors
/// `athena_core::fuzz::DeviationBound`, which the crate does not expose
/// per node.
pub fn within_headroom(model: &QModel, input: &ITensor, lwe_n: usize) -> bool {
    let mut stats = QStats::default();
    let (logits, _) = model.forward_traced(input, None, &mut stats);
    if logits.is_empty() {
        return false;
    }
    let e = e_ms_bound(lwe_n);
    let a_max = model.cfg.a_max() as f64;
    let cap = 2.0 * a_max;
    let mut per_value = vec![0.0f64];
    for (ni, node) in model.nodes.iter().enumerate() {
        let dev_in = per_value[node.input];
        let is_last = ni + 1 == model.nodes.len();
        let (acc_dev, out_dev) = match &node.op {
            QOp::Linear(l) => {
                let per = l.weight.len() / l.weight.shape()[0];
                let row_l1 = l
                    .weight
                    .data()
                    .chunks(per)
                    .map(|row| row.iter().map(|w| w.abs()).sum::<i64>())
                    .max()
                    .unwrap_or(0) as f64;
                let mut acc = row_l1 * dev_in;
                if let Some((skip, mult)) = node.skip {
                    acc += mult.abs() as f64 * per_value[skip];
                }
                if is_last {
                    (acc, 0.0)
                } else {
                    acc += e;
                    let slope = lipschitz(l.act) * (l.in_scale * l.w_scale / l.out_scale).abs();
                    (acc, (slope * acc + 1.0).min(cap))
                }
            }
            QOp::MaxPool { k } => {
                let operand = a_max + dev_in + (k * k) as f64 * e;
                if 2.0 * operand > HALF_T {
                    return false;
                }
                let d = dev_in + (k * k) as f64 * e;
                (d, d.min(cap))
            }
            QOp::AvgPool { k } => {
                let kk = (k * k) as f64;
                let sum = kk * (dev_in + e);
                (sum, (sum / kk + 1.0).min(cap))
            }
        };
        let acc = stats.max_acc.get(ni).copied().unwrap_or(0) as f64;
        if acc + acc_dev > HALF_T {
            return false;
        }
        per_value.push(out_dev);
    }
    true
}

impl Workload {
    /// Draws the run's input pool from `seed` (inside the headroom gate)
    /// and certifies every input with the plaintext fuzz oracles.
    ///
    /// # Errors
    ///
    /// Returns the oracle failure (or an exhausted draw) as text.
    pub fn certified_inputs(&self, seed: u64) -> Result<Vec<Certified>, String> {
        let a_max = self.model.cfg.a_max();
        let len: usize = self.input_shape.iter().product();
        let mut r = Prng::seed_from_u64(seed ^ INPUT_SALT);
        let mut ctx = OracleCtx::new();
        let mut pool = Vec::with_capacity(POOL);
        let mut draws = 0usize;
        while pool.len() < POOL {
            draws += 1;
            if draws > 100 * POOL {
                return Err(format!(
                    "{}: no input inside the headroom gate after {draws} draws",
                    self.name
                ));
            }
            let input = ITensor::from_vec(
                &self.input_shape,
                (0..len).map(|_| r.next_i64_in(-a_max, a_max)).collect(),
            );
            if !within_headroom(&self.model, &input, self.cert.lwe_n) {
                continue;
            }
            let mut reference = Vec::new();
            let mut tolerance = 0.0f64;
            for model in self.cert_models() {
                let case = FuzzCase {
                    seed,
                    params: self.cert,
                    model,
                    input: input.clone(),
                };
                let outcome = run_case(&mut ctx, &case, false).map_err(|f| f.to_string())?;
                reference.extend(outcome.logits);
                tolerance = tolerance.max(outcome.tolerance);
            }
            if reference != self.model.forward(&input) {
                return Err(format!(
                    "{}: per-channel certification disagrees with the whole model",
                    self.name
                ));
            }
            pool.push(Certified {
                input,
                reference,
                tolerance,
            });
        }
        Ok(pool)
    }

    /// The models the fuzz oracles certify. A one-layer model is
    /// certified one output channel at a time: its channels are
    /// independent, and the certification ring (degree ≤ 128, the most
    /// `t = 257` slot encoding allows) holds one channel's outputs but not
    /// necessarily all of them. The per-channel references, concatenated,
    /// must equal the whole model's.
    fn cert_models(&self) -> Vec<QModel> {
        let [QNode {
            op: QOp::Linear(l), ..
        }] = &self.model.nodes[..]
        else {
            return vec![self.model.clone()];
        };
        let c_out = l.weight.shape()[0];
        let per = l.weight.len() / c_out;
        let mut shape = l.weight.shape().to_vec();
        shape[0] = 1;
        (0..c_out)
            .map(|c| {
                let mut one = l.clone();
                one.weight =
                    ITensor::from_vec(&shape, l.weight.data()[c * per..(c + 1) * per].to_vec());
                one.bias = vec![l.bias[c]];
                QModel {
                    nodes: vec![QNode {
                        op: QOp::Linear(one),
                        input: 0,
                        skip: None,
                    }],
                    ..self.model.clone()
                }
            })
            .collect()
    }

    /// Requests per client call (1, or the batch size).
    pub fn per_call(&self) -> usize {
        match self.mode {
            Mode::Single => 1,
            Mode::Batch(b) => b,
        }
    }
}
