//! Metric names, the result line, and the run record.

use std::fmt::Write as _;

use athena_fhe::params::BfvParams;

/// Step labels that get `step.<label>.*` metrics.
pub const STEP_LABELS: [&str; 10] = [
    "encrypt",
    "linear",
    "mod_switch",
    "extract",
    "dim_switch",
    "pack",
    "fbs",
    "s2c",
    "max_reduce",
    "output",
];

/// `(label, op)` pairs whose per-request operation count is nonzero on at
/// least one workload.
pub const OP_METRICS: [(&str, &str); 14] = [
    ("linear", "pmult"),
    ("linear", "hadd"),
    ("mod_switch", "mod_switch"),
    ("extract", "sample_extract"),
    ("pack", "pmult"),
    ("pack", "hadd"),
    ("fbs", "cmult"),
    ("fbs", "smult"),
    ("fbs", "hadd"),
    ("s2c", "pmult"),
    ("s2c", "hadd"),
    ("s2c", "hrot"),
    ("max_reduce", "mod_switch"),
    ("max_reduce", "sample_extract"),
];

/// Labels with `ntt.<label>.{fwd,inv}` metrics.
pub const NTT_LABELS: [&str; 7] = [
    "encrypt",
    "linear",
    "mod_switch",
    "pack",
    "fbs",
    "s2c",
    "max_reduce",
];

/// The four phases of the paper's per-phase breakdown.
pub const PHASES: [&str; 4] = ["linear", "conversion", "activation", "pooling"];

/// Every per-layer metric name and unit, in output order. The traced run
/// emits exactly these, zero where a workload has no such layer.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("setup.engine_s".into(), "s"),
        ("setup.compile_s".into(), "s"),
        ("setup.keygen_s".into(), "s"),
        ("keys.galois_count".into(), "count"),
        ("keys.lwe_ksk_bytes".into(), "bytes"),
        ("session.hit_rate".into(), "ratio"),
    ];
    for l in STEP_LABELS {
        v.push((format!("step.{l}.self_s"), "s"));
        v.push((format!("step.{l}.share"), "ratio"));
    }
    for (l, op) in OP_METRICS {
        v.push((format!("ops.{l}.{op}"), "count"));
    }
    for l in NTT_LABELS {
        v.push((format!("ntt.{l}.fwd"), "count"));
        v.push((format!("ntt.{l}.inv"), "count"));
    }
    for n in ["eager", "hoisted", "decompose"] {
        v.push((format!("rot.{n}"), "count"));
    }
    for n in ["computed", "reused"] {
        v.push((format!("lift.{n}"), "count"));
    }
    for n in ["takes", "fresh", "recycled"] {
        v.push((format!("arena.{n}"), "count"));
    }
    v.push(("par.cpu_util".into(), "ratio"));
    for n in crate::kernels::KERNEL_NAMES {
        v.push((format!("kernel.{n}"), "s"));
    }
    v.push(("bytes.dim_switch_ksk".into(), "bytes"));
    v.push(("trace.coverage".into(), "ratio"));
    v.push(("trace.overhead".into(), "ratio"));
    for p in PHASES {
        v.push((format!("phase.cpu.{p}"), "ratio"));
    }
    for p in PHASES {
        v.push((format!("phase.accel.{p}"), "ratio"));
    }
    v.push(("host.ref_kernel_s".into(), "s"));
    v.push(("quality.top1_agree".into(), "ratio"));
    v.push(("quality.max_logit_dev".into(), "logit"));
    v
}

/// Every end-to-end metric name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_rps", "1/s"),
    ("ok_rate", "ratio"),
    ("eval_key_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v));
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit `f64` carries (non-finite values,
/// which JSON cannot hold, become 0 — no metric produces one on a
/// successful run).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// The checkout's git revision, read from `.git/HEAD` (and the ref it
/// names); `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a fingerprint of a parameter set.
pub fn params_fingerprint(p: &BfvParams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(p.n as u64);
    for &q in &p.q_primes {
        eat(q);
    }
    eat(p.t);
    eat(p.lwe_n as u64);
    eat(p.sigma.to_bits());
    eat(u64::from(p.lwe_ks_base_log));
    h
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
