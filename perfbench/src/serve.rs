//! Untraced measurements through the serving API: cold set-up and the
//! closed-loop client.

use std::time::Instant;

use athena_core::pipeline::AthenaEngine;
use athena_core::plan::InferenceSession;
use athena_core::util::argmax;
use athena_math::par;
use athena_math::sampler::Sampler;
use athena_math::stats::alloc_stats;

use crate::workloads::{Certified, Mode, Workload};

/// Salt for the serving session's key-generation seed.
pub const KEY_SALT: u64 = 0x6b65_7973_5f73_6565;
/// Salt for the client's encryption sampler seed.
pub const ENC_SALT: u64 = 0x656e_6372_7970_7421;

/// A fresh engine for `w`'s parameters and packing.
pub fn engine(w: &Workload) -> AthenaEngine {
    AthenaEngine::with_packing(w.params.clone(), w.cert.packing)
}

/// Times cold starts — engine construction, a new session, and the first
/// request's compile + keygen (`try_plan_for`) — until at least
/// `min_reps` ran and `min_seconds` passed. Seconds per rep.
///
/// # Errors
///
/// Returns the compile rejection as text.
pub fn cold_setups(
    w: &Workload,
    seed: u64,
    min_reps: usize,
    min_seconds: f64,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < min_seconds {
        let k = times.len() as u64;
        let t0 = Instant::now();
        let mut session = InferenceSession::new(engine(w), 1, seed ^ KEY_SALT ^ (k << 32));
        session
            .try_plan_for(&w.model, &w.input_shape)
            .map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// What the closed-loop client saw.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Per-request wall seconds of the timed (warm) requests. A batched
    /// request's latency is its batch's wall time: the caller holds every
    /// answer only when the batch returns.
    pub latencies: Vec<f64>,
    /// Requests attempted, the warm-up call included.
    pub attempted: usize,
    /// Requests that returned a typed error or a logit outside tolerance.
    pub failed: usize,
    /// Failure descriptions (the first few).
    pub failures: Vec<String>,
    /// Timed requests that succeeded.
    pub completed: usize,
    /// Wall seconds of the timed loop.
    pub wall_s: f64,
    /// Process CPU seconds over the timed loop.
    pub cpu_s: f64,
    /// Worker count (`athena_math::par::num_threads`).
    pub workers: usize,
    /// Session plan-cache hit rate after the loop.
    pub hit_rate: f64,
    /// Arena counters summed over the timed requests.
    pub arena: alloc_stats::AllocCounts,
    /// Requests whose predicted class equals the reference's.
    pub top1_agree: usize,
    /// Largest |encrypted − reference| logit deviation seen.
    pub max_dev: f64,
}

impl Served {
    fn check(&mut self, got: Result<Vec<f64>, String>, cert: &Certified) -> bool {
        self.attempted += 1;
        let logits = match got {
            Ok(l) => l,
            Err(e) => {
                self.fail(e);
                return false;
            }
        };
        let Some(dev) = cert.deviation(&logits) else {
            self.fail(format!(
                "{} logits, expected {}",
                logits.len(),
                cert.reference.len()
            ));
            return false;
        };
        self.max_dev = self.max_dev.max(dev);
        if argmax(&logits) == argmax(&cert.reference) {
            self.top1_agree += 1;
        }
        if dev > cert.tolerance {
            self.fail(format!(
                "logit deviation {dev} exceeds tolerance {}",
                cert.tolerance
            ));
            return false;
        }
        true
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(why);
        }
    }
}

/// Process CPU seconds (user + system) from `/proc/self/stat`, whose
/// tick unit is the fixed user-space `USER_HZ` of 100.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the closed-loop client for `seconds` against a warm session:
/// one untimed warm-up call (the cold compile + keygen that
/// [`cold_setups`] measures), then back-to-back timed calls.
pub fn serve(w: &Workload, pool: &[Certified], seed: u64, seconds: f64) -> Served {
    let mut session = InferenceSession::new(engine(w), 4, seed ^ KEY_SALT);
    let mut sampler = Sampler::from_seed(seed ^ ENC_SALT);
    let mut out = Served {
        workers: par::num_threads(),
        ..Served::default()
    };
    let per_call = w.per_call();
    let mut next = 0usize;
    let mut call = |session: &mut InferenceSession, out: &mut Served| -> (f64, usize) {
        let certs: Vec<&Certified> = (0..per_call)
            .map(|j| &pool[(next + j) % pool.len()])
            .collect();
        next += per_call;
        let t0 = Instant::now();
        let results: Vec<Result<Vec<f64>, String>> = match w.mode {
            Mode::Single => vec![session
                .run_encrypted(&w.model, &certs[0].input, &mut sampler)
                .map(|r| r.logits)
                .map_err(|e| e.to_string())],
            Mode::Batch(_) => {
                let inputs: Vec<_> = certs.iter().map(|c| c.input.clone()).collect();
                match session.run_batch(&w.model, &inputs, &mut sampler) {
                    Ok(rs) => rs
                        .into_iter()
                        .map(|r| r.map(|r| r.logits).map_err(|e| e.to_string()))
                        .collect(),
                    Err(e) => vec![Err(e.to_string()); per_call],
                }
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        let ok = results
            .into_iter()
            .zip(&certs)
            .map(|(r, c)| out.check(r, c))
            .filter(|&ok| ok)
            .count();
        (secs, ok)
    };
    call(&mut session, &mut out);

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let ((secs, ok), arena) = alloc_stats::measure(|| call(&mut session, &mut out));
        out.arena.add(&arena);
        out.latencies.extend(std::iter::repeat_n(secs, per_call));
        out.completed += ok;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    let s = session.stats();
    out.hit_rate = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
    out
}
