//! One benchmark run of one workload: the untraced end-to-end pass
//! (`--trace 0`) or the traced per-layer pass (`--trace 1`).

use std::fmt::Write as _;
use std::time::Instant;

use athena_accel::sim::AthenaSim;
use athena_core::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets};
use athena_core::plan::{execute, try_compile, EncryptedBackend, ExecutionPlan};
use athena_core::trace::Phase;
use athena_math::par;
use athena_math::sampler::Sampler;

use crate::kernels::{host_ref_kernel_s, time_kernels, KERNEL_NAMES};
use crate::report::{
    git_rev, median, num, params_fingerprint, per_layer_names, quantile, result_line, string,
    Metrics, END_TO_END, NTT_LABELS, OP_METRICS, PHASES, STEP_LABELS,
};
use crate::serve::{cold_setups, engine, peak_rss_mb, serve, Served, ENC_SALT, KEY_SALT};
use crate::traced::{
    run_traced, summarize, Counts, Recorder, RequestSummary, COUNTER_NAMES,
    FIRST_SCHEDULE_DEPENDENT,
};
use crate::workloads::{by_name, Certified, Workload};

/// Cold set-ups timed per untraced run (at least this many, for at least
/// [`SETUP_SECONDS`]); `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Least time spent timing cold set-ups per untraced run.
const SETUP_SECONDS: f64 = 2.0;
/// Set-up breakdowns timed per traced run.
const TRACE_SETUP_REPS: usize = 3;
/// Fewest traced requests per traced run.
const MIN_TRACED: usize = 3;
/// Largest tolerated gap between the step self times and the traced
/// request wall time (the sum rule).
const COVERAGE_SLACK: f64 = 0.05;
/// Requests a `p90` needs before it is printed: ten beyond the 90th
/// percentile.
const P90_MIN_REQUESTS: usize = 100;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for inputs, keys and encryption draws.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: f64,
    /// Traced per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Directory the run record and spans are written to.
    pub out_dir: String,
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed.
    pub failed: usize,
    /// Failed self-checks and request failures, described.
    pub problems: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every request and self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn absorb(&mut self, served: &Served) {
        self.attempted += served.attempted;
        self.failed += served.failed;
        self.problems.extend(served.failures.iter().cloned());
    }
}

/// Compiled plan plus the key material generated for it.
pub struct Keyed {
    /// The engine.
    pub engine: AthenaEngine,
    /// The compiled plan.
    pub plan: ExecutionPlan,
    /// Client secrets.
    pub secrets: AthenaSecrets,
    /// Server evaluation keys.
    pub keys: AthenaEvalKeys,
}

/// Builds an engine, compiles `w`'s plan and generates its keys, timing
/// the three parts.
///
/// # Errors
///
/// Returns the compile rejection as text.
pub fn keyed(w: &Workload, key_seed: u64) -> Result<(Keyed, [f64; 3]), String> {
    let t0 = Instant::now();
    let engine = engine(w);
    let t1 = Instant::now();
    let plan = try_compile(&engine, &w.model, &w.input_shape).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let (secrets, keys) = engine.keygen_for_plan(&plan, &mut Sampler::from_seed(key_seed));
    let t3 = Instant::now();
    let times = [
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
    ];
    Ok((
        Keyed {
            engine,
            plan,
            secrets,
            keys,
        },
        times,
    ))
}

/// Encryption seed of traced request `i`.
pub fn traced_seed(seed: u64, i: usize) -> u64 {
    seed ^ ENC_SALT ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One traced request next to an untraced `plan::execute` of the same
/// input and sampler seed.
#[derive(Debug, Clone)]
pub struct Paired {
    /// `plan::execute` wall seconds.
    pub untraced_s: f64,
    /// Traced-interpreter wall seconds.
    pub traced_s: f64,
    /// Whether the two runs' logits are bit-identical.
    pub identical: bool,
    /// The traced run's logits.
    pub logits: Vec<f64>,
}

/// Runs `cert` once untraced through `plan::execute` and once through the
/// traced interpreter (order set by `traced_first`), both from sampler
/// seed `s`.
pub fn paired_request(
    k: &Keyed,
    cert: &Certified,
    s: u64,
    rec: &mut Recorder,
    traced_first: bool,
) -> Paired {
    let untraced = || {
        let t0 = Instant::now();
        let run = execute(
            &k.engine,
            &k.secrets,
            &k.keys,
            &k.plan,
            &cert.input,
            &mut Sampler::from_seed(s),
        );
        (t0.elapsed().as_secs_f64(), run.logits)
    };
    let traced = |rec: &mut Recorder| {
        let mut sampler = Sampler::from_seed(s);
        let mut backend = EncryptedBackend::new(&k.engine, &k.secrets, &k.keys, &mut sampler);
        let t0 = Instant::now();
        let logits = run_traced(&mut backend, &k.plan, &cert.input, rec);
        (t0.elapsed().as_secs_f64(), logits)
    };
    let ((us, ul), (ts, tl)) = if traced_first {
        let t = traced(rec);
        (untraced(), t)
    } else {
        let u = untraced();
        (u, traced(rec))
    };
    let identical =
        ul.len() == tl.len() && ul.iter().zip(&tl).all(|(a, b)| a.to_bits() == b.to_bits());
    Paired {
        untraced_s: us,
        traced_s: ts,
        identical,
        logits: tl,
    }
}

/// Checks the sum rule on one traced request: step self times cover the
/// request wall time to within [`COVERAGE_SLACK`]. Returns the coverage.
pub fn coverage(s: &RequestSummary) -> f64 {
    s.self_total() / s.wall_s
}

/// Whether a coverage value meets the sum rule.
pub fn coverage_ok(c: f64) -> bool {
    (1.0 - COVERAGE_SLACK..=1.0 + 1e-9).contains(&c)
}

/// Labels whose schedule-independent self counts differ between two
/// traced requests.
pub fn count_mismatches(a: &RequestSummary, b: &RequestSummary) -> Vec<String> {
    let mut labels: Vec<&str> = a.labels.iter().map(|(l, _, _)| *l).collect();
    labels.extend(b.labels.iter().map(|(l, _, _)| *l));
    labels.sort_unstable();
    labels.dedup();
    let mut out = Vec::new();
    for l in labels {
        let (ca, cb) = (a.counts(l), b.counts(l));
        for i in 0..FIRST_SCHEDULE_DEPENDENT {
            if ca[i] != cb[i] {
                out.push(format!("{l}.{}: {} vs {}", COUNTER_NAMES[i], ca[i], cb[i]));
            }
        }
    }
    out
}

fn counter(c: &Counts, name: &str) -> f64 {
    let i = COUNTER_NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known counter");
    c[i] as f64
}

fn phase_key(p: Phase) -> Option<&'static str> {
    match p {
        Phase::Linear => Some("linear"),
        Phase::Conversion => Some("conversion"),
        Phase::Activation => Some("activation"),
        Phase::Pooling => Some("pooling"),
        Phase::Softmax => None,
    }
}

/// Runs one workload as `args` asks.
///
/// # Errors
///
/// Returns why the run could not start (unknown workload, an input the
/// fuzz oracles reject, a model the compiler rejects); no result is
/// printed then.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = by_name(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let host = host_ref_kernel_s();
    let pool = w.certified_inputs(args.seed)?;
    let mut out = Outcome::default();
    let threads_env = std::env::var("ATHENA_THREADS").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"athena_threads\": {}, \"workers\": {}, \"git_rev\": {}, \"params_fp\": \"{:016x}\", \
         \"host_ref_kernel_s\": {}}}",
        string(w.name),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        string(&threads_env),
        par::num_threads(),
        string(&git_rev()),
        params_fingerprint(&w.params),
        num(host),
    );
    out.notes.push(format!("run {record}"));

    if args.trace {
        traced_run(&w, &pool, args, host, &mut out)?;
    } else {
        let setups = cold_setups(&w, args.seed, SETUP_REPS, SETUP_SECONDS)?;
        // The session keeps its keys private; size an identical key set.
        let (k, _) = keyed(&w, args.seed ^ KEY_SALT)?;
        let served = serve(&w, &pool, args.seed, args.seconds);
        out.absorb(&served);
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups), "s");
        m.set("latency_p50_s", median(&served.latencies), "s");
        m.set(
            "throughput_rps",
            served.completed as f64 / served.wall_s,
            "1/s",
        );
        m.set(
            "ok_rate",
            (served.attempted - served.failed) as f64 / served.attempted.max(1) as f64,
            "ratio",
        );
        m.set(
            "eval_key_bytes",
            k.keys.bytes(k.engine.context()) as f64,
            "bytes",
        );
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        out.notes.push(format!(
            "fail_rate = {} ({} of {} requests)",
            served.failed as f64 / served.attempted.max(1) as f64,
            served.failed,
            served.attempted
        ));
        if served.latencies.len() >= P90_MIN_REQUESTS {
            out.notes.push(format!(
                "latency_p90_s = {} s ({} timed requests)",
                quantile(&served.latencies, 0.9),
                served.latencies.len()
            ));
        } else {
            out.notes.push(format!(
                "latency_p90_s omitted: {} timed requests (< {P90_MIN_REQUESTS})",
                served.latencies.len()
            ));
        }
    }
    // The emitted names must be exactly the declared lists that
    // BENCHMARK.json mirrors.
    let mut declared: Vec<String> = if args.trace {
        per_layer_names().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut emitted: Vec<String> = out.metrics.0.iter().map(|(n, _, _)| n.clone()).collect();
    declared.sort();
    emitted.sort();
    if emitted != declared {
        out.problems
            .push("emitted metric names differ from the declared list".into());
    }
    let result = result_line(out.correct(), out.attempted, out.failed, &out.metrics);
    write_record(
        args,
        &format!("{{\"run\": {record}, \"result\": {result}}}"),
    )?;
    Ok(out)
}

/// Writes the run record: the run's settings and host reference time
/// next to its result line.
fn write_record(args: &Args, record: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = format!(
        "{}/{}-seed{}-trace{}.run.json",
        args.out_dir,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(path, format!("{record}\n")).map_err(|e| e.to_string())
}

fn write_spans(args: &Args, rec: &Recorder) -> Result<(), String> {
    let mut s = String::new();
    for (i, sp) in rec.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"id\": {i}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}",
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.request,
            string(sp.name),
            sp.start.as_micros(),
            sp.end.as_micros(),
        );
        if let Some((node, step)) = sp.at {
            let _ = write!(s, ", \"node\": {node}, \"step\": {step}");
        }
        if let Some(p) = sp.phase {
            let _ = write!(s, ", \"phase\": {}", string(p.name()));
        }
        for (n, v) in COUNTER_NAMES.iter().zip(&sp.counts) {
            if *v != 0 {
                let _ = write!(s, ", \"{n}\": {v}");
            }
        }
        s.push_str("}\n");
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = format!(
        "{}/{}-seed{}.spans.jsonl",
        args.out_dir, args.workload, args.seed
    );
    std::fs::write(path, s).map_err(|e| e.to_string())
}

fn traced_run(
    w: &Workload,
    pool: &[Certified],
    args: &Args,
    host: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up breakdown; the last rep's keys serve the traced pass.
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    for r in 0..TRACE_SETUP_REPS as u64 {
        let (k, t) = keyed(w, args.seed ^ KEY_SALT ^ (r << 32))?;
        for (v, x) in parts.iter_mut().zip(t) {
            v.push(x);
        }
        last = Some(k);
    }
    let k = last.expect("at least one set-up rep");

    let served = serve(w, pool, args.seed, args.seconds * 0.4);
    out.absorb(&served);

    // Traced pass: each request runs traced and untraced (alternating
    // which goes first) from the same sampler seed.
    let mut rec = Recorder::new();
    let mut pairs: Vec<Paired> = Vec::new();
    let t0 = Instant::now();
    while pairs.len() < MIN_TRACED || t0.elapsed().as_secs_f64() < args.seconds * 0.6 {
        let i = pairs.len();
        let cert = &pool[i % pool.len()];
        let p = paired_request(&k, cert, traced_seed(args.seed, i), &mut rec, i % 2 == 1);
        out.attempted += 1;
        if !p.identical {
            out.failed += 1;
            out.problems.push(format!(
                "traced request {i}: logits differ from plan::execute"
            ));
        }
        match cert.deviation(&p.logits) {
            Some(dev) if dev <= cert.tolerance => {}
            dev => {
                out.failed += 1;
                out.problems.push(format!(
                    "traced request {i}: deviation {dev:?} outside tolerance {}",
                    cert.tolerance
                ));
            }
        }
        pairs.push(p);
    }
    let sums: Vec<RequestSummary> = (0..rec.requests()).map(|r| summarize(&rec, r)).collect();
    let covs: Vec<f64> = sums.iter().map(coverage).collect();
    if let Some((r, c)) = covs.iter().enumerate().find(|(_, c)| !coverage_ok(**c)) {
        out.problems.push(format!(
            "traced request {r}: step self times cover {c} of its wall time"
        ));
    }
    for (r, s) in sums.iter().enumerate().skip(1) {
        for m in count_mismatches(&sums[0], s) {
            out.problems.push(format!(
                "traced request {r}: count {m} differs from request 0"
            ));
        }
    }

    // Thread-count invariance of every count: request 0 again, one worker.
    par::set_threads(1);
    let mut rec1 = Recorder::new();
    let one = paired_request(&k, &pool[0], traced_seed(args.seed, 0), &mut rec1, true);
    par::set_threads(0);
    out.attempted += 1;
    if !one.identical || one.logits != pairs[0].logits {
        out.failed += 1;
        out.problems
            .push("one-worker traced request: logits differ".to_string());
    }
    for m in count_mismatches(&sums[0], &summarize(&rec1, 0)) {
        out.problems.push(format!(
            "count {m} differs between {} workers and 1",
            par::num_threads()
        ));
    }

    let kernels = time_kernels(&k.engine, &k.secrets, &k.keys, args.seed ^ KEY_SALT);
    let sim = AthenaSim::athena().run_plan(&k.plan, w.name, &w.model.cfg);
    write_spans(args, &rec)?;

    // Metrics.
    let s0 = &sums[0];
    let m = &mut out.metrics;
    m.set("setup.engine_s", median(&parts[0]), "s");
    m.set("setup.compile_s", median(&parts[1]), "s");
    m.set("setup.keygen_s", median(&parts[2]), "s");
    m.set(
        "keys.galois_count",
        k.keys.gk.elements().len() as f64,
        "count",
    );
    m.set("keys.lwe_ksk_bytes", k.keys.lwe_ksk.bytes() as f64, "bytes");
    m.set("session.hit_rate", served.hit_rate, "ratio");
    for l in STEP_LABELS {
        let selfs: Vec<f64> = sums.iter().map(|s| s.self_s(l)).collect();
        let shares: Vec<f64> = sums.iter().map(|s| s.self_s(l) / s.wall_s).collect();
        m.set(format!("step.{l}.self_s"), median(&selfs), "s");
        m.set(format!("step.{l}.share"), median(&shares), "ratio");
    }
    for (l, op) in OP_METRICS {
        m.set(format!("ops.{l}.{op}"), counter(&s0.counts(l), op), "count");
    }
    for l in NTT_LABELS {
        let c = s0.counts(l);
        m.set(format!("ntt.{l}.fwd"), counter(&c, "ntt_fwd"), "count");
        m.set(format!("ntt.{l}.inv"), counter(&c, "ntt_inv"), "count");
    }
    let total = s0.total_counts();
    for n in ["eager", "hoisted", "decompose"] {
        m.set(
            format!("rot.{n}"),
            counter(&total, &format!("rot_{n}")),
            "count",
        );
    }
    for n in ["computed", "reused"] {
        m.set(
            format!("lift.{n}"),
            counter(&total, &format!("lift_{n}")),
            "count",
        );
    }
    let timed = served.latencies.len().max(1) as f64;
    m.set("arena.takes", served.arena.takes as f64 / timed, "count");
    m.set("arena.fresh", served.arena.fresh as f64 / timed, "count");
    m.set(
        "arena.recycled",
        served.arena.recycled as f64 / timed,
        "count",
    );
    m.set(
        "par.cpu_util",
        served.cpu_s / (served.wall_s * served.workers as f64),
        "ratio",
    );
    for (n, v) in KERNEL_NAMES.iter().zip(kernels) {
        m.set(format!("kernel.{n}"), v, "s");
    }
    let lwes_per_request = rec.lwes_switched as f64 / f64::from(rec.requests().max(1));
    out.notes.push(format!(
        "bytes.dim_switch_ksk is computed, not measured: {lwes_per_request} LWEs per request, \
         each walking the whole {}-byte key-switch key",
        k.keys.lwe_ksk.bytes()
    ));
    m.set(
        "bytes.dim_switch_ksk",
        lwes_per_request * k.keys.lwe_ksk.bytes() as f64,
        "bytes",
    );
    m.set("trace.coverage", median(&covs), "ratio");
    let untraced: Vec<f64> = pairs.iter().map(|p| p.untraced_s).collect();
    let traced: Vec<f64> = pairs.iter().map(|p| p.traced_s).collect();
    m.set(
        "trace.overhead",
        median(&traced) / median(&untraced) - 1.0,
        "ratio",
    );
    let cpu_phase = |key: &str| -> f64 {
        let (mut part, mut all) = (0.0, 0.0);
        for s in &sums {
            for (p, t) in &s.phases {
                if let Some(pk) = phase_key(*p) {
                    all += t;
                    if pk == key {
                        part += t;
                    }
                }
            }
        }
        if all > 0.0 {
            part / all
        } else {
            0.0
        }
    };
    let accel_total: f64 = sim
        .phase_costs
        .iter()
        .filter(|(p, _)| phase_key(*p).is_some())
        .map(|(_, c)| c.cycles)
        .sum();
    let accel_phase = |key: &str| -> f64 {
        let part: f64 = sim
            .phase_costs
            .iter()
            .filter(|(p, _)| phase_key(*p) == Some(key))
            .map(|(_, c)| c.cycles)
            .sum();
        if accel_total > 0.0 {
            part / accel_total
        } else {
            0.0
        }
    };
    out.notes
        .push("per-phase shares (Fig. 10 analogue; not gated): phase  cpu  accel-model".into());
    for p in PHASES {
        let (c, a) = (cpu_phase(p), accel_phase(p));
        out.notes.push(format!("  {p:<10} {c:>7.4} {a:>7.4}"));
        m.set(format!("phase.cpu.{p}"), c, "ratio");
        m.set(format!("phase.accel.{p}"), a, "ratio");
    }
    m.set("host.ref_kernel_s", host, "s");
    m.set(
        "quality.top1_agree",
        served.top1_agree as f64 / served.attempted.max(1) as f64,
        "ratio",
    );
    m.set("quality.max_logit_dev", served.max_dev, "logit");

    // Nonzero counts the fixed metric list does not name.
    for (l, _, c) in &s0.labels {
        for (i, name) in COUNTER_NAMES.iter().enumerate().take(7) {
            if c[i] != 0 && !OP_METRICS.contains(&(*l, *name)) {
                out.notes
                    .push(format!("unlisted nonzero count ops.{l}.{name} = {}", c[i]));
            }
        }
        if (c[7] != 0 || c[8] != 0) && !NTT_LABELS.contains(l) {
            out.notes
                .push(format!("unlisted nonzero NTT counts under {l}"));
        }
    }
    Ok(())
}
