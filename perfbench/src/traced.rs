//! The traced pass: spans recorded from outside the program, around every
//! call into a plan step, with the public counters snapshotted at each
//! span boundary.
//!
//! [`run_traced`] interprets a compiled plan step by step through the
//! public [`PlanBackend`] methods. It copies the executor's crate-private
//! `run_step` control flow, including the max-pool tree, whose pack, FBS
//! and S2C calls get child spans. The same inputs and sampler seed must
//! give logits bit-identical to `plan::execute`; the runner checks that on
//! every traced request.

use std::time::{Duration, Instant};

use athena_core::plan::{ExecutionPlan, PlanBackend, StepOp};
use athena_core::trace::Phase;
use athena_fhe::fbs::Lut;
use athena_math::stats::{alloc_stats, lift_stats, ntt_stats, op_stats, rot_stats};
use athena_nn::tensor::ITensor;

/// Names of the snapshotted counters, in [`Counts`] order.
pub const COUNTER_NAMES: [&str; 18] = [
    "pmult",
    "cmult",
    "smult",
    "hadd",
    "hrot",
    "sample_extract",
    "mod_switch",
    "ntt_fwd",
    "ntt_inv",
    "rot_eager",
    "rot_hoisted",
    "rot_decompose",
    "lift_computed",
    "lift_reused",
    "arena_takes",
    "arena_fresh",
    "arena_recycled",
    "arena_freed",
];

/// Index of the first arena counter whose value depends on pool warmth
/// and thread interleaving (`fresh`, `recycled`, `freed`); every counter
/// before it repeats exactly across requests and thread counts.
pub const FIRST_SCHEDULE_DEPENDENT: usize = 15;

/// One snapshot (or delta) of every process-global counter.
pub type Counts = [u64; 18];

/// Reads every counter family at once.
pub fn snapshot() -> Counts {
    let o = op_stats::snapshot();
    let n = ntt_stats::snapshot();
    let r = rot_stats::snapshot();
    let l = lift_stats::snapshot();
    let a = alloc_stats::snapshot();
    [
        o.pmult,
        o.cmult,
        o.smult,
        o.hadd,
        o.hrot,
        o.sample_extract,
        o.mod_switch,
        n.forward,
        n.inverse,
        r.eager,
        r.hoisted,
        r.decompose,
        l.computed,
        l.reused,
        a.takes,
        a.fresh,
        a.recycled,
        a.freed,
    ]
}

fn sub(a: &Counts, b: &Counts) -> Counts {
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub request: u32,
    /// Index of the parent span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Step label (`request` and `encrypt` for the non-step spans).
    pub name: &'static str,
    /// `(node, step)` of the plan step, for step spans.
    pub at: Option<(usize, usize)>,
    /// Phase of the plan step (child spans inherit their parent's).
    pub phase: Option<Phase>,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Counter deltas over the span, children included.
    pub counts: Counts,
}

/// In-memory span store; written out once the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<(usize, Counts)>,
    request: u32,
    /// LWEs passed to the dimension switch, summed over all requests.
    pub lwes_switched: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            lwes_switched: 0,
        }
    }

    fn enter(&mut self, name: &'static str, at: Option<(usize, usize)>, phase: Option<Phase>) {
        let parent = self.open.last().map(|&(i, _)| i);
        let phase = phase.or_else(|| parent.and_then(|p| self.spans[p].phase));
        self.spans.push(Span {
            request: self.request,
            parent,
            name,
            at,
            phase,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            counts: [0; 18],
        });
        // Counters last, so the bookkeeping above is outside the delta.
        self.open.push((self.spans.len() - 1, snapshot()));
    }

    fn exit(&mut self) {
        let after = snapshot();
        let end = self.epoch.elapsed();
        let (i, before) = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = end;
        self.spans[i].counts = sub(&after, &before);
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name, None, None);
        let out = f();
        self.exit();
        out
    }

    /// Spans of request `r`.
    pub fn request_spans(&self, r: u32) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.request == r)
    }

    /// Number of requests traced so far.
    pub fn requests(&self) -> u32 {
        self.request
    }
}

/// Executor registers, as in the crate-private `ExecState`.
struct State<B: PlanBackend> {
    values: Vec<Option<B::Rlwe>>,
    cur: Option<B::Rlwe>,
    small: Option<B::Mid>,
    big: Vec<B::Lwe>,
    acc: Vec<B::Lwe>,
    slots: Vec<Option<B::Lwe>>,
    packed: Option<B::Rlwe>,
    boot: Option<B::Rlwe>,
    logits: Vec<f64>,
}

/// Runs one request — input encryption, every plan step, client-side
/// output — under spans, and returns the logits. The request's spans are
/// one `request` root with an `encrypt` child and one child per step.
pub fn run_traced<B: PlanBackend>(
    backend: &mut B,
    plan: &ExecutionPlan,
    input: &ITensor,
    rec: &mut Recorder,
) -> Vec<f64> {
    rec.enter("request", None, None);
    let mut coeffs = vec![0i64; plan.n];
    for (flat, &pos) in plan.input_positions.iter().enumerate() {
        coeffs[pos] = input.data()[flat];
    }
    let mut st = State::<B> {
        values: (0..plan.layers.len() + 1).map(|_| None).collect(),
        cur: None,
        small: None,
        big: Vec::new(),
        acc: Vec::new(),
        slots: Vec::new(),
        packed: None,
        boot: None,
        logits: Vec::new(),
    };
    st.values[0] = Some(rec.span("encrypt", || backend.encrypt_input(&coeffs)));
    let mut flat = 0usize;
    for layer in &plan.layers {
        for (si, step) in layer.steps.iter().enumerate() {
            rec.enter(step.op.label(), Some((layer.node, si)), Some(step.phase));
            backend.note_step(layer.node, si, flat);
            step_traced(backend, plan, &step.op, &mut st, rec);
            rec.exit();
            flat += 1;
        }
    }
    rec.exit();
    rec.request += 1;
    st.logits
}

/// One step, with the executor's control flow; the max-pool tree's
/// pack/FBS/S2C calls are child spans.
fn step_traced<B: PlanBackend>(
    backend: &mut B,
    plan: &ExecutionPlan,
    op: &StepOp,
    st: &mut State<B>,
    rec: &mut Recorder,
) {
    match op {
        StepOp::Linear {
            value,
            kernel,
            bias,
        } => {
            let ct = st.values[*value].as_ref().expect("producer stored");
            st.cur = Some(backend.linear(ct, kernel, bias));
        }
        StepOp::ModSwitch { value } => {
            let src = match value {
                Some(i) => st.values[*i].as_ref().expect("value stored"),
                None => st.cur.as_ref().expect("pending linear output"),
            };
            st.small = Some(backend.mod_switch(src));
        }
        StepOp::ExtractLwes { positions } => {
            let small = st.small.as_ref().expect("mod-switched ciphertext");
            st.big = backend.extract_lwes(small, positions);
        }
        StepOp::DimSwitch { drop_to_t } => {
            let big = std::mem::take(&mut st.big);
            rec.lwes_switched += big.len() as u64;
            st.acc.extend(backend.dim_switch(big, *drop_to_t));
        }
        StepOp::ResidualAdd {
            skip,
            positions,
            mult,
            drop_to_t,
        } => {
            let ct = st.values[*skip].as_ref().expect("skip stored");
            let small = backend.mod_switch(ct);
            let big = backend.extract_lwes(&small, positions);
            rec.lwes_switched += big.len() as u64;
            let sw = backend.dim_switch(big, *drop_to_t);
            assert_eq!(sw.len(), st.acc.len(), "skip shape mismatch");
            for (a, s) in st.acc.iter_mut().zip(&sw) {
                *a = backend.lwe_add_scaled(a, s, *mult);
            }
        }
        StepOp::MaxReduce { k, shape } => {
            let lwes = std::mem::take(&mut st.acc);
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = (h / k, w / k);
            let mut streams: Vec<Vec<B::Lwe>> = Vec::with_capacity(k * k);
            for ky in 0..*k {
                for kx in 0..*k {
                    let mut s = Vec::with_capacity(c * oh * ow);
                    for ci in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                s.push(lwes[(ci * h + oy * k + ky) * w + ox * k + kx].clone());
                            }
                        }
                    }
                    streams.push(s);
                }
            }
            let relu = Lut::from_signed_fn(plan.t, |x| x.max(0));
            while streams.len() > 1 {
                let b = streams.pop().expect("len > 1");
                let a = streams.pop().expect("len > 1");
                let diffs: Vec<Option<B::Lwe>> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| Some(backend.lwe_add_scaled(x, y, -1)))
                    .collect();
                let packed = rec.span("pack", || backend.pack(&diffs));
                let relu_ct = rec.span("fbs", || backend.fbs(&packed, &relu, &diffs));
                let relu_coeff = rec.span("s2c", || backend.s2c(&relu_ct));
                let small = backend.mod_switch(&relu_coeff);
                let positions: Vec<usize> = (0..a.len()).collect();
                let big = backend.extract_lwes(&small, &positions);
                rec.lwes_switched += big.len() as u64;
                let relu_lwes = backend.dim_switch(big, true);
                streams.push(
                    b.iter()
                        .zip(&relu_lwes)
                        .map(|(y, r)| backend.lwe_add_scaled(y, r, 1))
                        .collect(),
                );
            }
            st.acc = streams.pop().expect("one stream left");
        }
        StepOp::AvgReduce { k, shape } => {
            let lwes = std::mem::take(&mut st.acc);
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = (h / k, w / k);
            let mut sums = Vec::with_capacity(c * oh * ow);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc: Option<B::Lwe> = None;
                        for ky in 0..*k {
                            for kx in 0..*k {
                                let e = &lwes[(ci * h + oy * k + ky) * w + ox * k + kx];
                                acc = Some(match acc {
                                    None => e.clone(),
                                    Some(a) => backend.lwe_add_scaled(&a, e, 1),
                                });
                            }
                        }
                        sums.push(acc.expect("k >= 1"));
                    }
                }
            }
            st.acc = sums;
        }
        StepOp::Pack { slot_of } => {
            let acc = std::mem::take(&mut st.acc);
            let mut slots: Vec<Option<B::Lwe>> = (0..plan.n).map(|_| None).collect();
            for (slot, flat) in slot_of.iter().enumerate() {
                if let Some(f) = flat {
                    slots[slot] = Some(acc[*f].clone());
                }
            }
            st.packed = Some(backend.pack(&slots));
            st.slots = slots;
        }
        StepOp::Fbs { lut } => {
            let packed = st.packed.take().expect("packed ciphertext");
            st.boot = Some(backend.fbs(&packed, lut, &st.slots));
        }
        StepOp::S2C { value, .. } => {
            let boot = st.boot.take().expect("bootstrapped ciphertext");
            st.values[*value] = Some(backend.s2c(&boot));
            st.slots.clear();
        }
        StepOp::Output { scale } => {
            st.logits = backend.output(&st.acc, *scale);
        }
    }
}

/// Per-request summary of a traced request: self time and self counts
/// per step label, self time per phase, and the request's wall time.
#[derive(Debug, Clone, Default)]
pub struct RequestSummary {
    /// Wall time of the `request` root span, in seconds.
    pub wall_s: f64,
    /// `(label, self seconds, self counts)`, in first-seen order.
    pub labels: Vec<(&'static str, f64, Counts)>,
    /// `(phase, self seconds)` over step spans (and their children).
    pub phases: Vec<(Phase, f64)>,
}

impl RequestSummary {
    /// Sum of every non-root span's self time, in seconds.
    pub fn self_total(&self) -> f64 {
        self.labels.iter().map(|(_, s, _)| s).sum()
    }

    /// Self seconds of `label` (0 when the request has no such span).
    pub fn self_s(&self, label: &str) -> f64 {
        self.labels
            .iter()
            .find(|(l, _, _)| *l == label)
            .map_or(0.0, |(_, s, _)| *s)
    }

    /// Self counts of `label` (zeros when the request has no such span).
    pub fn counts(&self, label: &str) -> Counts {
        self.labels
            .iter()
            .find(|(l, _, _)| *l == label)
            .map_or([0; 18], |(_, _, c)| *c)
    }

    /// Counts of the whole request (root span delta).
    pub fn total_counts(&self) -> Counts {
        let mut t = [0u64; 18];
        for (_, _, c) in &self.labels {
            for (a, b) in t.iter_mut().zip(c) {
                *a += b;
            }
        }
        t
    }
}

/// Summarizes request `r`: a span's self time (and counts) is its own
/// minus its direct children's.
pub fn summarize(rec: &Recorder, r: u32) -> RequestSummary {
    let spans: Vec<(usize, &Span)> = rec.request_spans(r).collect();
    let mut out = RequestSummary::default();
    for &(i, s) in &spans {
        let mut self_t = s.end - s.start;
        let mut self_c = s.counts;
        for &(_, c) in spans.iter().filter(|(_, c)| c.parent == Some(i)) {
            self_t = self_t.saturating_sub(c.end - c.start);
            self_c = sub(&self_c, &c.counts);
        }
        let secs = self_t.as_secs_f64();
        if s.parent.is_none() {
            out.wall_s = (s.end - s.start).as_secs_f64();
            continue;
        }
        match out.labels.iter_mut().find(|(l, _, _)| *l == s.name) {
            Some((_, t, c)) => {
                *t += secs;
                for (a, b) in c.iter_mut().zip(&self_c) {
                    *a += b;
                }
            }
            None => out.labels.push((s.name, secs, self_c)),
        }
        if let Some(p) = s.phase {
            match out.phases.iter_mut().find(|(q, _)| *q == p) {
                Some((_, t)) => *t += secs,
                None => out.phases.push((p, secs)),
            }
        }
    }
    out
}
