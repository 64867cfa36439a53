//! Seeded fault injection for the plan executor: a [`FaultPlan`] chooses
//! *what* goes wrong at *which* step, and [`FaultInjectingBackend`] wraps
//! any [`PlanBackend`] to make it happen.
//!
//! The harness exists to exercise the resilient serving path
//! ([`super::execute_resilient`], [`super::InferenceSession`]) against
//! the failure modes a long-lived FHE server actually sees: a step that
//! panics mid-request, a ciphertext whose limbs are corrupted (a single
//! perturbed word makes the CRT residues inconsistent, so the measured
//! invariant-noise budget collapses), a run whose noise budget is
//! artificially exhausted, and a step slow enough to blow a deadline.
//! Faults are chosen by an in-repo PRNG under the same seed-salting
//! discipline as `crate::fuzz::gen`, so every chaos case is reproducible
//! from `(seed, case index)` alone.
//!
//! Composability: the wrapper is generic over the backend and its value
//! types — it injects into the encrypted pipeline, the noise simulation,
//! and the counting dry run alike (corruption is a [`FaultTarget`]
//! behavior of the value type; the unit values of the counting backend
//! corrupt to nothing).

use std::time::Duration;

use athena_fhe::bfv::BfvCiphertext;
use athena_fhe::fbs::Lut;
use athena_math::prng::Prng;

use crate::trace::OpCounts;

use super::backend::PlanBackend;

/// Seed salt of the fault-plan PRNG (the same discipline as
/// `fuzz::gen`: independent streams come from XOR salts on one seed).
const FAULT_SALT: u64 = 0x5f_a0_17_c3_8e_21_d9_44;

/// What goes wrong at an injected step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The step panics (a worker crash mid-request).
    Panic,
    /// One word of one limb of the step's RLWE output is perturbed,
    /// making its CRT residues inconsistent — under probing the measured
    /// budget collapses and the run fails typed as noise exhaustion.
    CorruptLimb,
    /// `bits` of artificial noise-budget consumption charged at the
    /// step's probe point (carried forward to the next probed step when
    /// the step itself produces no RLWE value). Forces
    /// [`super::RunPolicy::probe`] on, since only a probe observes it.
    NoiseSpike {
        /// Budget bits to burn.
        bits: u32,
    },
    /// The step sleeps before running (a straggler; pairs with
    /// [`super::RunPolicy`] deadlines).
    SlowStep {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    /// A stable short name, for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::CorruptLimb => "corrupt-limb",
            FaultKind::NoiseSpike { .. } => "noise-spike",
            FaultKind::SlowStep { .. } => "slow-step",
        }
    }
}

/// One injected fault: which flat step index it fires at, what it does,
/// and optional filters for retry/batch scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Flat step index (execution order across all layers) the fault
    /// fires at.
    pub step: usize,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Fire only on this attempt number (1-based); `None` = every
    /// attempt. `Some(1)` makes a fault transient: the first attempt
    /// fails, the retry succeeds.
    pub on_attempt: Option<u32>,
    /// Fire only for this batch input index; `None` = every input. Lets
    /// a chaos case fault exactly one item of a batch and assert its
    /// neighbors are unharmed.
    pub on_input: Option<usize>,
}

impl FaultSpec {
    /// A fault firing at `step` on every attempt and input.
    pub fn at(step: usize, kind: FaultKind) -> Self {
        Self {
            step,
            kind,
            on_attempt: None,
            on_input: None,
        }
    }

    /// Restricts the fault to attempt `attempt` (1-based).
    pub fn on_attempt(mut self, attempt: u32) -> Self {
        self.on_attempt = Some(attempt);
        self
    }

    /// Restricts the fault to batch input `input`.
    pub fn on_input(mut self, input: usize) -> Self {
        self.on_input = Some(input);
        self
    }
}

/// A reproducible set of faults to inject into one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the corruption PRNG (which word of which limb gets
    /// perturbed).
    pub seed: u64,
    /// The faults, in no particular order; at most one fires per step.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An explicit fault plan.
    pub fn new(seed: u64, faults: Vec<FaultSpec>) -> Self {
        Self { seed, faults }
    }

    /// The single-fault plan "panic at flat step `step`" — the workhorse
    /// of the chaos sweep.
    pub fn panic_at(step: usize) -> Self {
        Self::new(0, vec![FaultSpec::at(step, FaultKind::Panic)])
    }

    /// A seeded random fault plan over a plan of `step_count` steps:
    /// picks one step and one kind per `(seed, case)` pair, under the
    /// `fuzz::gen` salting discipline.
    pub fn seeded(seed: u64, case: usize, step_count: usize) -> Self {
        let mut r = Prng::seed_from_u64(seed ^ FAULT_SALT ^ (case as u64).wrapping_mul(0x9e37));
        let step = r.next_below(step_count.max(1) as u64) as usize;
        let kind = match r.next_below(4) {
            0 => FaultKind::Panic,
            1 => FaultKind::CorruptLimb,
            2 => FaultKind::NoiseSpike {
                bits: 10_000 + r.next_below(50_000) as u32,
            },
            _ => FaultKind::SlowStep {
                millis: r.next_below(3),
            },
        };
        Self::new(seed, vec![FaultSpec::at(step, kind)])
    }

    /// The fault (if any) firing at flat step `index` for `(attempt,
    /// input)`.
    pub fn fault_at(&self, index: usize, attempt: u32, input: Option<usize>) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.step == index
                    && f.on_attempt.is_none_or(|a| a == attempt)
                    && (f.on_input.is_none() || f.on_input == input)
            })
            .map(|f| f.kind)
    }
}

/// A value a [`FaultKind::CorruptLimb`] fault can perturb. The encrypted
/// backend's ciphertexts take a single-word limb perturbation; the
/// simulation's integer vectors take a single-element perturbation; the
/// counting backend's unit values have nothing to corrupt.
pub trait FaultTarget {
    /// Perturbs one element of `self`, chosen by `prng`.
    fn corrupt(&mut self, prng: &mut Prng);
}

impl FaultTarget for BfvCiphertext {
    fn corrupt(&mut self, prng: &mut Prng) {
        // Perturb one word of one limb of part 0. The decrement keeps the
        // value reduced mod the limb prime (primes are > 2), but the CRT
        // residues are now inconsistent, so reconstruction — and with it
        // the measured invariant-noise budget — collapses.
        let part = &mut self.parts_mut()[0];
        let limb = prng.next_below(part.limb_count() as u64) as usize;
        let word = prng.next_below(part.n() as u64) as usize;
        let v = &mut part.limbs_mut()[limb].values_mut()[word];
        *v = if *v > 0 { *v - 1 } else { 1 };
    }
}

impl FaultTarget for Vec<i64> {
    fn corrupt(&mut self, prng: &mut Prng) {
        if !self.is_empty() {
            let i = prng.next_below(self.len() as u64) as usize;
            self[i] = self[i].wrapping_add(1);
        }
    }
}

impl FaultTarget for () {
    fn corrupt(&mut self, _prng: &mut Prng) {}
}

/// Wraps a backend and injects the faults of a [`FaultPlan`]: panics and
/// sleeps fire in [`PlanBackend::note_step`] (before the step runs),
/// corruption arms there and lands on the step's RLWE output, and noise
/// spikes accumulate for the executor to drain via
/// [`FaultInjectingBackend::take_spike`].
pub struct FaultInjectingBackend<'p, B: PlanBackend> {
    inner: B,
    plan: &'p FaultPlan,
    attempt: u32,
    input: Option<usize>,
    armed_corrupt: bool,
    pending_spike: u32,
    prng: Prng,
}

impl<'p, B: PlanBackend> FaultInjectingBackend<'p, B> {
    /// Wraps `inner`, injecting `plan`'s faults for `(attempt, input)`.
    pub fn new(inner: B, plan: &'p FaultPlan, attempt: u32, input: Option<usize>) -> Self {
        Self {
            inner,
            plan,
            attempt,
            input,
            armed_corrupt: false,
            pending_spike: 0,
            prng: Prng::seed_from_u64(plan.seed ^ FAULT_SALT.rotate_left(17)),
        }
    }

    /// Drains the artificial noise-budget consumption armed since the
    /// last call (bits).
    pub fn take_spike(&mut self) -> u32 {
        std::mem::take(&mut self.pending_spike)
    }

    fn maybe_corrupt(&mut self, mut v: B::Rlwe) -> B::Rlwe
    where
        B::Rlwe: FaultTarget,
    {
        if self.armed_corrupt {
            self.armed_corrupt = false;
            v.corrupt(&mut self.prng);
        }
        v
    }
}

impl<B: PlanBackend> PlanBackend for FaultInjectingBackend<'_, B>
where
    B::Rlwe: FaultTarget,
{
    type Rlwe = B::Rlwe;
    type Mid = B::Mid;
    type Lwe = B::Lwe;

    fn note_step(&mut self, node: usize, step: usize, index: usize) {
        self.inner.note_step(node, step, index);
        match self.plan.fault_at(index, self.attempt, self.input) {
            None => {}
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic at node {node} step {step} (flat index {index})")
            }
            Some(FaultKind::CorruptLimb) => self.armed_corrupt = true,
            Some(FaultKind::NoiseSpike { bits }) => self.pending_spike += bits,
            Some(FaultKind::SlowStep { millis }) => {
                std::thread::sleep(Duration::from_millis(millis))
            }
        }
    }

    fn encrypt_input(&mut self, coeffs: &[i64]) -> Self::Rlwe {
        let v = self.inner.encrypt_input(coeffs);
        self.maybe_corrupt(v)
    }

    fn linear(&mut self, ct: &Self::Rlwe, kernel: &[i64], bias: &[(usize, i64)]) -> Self::Rlwe {
        let v = self.inner.linear(ct, kernel, bias);
        self.maybe_corrupt(v)
    }

    fn mod_switch(&mut self, ct: &Self::Rlwe) -> Self::Mid {
        self.inner.mod_switch(ct)
    }

    fn extract_lwes(&mut self, mid: &Self::Mid, positions: &[usize]) -> Vec<Self::Lwe> {
        self.inner.extract_lwes(mid, positions)
    }

    fn dim_switch(&mut self, big: Vec<Self::Lwe>, drop_to_t: bool) -> Vec<Self::Lwe> {
        self.inner.dim_switch(big, drop_to_t)
    }

    fn lwe_add_scaled(&mut self, a: &Self::Lwe, b: &Self::Lwe, mult: i64) -> Self::Lwe {
        self.inner.lwe_add_scaled(a, b, mult)
    }

    fn pack(&mut self, slots: &[Option<Self::Lwe>]) -> Self::Rlwe {
        let v = self.inner.pack(slots);
        self.maybe_corrupt(v)
    }

    fn fbs(&mut self, packed: &Self::Rlwe, lut: &Lut, slots: &[Option<Self::Lwe>]) -> Self::Rlwe {
        let v = self.inner.fbs(packed, lut, slots);
        self.maybe_corrupt(v)
    }

    fn s2c(&mut self, ct: &Self::Rlwe) -> Self::Rlwe {
        let v = self.inner.s2c(ct);
        self.maybe_corrupt(v)
    }

    fn output(&mut self, acc: &[Self::Lwe], scale: f64) -> Vec<f64> {
        self.inner.output(acc, scale)
    }

    fn take_counts(&mut self) -> OpCounts {
        self.inner.take_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_case_varied() {
        let a = FaultPlan::seeded(42, 0, 20);
        let b = FaultPlan::seeded(42, 0, 20);
        assert_eq!(a, b, "same (seed, case) must give the same plan");
        let kinds: Vec<FaultKind> = (0..16)
            .map(|c| FaultPlan::seeded(42, c, 20).faults[0].kind)
            .collect();
        assert!(
            kinds.iter().any(|k| matches!(k, FaultKind::Panic)),
            "16 cases should hit panic at least once: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| !matches!(k, FaultKind::Panic)),
            "16 cases should hit a non-panic kind at least once: {kinds:?}"
        );
    }

    #[test]
    fn attempt_and_input_filters_gate_firing() {
        let plan = FaultPlan::new(
            0,
            vec![
                FaultSpec::at(3, FaultKind::Panic).on_attempt(1),
                FaultSpec::at(5, FaultKind::CorruptLimb).on_input(2),
            ],
        );
        assert_eq!(plan.fault_at(3, 1, None), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(3, 2, None), None, "attempt filter");
        assert_eq!(plan.fault_at(5, 1, Some(2)), Some(FaultKind::CorruptLimb));
        assert_eq!(plan.fault_at(5, 1, Some(1)), None, "input filter");
        assert_eq!(plan.fault_at(5, 1, None), None, "no input in scope");
        assert_eq!(plan.fault_at(4, 1, None), None, "unfaulted step");
    }

    #[test]
    fn corrupting_a_sim_vector_changes_one_element() {
        let mut v = vec![1i64, 2, 3, 4];
        let orig = v.clone();
        let mut prng = Prng::seed_from_u64(7);
        v.corrupt(&mut prng);
        let diffs = v.iter().zip(&orig).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }
}
