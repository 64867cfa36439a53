//! Exact RNS base conversion and `t/Q` scaling in word-sized arithmetic,
//! after Halevi–Polyakov–Shoup ("An Improved RNS Variant of the BFV
//! Homomorphic Encryption Scheme", CT-RSA 2019).
//!
//! Both kernels work on one coefficient's residue vector at a time, with
//! scratch on the stack. Every step is an exact modular multiply-accumulate
//! except one: an `f64` sum of fractions `Σ a_i/m_i` that picks a rounding
//! direction. The moduli are odd, so the true fraction is never exactly
//! `½`. When the floating-point estimate lands within `1e-9` of `½`,
//! the kernel returns `false` and the caller recomputes that coefficient
//! with big integers. Outputs are therefore bit-identical to the
//! [`UBig`]-based CRT reference.

use crate::bigint::UBig;
use crate::modops::Modulus;

/// Capacity of the per-coefficient stack scratch, in limbs.
pub const MAX_LIMBS: usize = 64;

/// Distance from `½` below which a floating-point fraction is not trusted
/// to pick a rounding direction. The `f64` error of a sum of `≤ MAX_LIMBS`
/// fractions is below `1e-13`, so this leaves a wide safety margin while
/// the fallback stays rare (probability `≈ 2·GUARD` per rounding decision
/// on uniformly distributed inputs).
pub(crate) const GUARD: f64 = 1e-9;

/// Rounds a non-negative sum of fractions to the nearest integer, or
/// `None` when its fractional part is within [`GUARD`] of `½`.
#[inline(always)]
pub(crate) fn round_guarded(s: f64) -> Option<u64> {
    let whole = s as u64;
    let frac = s - whole as f64;
    if (frac - 0.5).abs() < GUARD {
        None
    } else {
        Some(whole + u64::from(frac > 0.5))
    }
}

/// `Π moduli` as a big integer.
fn product(moduli: &[u64]) -> UBig {
    moduli.iter().fold(UBig::one(), |acc, &m| acc.mul_u64(m))
}

/// `[x]_m` together with its Shoup constant.
fn shoup_pair(m: &Modulus, x: u64) -> (u64, u64) {
    let x = m.reduce(x);
    (x, m.shoup(x))
}

/// Panics unless a sum of `terms` products of values below `a` and `b`
/// (plus one more such product) fits the `u128` accumulators.
fn assert_acc_fits(terms: usize, a: &[u64], b: &[u64]) {
    let max = |v: &[u64]| v.iter().copied().max().unwrap_or(1) as u128;
    let fits = (max(a) * max(b)).checked_mul(terms as u128 + 2).is_some();
    assert!(fits, "RNS accumulator would overflow u128");
}

/// Exact **centered** conversion from a source basis `B = Π b_i` to a set
/// of target primes `d_j`: given the residues of `x ∈ [0, B)`, produces
/// `[x_c]_{d_j}` for the centered representative `x_c ∈ (−B/2, B/2)`.
///
/// With `y_i = [x_i·(B/b_i)^{-1}]_{b_i}`, `Σ y_i·(B/b_i) = x + αB` for
/// the integer `α = ⌊Σ y_i/b_i⌋`, so `x_c = Σ y_i·(B/b_i) − v·B` with
/// `v = ⌊Σ y_i/b_i + ½⌋`. Only `v` uses floating point.
#[derive(Debug, Clone)]
pub struct CenteredConv {
    src: Vec<Modulus>,
    /// `[(B/b_i)^{-1}]_{b_i}` with its Shoup constant.
    hat_inv: Vec<(u64, u64)>,
    /// `1/b_i`.
    inv: Vec<f64>,
    dst: Vec<Modulus>,
    /// `[B/b_i]_{d_j}`, one row of `len(src)` entries per target `j`.
    hat_mod: Vec<u64>,
    /// `[B]_{d_j}`.
    prod_mod: Vec<u64>,
}

impl CenteredConv {
    /// Precomputes the tables for converting from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty, longer than [`MAX_LIMBS`], or not
    /// pairwise coprime, or if the accumulators could overflow.
    pub fn new(src: &[u64], dst: &[u64]) -> Self {
        assert!(
            !src.is_empty() && src.len() <= MAX_LIMBS,
            "source basis size"
        );
        assert_acc_fits(src.len(), src, dst);
        let b = product(src);
        let hats: Vec<UBig> = src.iter().map(|&q| b.div_rem_u64(q).0).collect();
        let src_mods: Vec<Modulus> = src.iter().map(|&q| Modulus::new(q)).collect();
        let hat_inv = src_mods
            .iter()
            .zip(&hats)
            .map(|(m, h)| {
                let inv = m.inv(h.rem_u64(m.value())).expect("pairwise coprime");
                shoup_pair(m, inv)
            })
            .collect();
        let hat_mod = dst
            .iter()
            .flat_map(|&d| hats.iter().map(move |h| h.rem_u64(d)))
            .collect();
        Self {
            inv: src.iter().map(|&q| 1.0 / q as f64).collect(),
            src: src_mods,
            hat_inv,
            dst: dst.iter().map(|&d| Modulus::new(d)).collect(),
            hat_mod,
            prod_mod: dst.iter().map(|&d| b.rem_u64(d)).collect(),
        }
    }

    /// Writes `[x_c]_{d_j}` into `out` from the source residues `x`.
    /// Returns `false`, leaving `out` unspecified, when `x` is too close
    /// to `B/2` to choose the centered representative in `f64`.
    #[inline]
    pub fn convert(&self, x: &[u64], out: &mut [u64]) -> bool {
        let k = self.src.len();
        debug_assert_eq!(x.len(), k);
        debug_assert_eq!(out.len(), self.dst.len());
        let mut y = [0u64; MAX_LIMBS];
        let mut s = 0.0;
        for i in 0..k {
            let (h, hs) = self.hat_inv[i];
            y[i] = self.src[i].mul_shoup(x[i], h, hs);
            s += y[i] as f64 * self.inv[i];
        }
        let Some(v) = round_guarded(s) else {
            return false;
        };
        let y = &y[..k];
        for (j, (d, o)) in self.dst.iter().zip(out.iter_mut()).enumerate() {
            let acc = dot(y, &self.hat_mod[j * k..][..k]);
            *o = d.sub(d.reduce_u128(acc), d.mul(v, self.prod_mod[j]));
        }
        true
    }
}

/// `Σ a_i·b_i` in a `u128` accumulator.
#[inline(always)]
fn dot(a: &[u64], b: &[u64]) -> u128 {
    a.iter()
        .zip(b)
        .fold(0u128, |acc, (&x, &y)| acc + x as u128 * y as u128)
}

/// Exact BFV tensor rescale: maps the residues of `x` over `Q ∪ P` to the
/// residues over `Q` of `w = round(t·x_c/Q)`, where `x_c` is the centered
/// representative mod `QP`.
///
/// With `M = QP`, `y_i = [x_i·(M/q_i)^{-1}]_{q_i}` on the `Q` limbs and
/// `r_i = [tP]_{q_i}`, for every aux prime `p_j`
///
/// ```text
/// round(t·x/Q) ≡ Σ_i (y_i·⌊tP/q_i⌋ + ⌊y_i·r_i/q_i⌋)
///              + x_j·[t·Q^{-1}]_{p_j} + ⌊Σ_i [y_i·r_i]_{q_i}/q_i + ½⌋   (mod p_j).
/// ```
///
/// Shifting `x` by `M` shifts `t·x/Q` by `tP ≡ 0 (mod p_j)`, so this holds
/// for the centered representative too. The residues of `w` over `P` are
/// then converted to `Q` with a [`CenteredConv`], which is exact as long
/// as `|w| < P/4` — guaranteed for a tensor product of centered lifts when
/// `P ≥ 2⁸·t·N·Q` (checked by the BFV context).
#[derive(Debug, Clone)]
pub struct TensorScaler {
    q: Vec<Modulus>,
    /// `[(M/q_i)^{-1}]_{q_i}` with its Shoup constant.
    m_hat_inv: Vec<(u64, u64)>,
    /// `[tP]_{q_i}` with its Shoup constant (modulo `q_i`).
    tp_rem: Vec<(u64, u64)>,
    /// `1/q_i`.
    q_inv: Vec<f64>,
    p: Vec<Modulus>,
    /// `[⌊tP/q_i⌋]_{p_j}`, one row of `len(Q)` entries per aux prime `j`.
    tp_quo: Vec<u64>,
    /// `[t·Q^{-1}]_{p_j}` with its Shoup constant.
    t_q_inv: Vec<(u64, u64)>,
    p_to_q: CenteredConv,
}

impl TensorScaler {
    /// Precomputes the tables for the basis `Q = Π q` extended by
    /// `P = Π p`, and plaintext modulus `t`.
    ///
    /// # Panics
    ///
    /// Panics if either basis is empty or longer than [`MAX_LIMBS`], the
    /// primes are not pairwise coprime, or the accumulators could overflow.
    pub fn new(q: &[u64], p: &[u64], t: u64) -> Self {
        assert!(!q.is_empty() && q.len() <= MAX_LIMBS, "Q basis size");
        assert!(!p.is_empty() && p.len() <= MAX_LIMBS, "P basis size");
        assert_acc_fits(q.len(), q, p);
        let q_prod = product(q);
        let p_prod = product(p);
        let m = q_prod.mul(&p_prod);
        let tp = p_prod.mul_u64(t);
        let q_mods: Vec<Modulus> = q.iter().map(|&x| Modulus::new(x)).collect();
        let p_mods: Vec<Modulus> = p.iter().map(|&x| Modulus::new(x)).collect();
        let m_hat_inv = q_mods
            .iter()
            .map(|qi| {
                let hat = m.div_rem_u64(qi.value()).0.rem_u64(qi.value());
                shoup_pair(qi, qi.inv(hat).expect("pairwise coprime"))
            })
            .collect();
        let tp_divs: Vec<(UBig, u64)> = q.iter().map(|&qi| tp.div_rem_u64(qi)).collect();
        let tp_rem = q_mods
            .iter()
            .zip(&tp_divs)
            .map(|(qi, (_, r))| shoup_pair(qi, *r))
            .collect();
        let tp_quo = p
            .iter()
            .flat_map(|&pj| tp_divs.iter().map(move |(quo, _)| quo.rem_u64(pj)))
            .collect();
        let t_q_inv = p_mods
            .iter()
            .map(|pj| {
                let q_inv = pj.inv(q_prod.rem_u64(pj.value())).expect("coprime");
                shoup_pair(pj, pj.mul(pj.reduce(t), q_inv))
            })
            .collect();
        Self {
            q_inv: q.iter().map(|&x| 1.0 / x as f64).collect(),
            q: q_mods,
            m_hat_inv,
            tp_rem,
            p: p_mods,
            tp_quo,
            t_q_inv,
            p_to_q: CenteredConv::new(p, q),
        }
    }

    /// Writes the residues over `Q` of `round(t·x_c/Q)` into `out` from the
    /// residues `x` over `Q ∪ P` (the `Q` limbs first). Returns `false`,
    /// leaving `out` unspecified, when an `f64` rounding decision is too
    /// close to `½` to trust.
    #[inline]
    pub fn scale(&self, x: &[u64], out: &mut [u64]) -> bool {
        let (k, l) = (self.q.len(), self.p.len());
        debug_assert_eq!(x.len(), k + l);
        debug_assert_eq!(out.len(), k);
        let mut y = [0u64; MAX_LIMBS];
        let mut carry = 0u128;
        let mut frac = 0.0;
        for i in 0..k {
            let qi = &self.q[i];
            let (h, hs) = self.m_hat_inv[i];
            y[i] = qi.mul_shoup(x[i], h, hs);
            let (r, rs) = self.tp_rem[i];
            let (quo, rem) = qi.mul_shoup_divrem(y[i], r, rs);
            carry += quo as u128;
            frac += rem as f64 * self.q_inv[i];
        }
        let Some(round) = round_guarded(frac) else {
            return false;
        };
        carry += round as u128;
        let y = &y[..k];
        let mut w = [0u64; MAX_LIMBS];
        for (j, pj) in self.p.iter().enumerate() {
            let (c, cs) = self.t_q_inv[j];
            let acc =
                dot(y, &self.tp_quo[j * k..][..k]) + carry + pj.mul_shoup(x[k + j], c, cs) as u128;
            w[j] = pj.reduce_u128(acc);
        }
        self.p_to_q.convert(&w[..l], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::IBig;
    use crate::prime::ntt_primes;
    use crate::prng::Prng;
    use crate::rns::RnsBasis;

    fn residues(x: &IBig, moduli: &[u64]) -> Vec<u64> {
        moduli.iter().map(|&m| x.rem_euclid_u64(m)).collect()
    }

    #[test]
    fn round_guarded_rounds_and_declines_near_half() {
        assert_eq!(round_guarded(0.0), Some(0));
        assert_eq!(round_guarded(2.49), Some(2));
        assert_eq!(round_guarded(2.51), Some(3));
        assert_eq!(round_guarded(3.999_999), Some(4));
        assert_eq!(round_guarded(1.5), None);
        assert_eq!(round_guarded(1.5 - GUARD / 2.0), None);
    }

    #[test]
    fn centered_conv_matches_crt_and_declines_at_half() {
        let q = ntt_primes(50, 16, 4);
        let p = ntt_primes(55, 16, 3);
        let basis = RnsBasis::new(&q, 16);
        let conv = CenteredConv::new(&q, &p);
        let big_q = basis.product().clone();
        let half = big_q.shr(1);
        let mut rng = Prng::seed_from_u64(7);
        let mut out = vec![0u64; p.len()];
        for _ in 0..500 {
            let x: Vec<u64> = q.iter().map(|&m| rng.next_below(m)).collect();
            assert!(conv.convert(&x, &mut out));
            assert_eq!(out, residues(&basis.crt_reconstruct_centered(&x), &p));
        }
        // x = (Q−1)/2 and (Q+1)/2 sit 1/(2Q) from the rounding boundary.
        for x in [half.clone(), half.add_u64(1)] {
            assert!(!conv.convert(&basis.crt_decompose(&x), &mut out));
        }
    }

    #[test]
    fn tensor_scaler_matches_big_integer_rounding() {
        let (n, t) = (16u64, 257u64);
        let q = ntt_primes(50, 16, 3);
        let p = ntt_primes(55, 16, 4);
        let all: Vec<u64> = q.iter().chain(&p).copied().collect();
        let big_q = product(&q);
        let scaler = TensorScaler::new(&q, &p, t);
        let mut rng = Prng::seed_from_u64(11);
        let mut out = vec![0u64; q.len()];
        // Random centered values inside the tensor bound |x| ≤ N·Q²/2.
        let bound = big_q.mul(&big_q).mul_u64(n / 2);
        for _ in 0..500 {
            let limbs: Vec<u64> = (0..bound.limbs().len()).map(|_| rng.next_u64()).collect();
            let x = IBig::new(rng.next_bool(), UBig::from_limbs(limbs).rem(&bound));
            assert!(scaler.scale(&residues(&x, &all), &mut out));
            let w = IBig::new(x.neg, x.mag.mul_u64(t).div_round(&big_q));
            assert_eq!(out, residues(&w, &q));
        }
        // x = (Q−1)/2: t·x/Q is 257/(2Q) below a half-integer.
        let x = IBig::new(false, big_q.shr(1));
        assert!(!scaler.scale(&residues(&x, &all), &mut out));
    }
}
