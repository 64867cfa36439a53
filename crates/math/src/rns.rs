//! Residue number system (RNS) machinery: multi-prime bases, CRT
//! reconstruction through [`UBig`], exact word-sized scaled rounding, and
//! the fast (approximate) base conversion that the Athena accelerator's
//! FRU executes in hardware.

use crate::arena::LimbVec;
use crate::baseconv::{round_guarded, MAX_LIMBS};
use crate::bigint::{IBig, UBig};
use crate::modops::Modulus;
use crate::par;
use crate::poly::{Domain, Poly, Ring};

/// An RNS basis: a set of pairwise-coprime NTT-friendly primes sharing one
/// ring degree, with CRT precomputations.
///
/// # Examples
///
/// ```
/// use athena_math::rns::RnsBasis;
/// use athena_math::prime::ntt_primes;
/// let primes = ntt_primes(30, 64, 3);
/// let basis = RnsBasis::new(&primes, 64);
/// assert_eq!(basis.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    rings: Vec<Ring>,
    /// Q = prod q_i
    product: UBig,
    /// Q_i = Q / q_i
    hats: Vec<UBig>,
    /// (Q_i)^{-1} mod q_i
    hat_invs: Vec<u64>,
    /// Shoup constants of `hat_invs`.
    hat_inv_shoups: Vec<u64>,
    /// 1/q_i in floating point (for the rounding decisions of
    /// [`RnsBasis::scale_round`]).
    inv_f64: Vec<f64>,
    /// Q mod 2^64 convenience (lossy)
    bits: usize,
}

impl RnsBasis {
    /// Builds a basis from distinct primes, each `≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if primes are not distinct or not NTT-friendly for `n`, or
    /// if there are more than [`MAX_LIMBS`] of them.
    pub fn new(primes: &[u64], n: usize) -> Self {
        assert!(!primes.is_empty(), "basis needs at least one prime");
        assert!(primes.len() <= MAX_LIMBS, "at most {MAX_LIMBS} limb primes");
        let mut sorted = primes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), primes.len(), "primes must be distinct");
        let rings: Vec<Ring> = primes.iter().map(|&q| Ring::new(q, n)).collect();
        let mut product = UBig::one();
        for &q in primes {
            product = product.mul_u64(q);
        }
        let hats: Vec<UBig> = primes.iter().map(|&q| product.div_rem_u64(q).0).collect();
        let hat_invs: Vec<u64> = primes
            .iter()
            .zip(&hats)
            .map(|(&q, hat)| {
                let m = Modulus::new(q);
                m.inv(hat.rem_u64(q))
                    .expect("hat invertible: primes coprime")
            })
            .collect();
        let hat_inv_shoups = rings
            .iter()
            .zip(&hat_invs)
            .map(|(r, &h)| r.modulus().shoup(h))
            .collect();
        let bits = product.bits();
        Self {
            rings,
            product,
            hats,
            hat_invs,
            hat_inv_shoups,
            inv_f64: primes.iter().map(|&q| 1.0 / q as f64).collect(),
            bits,
        }
    }

    /// Number of limb primes.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether the basis is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// The shared ring degree.
    pub fn n(&self) -> usize {
        self.rings[0].n()
    }

    /// The rings, one per limb prime.
    pub fn rings(&self) -> &[Ring] {
        &self.rings
    }

    /// The `i`-th ring.
    pub fn ring(&self, i: usize) -> &Ring {
        &self.rings[i]
    }

    /// The limb primes.
    pub fn moduli(&self) -> Vec<u64> {
        self.rings.iter().map(|r| r.modulus().value()).collect()
    }

    /// `Q = ∏ q_i`.
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// Bit size of `Q`.
    pub fn product_bits(&self) -> usize {
        self.bits
    }

    /// A sub-basis keeping only the first `k` primes.
    pub fn prefix(&self, k: usize) -> RnsBasis {
        RnsBasis::new(&self.moduli()[..k], self.n())
    }

    /// CRT-reconstructs residues `x_i` into `x ∈ [0, Q)`.
    pub fn crt_reconstruct(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len());
        let mut acc = UBig::zero();
        for (i, &res) in residues.iter().enumerate() {
            let m = self.rings[i].modulus();
            let term = self.hats[i].mul_u64(m.mul(res, self.hat_invs[i]));
            acc = acc.add(&term);
        }
        acc.rem(&self.product)
    }

    /// Decomposes `x mod Q` into RNS residues.
    pub fn crt_decompose(&self, x: &UBig) -> Vec<u64> {
        self.rings
            .iter()
            .map(|r| x.rem_u64(r.modulus().value()))
            .collect()
    }

    /// Centered CRT value in `(-Q/2, Q/2]`.
    pub fn crt_reconstruct_centered(&self, residues: &[u64]) -> IBig {
        let x = self.crt_reconstruct(residues);
        let half = self.product.shr(1);
        if x > half {
            IBig::new(true, self.product.sub(&x))
        } else {
            IBig::new(false, x)
        }
    }
}

/// A polynomial in RNS form: one residue [`Poly`] per basis prime, all in the
/// same domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    limbs: Vec<Poly>,
}

impl RnsPoly {
    /// Wraps per-limb polynomials (must share degree and domain).
    ///
    /// # Panics
    ///
    /// Panics on mismatched domains or lengths.
    pub fn from_limbs(limbs: Vec<Poly>) -> Self {
        assert!(!limbs.is_empty());
        let d = limbs[0].domain();
        let n = limbs[0].len();
        assert!(
            limbs.iter().all(|l| l.domain() == d && l.len() == n),
            "limbs must share domain and degree"
        );
        Self { limbs }
    }

    /// The per-limb polynomials.
    pub fn limbs(&self) -> &[Poly] {
        &self.limbs
    }

    /// Mutable per-limb polynomials.
    pub fn limbs_mut(&mut self) -> &mut [Poly] {
        &mut self.limbs
    }

    /// The shared domain.
    pub fn domain(&self) -> Domain {
        self.limbs[0].domain()
    }

    /// Number of limbs.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The ring degree.
    pub fn n(&self) -> usize {
        self.limbs[0].len()
    }
}

/// Arithmetic on [`RnsPoly`] values over a fixed [`RnsBasis`].
impl RnsBasis {
    /// The zero RNS polynomial.
    pub fn zero_poly(&self, domain: Domain) -> RnsPoly {
        RnsPoly::from_limbs(self.rings.iter().map(|r| r.zero(domain)).collect())
    }

    /// Lifts signed coefficients into RNS (coefficient domain).
    pub fn poly_from_i64(&self, coeffs: &[i64]) -> RnsPoly {
        RnsPoly::from_limbs(self.rings.iter().map(|r| r.from_i64(coeffs)).collect())
    }

    /// Lifts `UBig` coefficients (each in `[0, Q)`) into RNS.
    pub fn poly_from_ubig(&self, coeffs: &[UBig]) -> RnsPoly {
        assert_eq!(coeffs.len(), self.n());
        let limbs = self
            .rings
            .iter()
            .map(|r| {
                let q = r.modulus().value();
                Poly::from_values(coeffs.iter().map(|c| c.rem_u64(q)).collect(), Domain::Coeff)
            })
            .collect();
        RnsPoly::from_limbs(limbs)
    }

    /// CRT-reconstructs every coefficient to `[0, Q)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn poly_to_ubig(&self, p: &RnsPoly) -> Vec<UBig> {
        assert_eq!(
            p.domain(),
            Domain::Coeff,
            "reconstruction needs Coeff domain"
        );
        let n = self.n();
        let mut out = Vec::with_capacity(n);
        let mut residues = vec![0u64; self.len()];
        for j in 0..n {
            for (i, limb) in p.limbs.iter().enumerate() {
                residues[i] = limb.values()[j];
            }
            out.push(self.crt_reconstruct(&residues));
        }
        out
    }

    /// Per-coefficient work of a linear (add/sub/scalar) limb op.
    fn lin_work(&self) -> usize {
        self.n()
    }

    /// Per-limb work of an NTT-bearing op (`n·(log₂n + 1)` butterflies).
    fn ntt_work(&self) -> usize {
        self.n() * (self.n().ilog2() as usize + 1)
    }

    /// Maps a unary per-limb operation, one worker per limb (the limbs are
    /// independent — this is exactly the parallelism the FRU array
    /// exploits). `work` estimates one limb's cost in coefficient ops so
    /// tiny rings run inline (see [`par::threads_for`]).
    fn map_limbs(
        &self,
        a: &RnsPoly,
        work: usize,
        f: impl Fn(&Ring, &Poly) -> Poly + Sync,
    ) -> RnsPoly {
        assert_eq!(a.limb_count(), self.len());
        let threads = par::threads_for(self.len(), work);
        RnsPoly::from_limbs(par::parallel_map_range_with(threads, self.len(), |i| {
            f(&self.rings[i], &a.limbs[i])
        }))
    }

    /// Debug-checked domain agreement for element-wise (additive) zip ops.
    ///
    /// Adding a Coeff-form polynomial to an Eval-form one is *always* a
    /// logic error — the sum would mix incompatible representations and
    /// silently decrypt to garbage — so every additive zip op funnels
    /// through this check. Multiplicative ops ([`RnsBasis::mul_poly`]) are
    /// exempt: [`Ring::mul`] is deliberately domain-polymorphic and
    /// converts operands to Eval itself.
    #[inline]
    fn debug_check_zip_domains(&self, a: &RnsPoly, b: &RnsPoly, op: &str) {
        assert_eq!(a.limb_count(), self.len());
        assert_eq!(b.limb_count(), self.len());
        debug_assert_eq!(
            a.domain(),
            b.domain(),
            "RnsBasis::{op}: domain mismatch (lhs is {:?}, rhs is {:?}); \
             convert one operand with poly_to_eval/poly_to_coeff first",
            a.domain(),
            b.domain()
        );
    }

    fn zip_polys(
        &self,
        a: &RnsPoly,
        b: &RnsPoly,
        work: usize,
        f: impl Fn(&Ring, &Poly, &Poly) -> Poly + Sync,
    ) -> RnsPoly {
        assert_eq!(a.limb_count(), self.len());
        assert_eq!(b.limb_count(), self.len());
        let threads = par::threads_for(self.len(), work);
        RnsPoly::from_limbs(par::parallel_map_range_with(threads, self.len(), |i| {
            f(&self.rings[i], &a.limbs[i], &b.limbs[i])
        }))
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn add_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.debug_check_zip_domains(a, b, "add_poly");
        self.zip_polys(a, b, self.lin_work(), Ring::add)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn sub_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.debug_check_zip_domains(a, b, "sub_poly");
        self.zip_polys(a, b, self.lin_work(), Ring::sub)
    }

    /// In-place element-wise combination over the parallel layer, limbs
    /// being independent (shared impl of the `*_assign` zip ops).
    fn zip_assign_polys(
        &self,
        a: &mut RnsPoly,
        b: &RnsPoly,
        f: impl Fn(&Ring, &mut Poly, &Poly) + Sync,
    ) {
        let threads = par::threads_for(self.len(), self.lin_work());
        par::parallel_zip_mut_with(threads, &mut a.limbs, &b.limbs, |i, x, y| {
            f(&self.rings[i], x, y)
        });
    }

    /// In-place addition.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn add_assign_poly(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.debug_check_zip_domains(a, b, "add_assign_poly");
        self.zip_assign_polys(a, b, Ring::add_assign);
    }

    /// In-place subtraction.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn sub_assign_poly(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.debug_check_zip_domains(a, b, "sub_assign_poly");
        self.zip_assign_polys(a, b, Ring::sub_assign);
    }

    /// Negation.
    pub fn neg_poly(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, self.lin_work(), Ring::neg)
    }

    /// Polynomial multiplication (result in `Eval` domain).
    pub fn mul_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.zip_polys(a, b, self.ntt_work(), Ring::mul)
    }

    /// Multiplication by a small scalar (applied per limb).
    pub fn scalar_mul_poly(&self, a: &RnsPoly, c: u64) -> RnsPoly {
        self.map_limbs(a, self.lin_work(), |r, x| r.scalar_mul(x, c))
    }

    /// Multiplication by a signed scalar.
    pub fn scalar_mul_poly_i64(&self, a: &RnsPoly, c: i64) -> RnsPoly {
        self.map_limbs(a, self.lin_work(), |r, x| {
            r.scalar_mul(x, r.modulus().from_i64(c))
        })
    }

    /// Converts all limbs to evaluation domain (one NTT per limb, run on the
    /// parallel layer — the per-limb transforms are independent).
    pub fn poly_to_eval(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, self.ntt_work(), Ring::to_eval)
    }

    /// Converts all limbs to coefficient domain (one inverse NTT per limb,
    /// run on the parallel layer).
    pub fn poly_to_coeff(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, self.ntt_work(), Ring::to_coeff)
    }

    /// In-place conversion of all limbs to evaluation domain: transforms
    /// inside the existing limb buffers — zero checkouts, zero copies
    /// (the write-into-scratch variant of [`RnsBasis::poly_to_eval`] for
    /// callers that own their operand).
    pub fn poly_to_eval_inplace(&self, a: &mut RnsPoly) {
        assert_eq!(a.limb_count(), self.len());
        let threads = par::threads_for(self.len(), self.ntt_work());
        par::parallel_zip_mut_with(threads, a.limbs_mut(), &self.rings, |_, p, r| {
            r.to_eval_inplace(p)
        });
    }

    /// In-place conversion of all limbs to coefficient domain (see
    /// [`RnsBasis::poly_to_eval_inplace`]).
    pub fn poly_to_coeff_inplace(&self, a: &mut RnsPoly) {
        assert_eq!(a.limb_count(), self.len());
        let threads = par::threads_for(self.len(), self.ntt_work());
        par::parallel_zip_mut_with(threads, a.limbs_mut(), &self.rings, |_, p, r| {
            r.to_coeff_inplace(p)
        });
    }

    /// Applies the Galois automorphism `X → X^k` per limb (any domain).
    ///
    /// In Eval form the slot permutation depends only on the shared ring
    /// degree, so it is computed once here and applied to every limb —
    /// not recomputed per limb.
    pub fn automorphism_poly(&self, a: &RnsPoly, k: usize) -> RnsPoly {
        match a.domain() {
            Domain::Coeff => self.map_limbs(a, self.lin_work(), |r, x| r.automorphism_coeff(x, k)),
            Domain::Eval => {
                let perm = self.rings[0].automorphism_permutation(k);
                self.map_limbs(a, self.lin_work(), |r, x| {
                    r.automorphism_eval_perm(x, &perm)
                })
            }
        }
    }

    /// **Exact** scaled rounding `round(num · x / Q) mod target` applied per
    /// coefficient, where `x` is the centered CRT value — BFV modulus
    /// switching and decryption scaling.
    ///
    /// Word-sized (Halevi–Polyakov–Shoup): with `y_i = [x_i·(Q/q_i)^{-1}]_{q_i}`
    /// and `v = ⌊Σ y_i/q_i + ½⌋`, the centered value is
    /// `Σ y_i·(Q/q_i) − v·Q`, so
    /// `num·x/Q = Σ_i ⌊y_i·num/q_i⌋ − v·num + Σ_i [y_i·num]_{q_i}/q_i`.
    /// The two `f64` sums pick `v` and the final rounding; a coefficient
    /// where either lands within `1e-9` of `½` is recomputed with big
    /// integers, so the output is bit-identical to
    /// [`scale_round_reference`](Self::scale_round_reference).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn scale_round(&self, p: &RnsPoly, num: u64, target: u64) -> Vec<u64> {
        // ⌊num/q_i⌋, num mod q_i and its Shoup constant, per limb.
        let mut split = [(0u64, 0u64, 0u64); MAX_LIMBS];
        for (s, r) in split.iter_mut().zip(&self.rings) {
            let m = r.modulus();
            let rem = num % m.value();
            *s = (num / m.value(), rem, m.shoup(rem));
        }
        let tm = Modulus::new(target);
        self.scale_round_with(p, num, target, |x| {
            let (mut quo, mut s, mut f) = (0u128, 0.0, 0.0);
            for (i, &xi) in x.iter().enumerate() {
                let m = self.rings[i].modulus();
                let y = m.mul_shoup(xi, self.hat_invs[i], self.hat_inv_shoups[i]);
                let (num_quo, num_rem, num_rem_shoup) = split[i];
                let (yq, yr) = m.mul_shoup_divrem(y, num_rem, num_rem_shoup);
                quo += y as u128 * num_quo as u128 + yq as u128;
                s += y as f64 * self.inv_f64[i];
                f += yr as f64 * self.inv_f64[i];
            }
            let v = round_guarded(s)?;
            let r = round_guarded(f)?;
            Some(tm.sub(
                tm.reduce_u128(quo + r as u128),
                tm.reduce_u128(v as u128 * num as u128),
            ))
        })
    }

    /// Big-integer reference for [`scale_round`](Self::scale_round): CRT
    /// reconstruction and long division for every coefficient. Kept as the
    /// test oracle and benchmark baseline.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn scale_round_reference(&self, p: &RnsPoly, num: u64, target: u64) -> Vec<u64> {
        self.scale_round_with(p, num, target, |_| None)
    }

    /// Common loop of the scaled-rounding paths: `fast` maps one
    /// coefficient's residues to its result, or declines with `None`, in
    /// which case the coefficient is computed with big integers.
    fn scale_round_with(
        &self,
        p: &RnsPoly,
        num: u64,
        target: u64,
        fast: impl Fn(&[u64]) -> Option<u64>,
    ) -> Vec<u64> {
        assert_eq!(p.domain(), Domain::Coeff);
        let k = self.len();
        let mut x = [0u64; MAX_LIMBS];
        (0..self.n())
            .map(|j| {
                for (xi, limb) in x.iter_mut().zip(&p.limbs) {
                    *xi = limb.values()[j];
                }
                fast(&x[..k]).unwrap_or_else(|| {
                    let c = self.crt_reconstruct_centered(&x[..k]);
                    IBig::new(c.neg, c.mag.mul_u64(num).div_round(&self.product))
                        .rem_euclid_u64(target)
                })
            })
            .collect()
    }

    /// Fast (approximate) base conversion of one coefficient vector of
    /// residues from this basis to `other`: computes
    /// `Σ_i [x_i · (Q/q_i)^{-1}]_{q_i} · (Q/q_i) mod p_j`, which equals
    /// `x + α·Q (mod p_j)` for some small overflow `0 ≤ α < len`.
    ///
    /// This is the `BConv` workload executed by the FRU's RNS datapath.
    pub fn fast_base_convert(&self, p: &RnsPoly, other: &RnsBasis) -> RnsPoly {
        assert_eq!(
            p.domain(),
            Domain::Coeff,
            "base conversion needs Coeff domain"
        );
        let n = self.n();
        // y_i = [x_i * hat_inv_i]_{q_i}, independent per source limb.
        let ys: Vec<LimbVec> = par::parallel_map_range_with(
            par::threads_for(self.len(), self.lin_work()),
            self.len(),
            |i| {
                let m = self.rings[i].modulus();
                let src = p.limbs[i].values();
                let mut y = LimbVec::take_raw(n);
                for (o, &x) in y.iter_mut().zip(src) {
                    *o = m.mul(x, self.hat_invs[i]);
                }
                y
            },
        );
        // The target limbs are independent too: one worker per p_j.
        let limbs = par::parallel_map_range_with(
            par::threads_for(other.len(), self.n() * self.len()),
            other.len(),
            |j| {
                let pj = other.rings[j].modulus();
                // precompute Q_i mod p_j
                let hats_mod: Vec<u64> = self.hats.iter().map(|h| h.rem_u64(pj.value())).collect();
                let mut vals = LimbVec::take_zeroed(n);
                for (i, y) in ys.iter().enumerate() {
                    let h = hats_mod[i];
                    let h_sh = pj.shoup(pj.reduce(h));
                    let h = pj.reduce(h);
                    for (v, &yy) in vals.iter_mut().zip(y.iter()) {
                        *v = pj.add(*v, pj.mul_shoup(pj.reduce(yy), h, h_sh));
                    }
                }
                Poly::from_limbs(vals, Domain::Coeff)
            },
        );
        RnsPoly::from_limbs(limbs)
    }

    /// Exact base conversion via CRT reconstruction (reference path).
    pub fn exact_base_convert(&self, p: &RnsPoly, other: &RnsBasis) -> RnsPoly {
        let coeffs = self.poly_to_ubig(p);
        other.poly_from_ubig(&coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn basis(n: usize, k: usize) -> RnsBasis {
        RnsBasis::new(&ntt_primes(30, n, k), n)
    }

    #[test]
    fn crt_roundtrip() {
        let b = basis(16, 3);
        let x = UBig::from_decimal("123456789012345678901234");
        let x = x.rem(b.product());
        let res = b.crt_decompose(&x);
        assert_eq!(b.crt_reconstruct(&res), x);
    }

    #[test]
    fn poly_roundtrip_and_ops() {
        let b = basis(16, 2);
        let a = b.poly_from_i64(&(0..16).map(|i| i as i64 - 8).collect::<Vec<_>>());
        let c = b.add_poly(&a, &a);
        let d = b.sub_poly(&c, &a);
        assert_eq!(d, a);
        let coeffs = b.poly_to_ubig(&a);
        let back = b.poly_from_ubig(&coeffs);
        assert_eq!(back, a);
    }

    #[test]
    fn mul_matches_bigint() {
        let b = basis(16, 2);
        let a = b.poly_from_i64(&(0..16).map(|i| i as i64 + 1).collect::<Vec<_>>());
        let c = b.poly_from_i64(&(0..16).map(|i| 2 * i as i64 - 3).collect::<Vec<_>>());
        let prod = b.poly_to_coeff(&b.mul_poly(&a, &c));
        // verify one coefficient against schoolbook over centered integers
        let av: Vec<i64> = (0..16).map(|i| i as i64 + 1).collect();
        let cv: Vec<i64> = (0..16).map(|i| 2 * i as i64 - 3).collect();
        let mut want = [0i64; 16];
        for i in 0..16 {
            for j in 0..16 {
                let p = av[i] * cv[j];
                if i + j < 16 {
                    want[i + j] += p;
                } else {
                    want[i + j - 16] -= p;
                }
            }
        }
        let got = b.poly_to_ubig(&prod);
        for j in 0..16 {
            let w = IBig::from_i64(want[j]).rem_euclid(b.product());
            assert_eq!(got[j], w, "coeff {j}");
        }
    }

    #[test]
    fn scale_round_matches_manual() {
        // Switch a known value from Q to t = 97.
        let b = basis(16, 2);
        let t = 97u64;
        // encode x_j = j * Q / 100 approximately: use  x = j * (Q/100)
        let (q100, _) = b.product().div_rem_u64(100);
        let coeffs: Vec<UBig> = (0..16u64).map(|j| q100.mul_u64(j)).collect();
        let p = b.poly_from_ubig(&coeffs);
        let scaled = b.scale_round(&p, t, t);
        for j in 0..16usize {
            // round(t * j * (Q/100) / Q) ≈ round(97*j/100)
            let want = coeffs[j].mul_u64(t).div_round(b.product()).rem_u64(t);
            assert_eq!(scaled[j], want, "j={j}");
        }
    }

    #[test]
    fn fast_base_convert_off_by_alpha_q() {
        let b = basis(16, 3);
        let other = RnsBasis::new(&ntt_primes(31, 16, 2), 16);
        let a = b.poly_from_i64(&(0..16).map(|i| 1000 * i as i64).collect::<Vec<_>>());
        let fast = b.fast_base_convert(&a, &other);
        let exact = b.exact_base_convert(&a, &other);
        // fast = exact + alpha*Q mod p_j, with 0 <= alpha < len
        for (j, r) in other.rings().iter().enumerate() {
            let pj = r.modulus();
            let qmod = b.product().rem_u64(pj.value());
            for c in 0..16 {
                let f = fast.limbs()[j].values()[c];
                let e = exact.limbs()[j].values()[c];
                let mut ok = false;
                let mut cand = e;
                for _ in 0..b.len() + 1 {
                    if cand == f {
                        ok = true;
                        break;
                    }
                    cand = pj.add(cand, qmod);
                }
                assert!(ok, "limb {j} coeff {c}: fast not within alpha*Q of exact");
            }
        }
    }

    #[test]
    fn add_assign_matches_add_for_all_thread_counts() {
        let b = basis(16, 3);
        let x = b.poly_from_i64(&(0..16).map(|i| 3 * i as i64 - 20).collect::<Vec<_>>());
        let y = b.poly_from_i64(&(0..16).map(|i| 7 - i as i64).collect::<Vec<_>>());
        let want_add = b.add_poly(&x, &y);
        let want_sub = b.sub_poly(&x, &y);
        for threads in [1usize, 2, 4, 8] {
            par::set_threads(threads);
            let mut a = x.clone();
            b.add_assign_poly(&mut a, &y);
            assert_eq!(a, want_add, "add threads={threads}");
            let mut s = x.clone();
            b.sub_assign_poly(&mut s, &y);
            assert_eq!(s, want_sub, "sub threads={threads}");
        }
        par::set_threads(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "domain mismatch")]
    fn add_assign_rejects_mixed_domains() {
        let b = basis(16, 2);
        let x = b.poly_from_i64(&(0..16).map(|i| i as i64).collect::<Vec<_>>());
        let mut e = b.poly_to_eval(&x);
        b.add_assign_poly(&mut e, &x);
    }

    #[test]
    fn automorphism_poly_coeff_matches_eval() {
        let b = basis(16, 3);
        let a = b.poly_from_i64(&(0..16).map(|i| 5 * i as i64 - 11).collect::<Vec<_>>());
        let ae = b.poly_to_eval(&a);
        for k in [3usize, 5, 9, 31] {
            let via_coeff = b.poly_to_eval(&b.automorphism_poly(&a, k));
            let via_eval = b.automorphism_poly(&ae, k);
            assert_eq!(via_coeff, via_eval, "k={k}");
            // and back down to Coeff for good measure
            assert_eq!(
                b.poly_to_coeff(&via_eval),
                b.automorphism_poly(&a, k),
                "k={k} roundtrip"
            );
        }
    }

    #[test]
    fn automorphism_poly_serial_matches_parallel() {
        let b = basis(16, 3);
        let a = b.poly_from_i64(
            &(0..16)
                .map(|i| i as i64 * i as i64 - 50)
                .collect::<Vec<_>>(),
        );
        let ae = b.poly_to_eval(&a);
        par::set_threads(1);
        let serial_c = b.automorphism_poly(&a, 9);
        let serial_e = b.automorphism_poly(&ae, 9);
        par::set_threads(4);
        let par_c = b.automorphism_poly(&a, 9);
        let par_e = b.automorphism_poly(&ae, 9);
        par::set_threads(0);
        assert_eq!(serial_c, par_c, "Coeff domain");
        assert_eq!(serial_e, par_e, "Eval domain");
    }

    #[test]
    fn prefix_basis() {
        let b = basis(16, 3);
        let p = b.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.moduli(), b.moduli()[..2].to_vec());
    }
}
