"""Built-in verification sweeps, runnable from the CLI and from the test
suite.  Every sweep is deterministic given its seed and reports per-check
details alongside the overall pass/fail flag.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exponents import Exponent, INF, conjugate, multiplier_exponent
from .factorization import (
    Verdict,
    certify_inequality_cesaro,
    certify_inequality_fourier,
    cesaro_factor_check,
    verify_representing,
)
from .grid_functions import (
    BasisFamily,
    BasisSpec,
    _basis_matrix,
    _representing_op,
    default_rule,
    fourier_coeffs,
    lp_function_norm,
    random_trig_poly,
)
from .operators import (
    CesaroOp,
    cesaro_matrix,
    diagonal_sandwich,
    identity_matrix,
    operator_norm_estimate,
    perturb_entry,
)
from .seq_spaces import IndexDomain, TruncatedSeq, kellogg_norm, lp_norm, weighted_lp_norm


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    def fail(self, detail: str | None = None) -> None:
        self.passed = False
        if detail is not None:
            self.details.append(detail)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.runtime_s:.2f}s)"


#: every sweep by name, in definition order
SUITES = {}


def _suite(name: str):
    """Register a sweep under ``name``.  The registered function takes the
    sweep's own arguments, hands the sweep a fresh ``SuiteResult(name)`` to
    fill in and returns it timed."""
    def register(sweep):
        @functools.wraps(sweep)
        def timed(*args, **kwargs) -> SuiteResult:
            res = SuiteResult(name)
            start = time.perf_counter()
            sweep(res, *args, **kwargs)
            res.runtime_s = time.perf_counter() - start
            return res

        SUITES[name] = timed
        return timed

    return register


def _random_exponent(rng) -> Exponent:
    den = int(rng.integers(1, 7))
    num = int(rng.integers(den, 8 * den + 1))
    return Exponent(Fraction(num, den))


@_suite("exponents")
def exponent_calculus(res: SuiteResult, seed: int = 0) -> None:
    """200 random rational pairs: the three-case multiplier formula, the
    conjugate consistency at q = 1, and the Hoelder product bound on random
    vectors of length 64 within 1e-12 relative."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    for _ in range(200):
        p, q = _random_exponent(rng), _random_exponent(rng)
        s = multiplier_exponent(p, q)
        pf, qf = p.as_fraction(), q.as_fraction()
        if qf < pf:
            expected = Exponent(pf * qf / (pf - qf))
        else:
            expected = INF
        if s != expected:
            res.fail(f"case mismatch at p={p}, q={q}: {s} != {expected}")
        if multiplier_exponent(p, Exponent(1)) != conjugate(p):
            res.fail(f"s(p,1) != p' at p={p}")
        h = rng.standard_normal(64)
        f = rng.standard_normal(64)
        lhs = lp_norm(h * f, q)
        rhs = lp_norm(h, s) * lp_norm(f, p)
        worst_rel = max(worst_rel, (lhs - rhs) / max(rhs, 1e-300))
        if lhs > rhs * (1.0 + 1e-12):
            res.fail(f"Hoelder bound violated at p={p}, q={q}")
    res.details.append(f"200 pairs checked; worst relative Hoelder excess {worst_rel:.3e}")


@_suite("orthonormality")
def orthonormality(res: SuiteResult, seed: int = 0) -> None:
    """Gram matrices of the first 8 basis functions equal identity within
    1e-8 for every family."""
    for family in BasisFamily:
        spec = BasisSpec(family, 8)
        rule = default_rule(family)
        mat = _basis_matrix(spec, 8, rule)
        gram = (mat * rule.weights) @ mat.T
        err = float(np.abs(gram - np.eye(8)).max())
        res.details.append(f"{family.value}: max |G - I| = {err:.3e}")
        if err > 1e-8:
            res.fail()


@_suite("fourier")
def parseval_hausdorff_young(res: SuiteResult, seed: int = 0) -> None:
    """100 seeded trigonometric polynomials of degree <= 32: coefficient
    l^2 norm equals the function L^2 norm within 1e-9, and the coefficient
    l^{r'} norm stays below the function L^r norm for r in {4/3, 3/2}."""
    rng = np.random.default_rng(seed)
    spec = BasisSpec(BasisFamily.TRIG_REAL, 65)
    worst_parseval = 0.0
    worst_slack = math.inf
    for k in range(100):
        degree = int(rng.integers(1, 33))
        f, _ = random_trig_poly(degree, seed=seed * 7919 + k)
        coeffs = fourier_coeffs(f, spec, 65)
        parseval = abs(lp_norm(coeffs, Exponent(2)) - lp_function_norm(f, Exponent(2)))
        worst_parseval = max(worst_parseval, parseval)
        if parseval > 1e-9:
            res.fail(f"sample {k}: Parseval deviation {parseval:.3e}")
        for r in (Fraction(4, 3), Fraction(3, 2)):
            rr = Exponent(r)
            lhs = lp_norm(coeffs, conjugate(rr))
            rhs = lp_function_norm(f, rr)
            worst_slack = min(worst_slack, rhs - lhs)
            if lhs > rhs + 1e-9:
                res.fail(f"sample {k}: coefficient bound violated at r={r}")
    res.details.append(f"worst Parseval deviation {worst_parseval:.3e}; "
                       f"smallest coefficient-bound slack {worst_slack:.3e}")


@_suite("hardy")
def hardy_inequality(res: SuiteResult, seed: int = 0) -> None:
    """100 random nonnegative sequences at N = 256: averaged sequence norm
    bounded by p' times the input norm for p in {4/3, 2, 3}, zero
    violations."""
    rng = np.random.default_rng(seed)
    op = CesaroOp(256)
    violations = 0
    worst = 0.0
    for _ in range(100):
        x = np.abs(rng.standard_normal(256))
        cx = op.matvec(x)
        for p in (Fraction(4, 3), 2, 3):
            pe = Exponent(p)
            lhs = lp_norm(cx, pe)
            rhs = float(conjugate(pe)) * lp_norm(x, pe)
            worst = max(worst, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-12):
                violations += 1
    if violations:
        res.fail(f"{violations} violations")
    res.details.append(f"300 inequalities checked; worst ratio lhs/rhs = {worst:.6f}")


@_suite("cesaro-norm")
def cesaro_norm_window(res: SuiteResult, seed: int = 0) -> None:
    """Norm estimate of the N = 256 truncation against the window [1.9, 2].

    The estimate itself must converge and match a direct SVD; the window
    check fails honestly, because the truncated norm is ~1.686 and approaches
    the limiting constant 2 only as N grows without bound.
    """
    op = CesaroOp(256)
    est, steps, converged = operator_norm_estimate(op, seed=seed)
    svd = float(np.linalg.svd(op.rows(0, op.n), compute_uv=False)[0])
    res.details.append(f"estimate {est:.9f} after {steps} Lanczos steps "
                       f"(converged: {converged}); direct SVD {svd:.9f}")
    if not converged or abs(est - svd) > 1e-6:
        res.fail("estimate did not converge or does not match the direct SVD")
    if not (1.9 <= est <= 2.0):
        res.fail(f"estimate {est:.6f} outside [1.9, 2.0]: the truncation "
                 "norm passes 1.9 only near N = 2e6 (Lanczos: 1.8933 at 2^20, "
                 "1.9004 at 2^21)")


def _random_multiplier(rng, n: int) -> np.ndarray:
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return signs * rng.uniform(0.5, 1.5, n)


@_suite("roundtrip")
def cesaro_roundtrip(res: SuiteResult, seed: int = 0) -> None:
    """Seeded (g, h) pairs at N = 128, 50 with h_1 != 0 and 10 each whose h
    starts at j0 = 2 and at j0 = 3: sandwich matrices certify FACTORS with g
    recovered from j0 on within 1e-12, and 1e-3 single-entry perturbations
    flip the verdict at tol 1e-6, three random entries above the diagonal
    at j0 = 1, else entry (1, 1), a forced zero once h_1 = 0."""
    rng = np.random.default_rng(seed)
    n = 128
    op = cesaro_matrix(n)
    p, q, r = Exponent(2), Exponent(2), Exponent(2)
    worst_rec = 0.0
    flips = 0
    flips_expected = 0
    for j0, trials in (1, 50), (2, 10), (3, 10):
        for trial in range(trials):
            label = f"trial {trial}" if j0 == 1 else f"j0={j0} trial {trial}"
            g = TruncatedSeq(_random_multiplier(rng, n))
            hv = _random_multiplier(rng, n)
            hv[:j0 - 1] = 0.0
            h = TruncatedSeq(hv)
            a = diagonal_sandwich(g, op, h)
            cert = cesaro_factor_check(a, h, p, q, r, tol=1e-9)
            if cert.verdict is not Verdict.FACTORS:
                res.fail(f"{label}: expected FACTORS, got {cert.verdict.value}")
                continue
            rec = float(np.abs(cert.g.coeffs[j0 - 1:] - g.coeffs[j0 - 1:]).max())
            worst_rec = max(worst_rec, rec)
            if rec > 1e-12:
                res.fail(f"{label}: recovery error {rec:.3e}")
            perturbed = [(1, 1)] if j0 > 1 else [
                (i := int(rng.integers(1, n)), int(rng.integers(i + 1, n + 1))) for _ in range(3)]
            flips_expected += len(perturbed)
            for i, j in perturbed:
                bad = perturb_entry(a, i, j, 1e-3)
                verdict = cesaro_factor_check(bad, h, p, q, r, tol=1e-6).verdict
                flips += verdict is Verdict.DOES_NOT_FACTOR
    if flips != flips_expected:
        res.fail(f"only {flips}/{flips_expected} perturbations flipped the verdict")
    res.details.append(f"worst recovery error {worst_rec:.3e}; "
                       f"{flips}/{flips_expected} perturbations flipped")


def _oracle_vertex_max(ent: np.ndarray, row_rhs_pow, sp: float) -> float:
    """Brute-force sweep of all sign matrices, written independently of the
    certifier.  Both sides are sums over rows and row i's terms depend only on
    that row's signs, so each row's 2^m sign choices are scored once
    (``row_rhs_pow(i, signs)`` gives row i's share of RHS^sp) and every
    pattern's LHS and RHS^sp are outer sums of the row tables.  Largest
    LHS/RHS over the patterns with RHS > 1e-12, else -inf."""
    n, m = ent.shape
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    lhs = rhs_pow = np.zeros(1)
    for i in range(n):
        lhs = np.add.outer(lhs, signs @ ent[i]).ravel()
        rhs_pow = np.add.outer(rhs_pow, row_rhs_pow(i, signs)).ravel()
    rhs = rhs_pow ** (1.0 / sp)
    keep = rhs > 1e-12
    return float((lhs[keep] / rhs[keep]).max()) if keep.any() else -math.inf


def _oracle_cesaro_vertex_max(ent: np.ndarray, hv: np.ndarray, sp: float) -> float:
    """Running-averages form: RHS^sp = sum_i |sum_{j<=i} h_j r_ij|^sp / i^sp."""
    def row_rhs_pow(i, signs):
        k = min(i + 1, ent.shape[1])
        return np.abs(signs[:, :k] @ hv[:k]) ** sp / (i + 1) ** sp

    return _oracle_vertex_max(ent, row_rhs_pow, sp)


def _oracle_fourier_vertex_max(ent: np.ndarray, sp: float) -> float:
    """Diagonal form: RHS^sp = sum_{i<min(n,m)} |r_ii|^sp."""
    def row_rhs_pow(i, signs):
        return np.abs(signs[:, i]) ** sp if i < min(ent.shape) else np.zeros(len(signs))

    return _oracle_vertex_max(ent, row_rhs_pow, sp)


@_suite("certifier")
def certifier_brute_force(res: SuiteResult, seed: int = 0) -> None:
    """Exhaustive sign-pattern enumeration reproduces the certifier's vertex
    ratio on every instance with n = m <= 4; bounded ratios respect the
    Hoelder bound from the recovered multiplier; the identity instance is
    refuted with a vanishing right-hand side."""
    rng = np.random.default_rng(seed)
    # factoring instances, one with finite multiplier exponent and one infinite
    for n, (r, q) in itertools.product((2, 3, 4), [(2, Fraction(4, 3)), (2, 2)]):
        s_rq = multiplier_exponent(Exponent(r), Exponent(q))
        g = TruncatedSeq(_random_multiplier(rng, n))
        h = TruncatedSeq(_random_multiplier(rng, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        sweep = certify_inequality_cesaro(a, h, s_rq, patterns=8, seed=seed)
        sp = float(conjugate(s_rq))
        oracle = _oracle_cesaro_vertex_max(a.rows(0, n), h.coeffs, sp)
        if abs(oracle - sweep.c_hat_vertex) > 1e-12:
            res.fail(f"n={n}, s={s_rq}: oracle {oracle} != certifier {sweep.c_hat_vertex}")
        bound = lp_norm(g, s_rq)
        if sweep.refuted or sweep.c_hat > bound + 1e-9:
            res.fail(f"n={n}, s={s_rq}: c_hat {sweep.c_hat} exceeds |g| bound {bound}")
        res.details.append(f"cesaro n={n}, s_rq={s_rq}: c_hat={sweep.c_hat_vertex:.9f} "
                           f"(oracle agrees over {2 ** (n * n)} sign matrices), "
                           f"|g|_s={lp_norm(g, s_rq):.9f}")
    # constant-magnitude diagonal instances attain the norm exactly
    for n in (2, 3, 4):
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        g = TruncatedSeq(0.7 * sign)
        tphi = diagonal_sandwich(g, identity_matrix(n), TruncatedSeq(np.ones(n)))
        s = multiplier_exponent(Exponent(4), Exponent(2))  # r = 4/3, r' = 4
        sweep = certify_inequality_fourier(tphi, s)
        oracle = _oracle_fourier_vertex_max(tphi.rows(0, n), float(conjugate(s)))
        if abs(oracle - sweep.c_hat_vertex) > 1e-12:
            res.fail(f"fourier n={n}: oracle {oracle} != certifier {sweep.c_hat_vertex}")
        if abs(sweep.c_hat - lp_norm(g, s)) > 1e-12:
            res.fail(f"fourier n={n}: c_hat {sweep.c_hat} != |g|_s {lp_norm(g, s)}")
        res.details.append(f"fourier diag n={n}: c_hat={sweep.c_hat:.9f} = |g|_s "
                           f"(oracle agrees over {2 ** (n * n)} sign matrices)")
    # the identity matrix does not factor: a refuting pattern must exist
    for n in (2, 3, 4):
        ident = identity_matrix(n)
        h = TruncatedSeq(np.ones(n))
        sweep = certify_inequality_cesaro(ident, h, INF, patterns=8, seed=seed)
        if not (sweep.refuted and math.isinf(sweep.c_hat) and sweep.lhs > 0
                and sweep.rhs == 0.0):
            res.fail(f"identity n={n}: refutation not found")
            continue
        # recompute the refutation from the returned pattern, independently
        rpat, ent = np.asarray(sweep.pattern.r), ident.rows(0, n)
        if rpat.ndim == 1:  # a one-row pattern is written as row ``rows``
            rpat = np.zeros((n, n))
            rpat[sweep.rows - 1] = sweep.pattern.r
        lhs = sum(rpat[i, j] * float(ent[i, j]) for i in range(n) for j in range(n))
        srows = [sum(float(h.coeffs[j]) * rpat[i, j] for j in range(min(i + 1, n)))
                 for i in range(n)]
        if abs(lhs - sweep.lhs) > 1e-12 or max(abs(s) for s in srows) > 1e-12:
            res.fail(f"identity n={n}: returned pattern does not refute")
        else:
            res.details.append(f"identity n={n}: refuted (lhs={lhs:.3f}, rhs=0)")


@_suite("hardy-littlewood")
def hardy_littlewood_isometry(res: SuiteResult, seed: int = 0) -> None:
    """The diagonal map with entries (n+1)^((p-2)/p) carries the weighted
    space with weight (n+1)^(p-2) isometrically onto plain l^p; checked on
    100 random vectors for p in {4/3, 3/2} within 1e-12."""
    rng = np.random.default_rng(seed)
    n = 64
    idx = np.arange(1, n + 1, dtype=float)
    worst = 0.0
    for p in (Fraction(4, 3), Fraction(3, 2)):
        pe = Exponent(p)
        pf = float(p)
        weight = TruncatedSeq(1.0 / (idx + 1.0) ** (2.0 - pf))
        gamma = (1.0 / (idx + 1.0)) ** ((2.0 - pf) / pf)
        for _ in range(100):
            x = rng.standard_normal(n)
            lhs = lp_norm(gamma * x, pe)
            rhs = weighted_lp_norm(x, pe, weight)
            dev = abs(lhs - rhs) / max(1.0, rhs)
            worst = max(worst, dev)
            if dev > 1e-12:
                res.fail(f"p={p}: isometry broken by {dev:.3e}")
    res.details.append(f"200 vectors checked; worst relative deviation {worst:.3e}")


@_suite("kellogg")
def kellogg_embedding(res: SuiteResult, seed: int = 0) -> None:
    """100 random bilateral sequences with window 2^8: the mixed norm with
    inner exponent p' and outer exponent 2 dominates the plain l^{p'} norm,
    zero violations."""
    rng = np.random.default_rng(seed)
    m = 256
    smallest = math.inf
    for k in range(100):
        lam = TruncatedSeq(rng.standard_normal(2 * m + 1), IndexDomain.ZSYM)
        if k < 2:
            p = Fraction(4, 3) if k == 0 else Fraction(3, 2)
        else:
            p = Fraction(int(rng.integers(105, 196)), 100)
        pp = conjugate(Exponent(p))
        lhs = lp_norm(lam.coeffs, pp)
        rhs = kellogg_norm(lam, pp, Exponent(2))
        smallest = min(smallest, rhs - lhs)
        if lhs > rhs + 1e-12:
            res.fail(f"sample {k}: embedding violated at p={p}")
    res.details.append(f"100 sequences checked; smallest slack {smallest:.3e}")


@_suite("representing")
def representing_chebyshev(res: SuiteResult, seed: int = 0) -> None:
    """The first-kind Chebyshev construction (coefficient map after the
    square-root-weight multiplier) verifies as a representing operator at
    tol 1e-6, and the recovered diagonal is the unit one; permuting two
    coefficients breaks it."""
    spec = BasisSpec(BasisFamily.CHEBYSHEV1, 16)
    g = TruncatedSeq(np.ones(16))
    for label, permute, expected in (("direct construction", False, Verdict.FACTORS),
                                     ("permuted variant", True, Verdict.DOES_NOT_FACTOR)):
        h, t = _representing_op(spec, g, permute)
        cert = verify_representing(t, spec, h, tol=1e-6)
        res.details.append(f"{label}: {cert.verdict.value} "
                           f"(residual {cert.residual:.3e})")
        if cert.verdict is not expected:
            res.fail()
        elif not permute and np.abs(cert.g.coeffs - 1.0).max() > 1e-12:
            res.fail("recovered diagonal is not the unit one")


@_suite("determinism")
def cli_determinism(res: SuiteResult, seed: int = 7) -> None:
    """The same job run twice with --no-timestamp produces byte-identical
    certificates."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        args = ["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                "--h", "ones", "--N", "16", "--p", "2", "--q", "2", "--r", "2",
                "--seed", str(seed), "--no-timestamp"]
        outs = []
        for name in ("a.json", "b.json"):
            path = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args + ["--out", str(path)])
            if code != 0:
                res.fail(f"job exited with {code}")
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            res.fail("certificates differ between identical runs")
        else:
            res.details.append(f"byte-identical certificates ({len(outs[0])} bytes)")

