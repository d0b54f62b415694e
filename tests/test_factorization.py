import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongfactor.errors import (
    AllZeroMultiplier,
    DegenerateExponent,
    ExponentRange,
    LengthMismatch,
    SizeMismatch,
    SpecError,
    StrongFactorError,
    ZeroDiagonal,
)
from strongfactor.exponents import Exponent, INF, conjugate, multiplier_exponent
from strongfactor import factorization
from strongfactor.factorization import (
    EVIDENCE_NOTE,
    EXACT_TOL,
    Certificate,
    SignPattern,
    Verdict,
    certify_inequality_cesaro,
    certify_inequality_fourier,
    cesaro_factor_check,
    cesaro_factor_check_j0,
    fourier_factor_check,
    matrix_factor_check,
    verify_representing,
)
from strongfactor.grid_functions import (
    _representing_op,
    BasisFamily,
    BasisSpec,
    basis_rows,
    default_rule,
    fourier_coeffs,
    representing_setup,
)
from strongfactor.operators import (
    _BLOCK_ENTRIES,
    CesaroOp,
    MatrixOp,
    cesaro_matrix,
    diagonal_sandwich,
    factorable_matrix,
    identity_matrix,
    perturb_entry,
    random_lower_triangular,
)
from strongfactor.seq_spaces import IndexDomain, TruncatedSeq, lp_norm, lp_space

P2 = Exponent(2)


def ones(n):
    return TruncatedSeq(np.ones(n))


def harmonic(n):
    return TruncatedSeq(1.0 / np.arange(1, n + 1))


def assert_same_decision(cert, ref):
    """A wrapper agrees with the general matrix check it specializes."""
    assert cert.verdict is ref.verdict
    if ref.witness is None:
        assert cert.witness is None
    else:
        assert cert.witness == pytest.approx(ref.witness, rel=1e-12, abs=0.0)
    if ref.g is None:
        assert cert.g is None
    else:
        assert np.abs(cert.g.coeffs - ref.g.coeffs).max() \
            <= 1e-12 * np.abs(ref.g.coeffs).max()


def seeded_instances(seed, make):
    """Ten instances from ``make(rng, n)``, every other one perturbed at a
    random entry."""
    rng = np.random.default_rng(seed)
    for k in range(10):
        n = int(rng.integers(2, 24))
        a, h = make(rng, n)
        if k % 2:
            i, j = (int(v) for v in rng.integers(1, n + 1, 2))
            a = perturb_entry(a, i, j, 1e-3)
        yield a, h


class TestCesaroCheck:
    def test_round_trip_recovers_multiplier(self):
        n = 64
        g, h = harmonic(n), ones(n)
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.FACTORS
        assert np.abs(cert.g.coeffs - g.coeffs).max() < 1e-12
        assert cert.g_norm[1] == INF  # s(2,2)
        assert cert.g_norm[0] == pytest.approx(1.0)
        assert cert.h_norm is not None

    def test_rows_below_tol_read_at_pivot(self):
        # from row 10 on every h_j / i is at most tol, yet a_ij = 1.5 h_j / i
        # is not; g is still read at column j0 = 1
        n = 12
        g, h = TruncatedSeq(np.full(n, 1.5)), TruncatedSeq(np.full(n, 1e-8))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        cert = cesaro_factor_check(a, h, P2, P2, P2, tol=1e-9)
        assert cert.verdict is Verdict.FACTORS
        assert cert.g.coeffs == pytest.approx(g.coeffs, rel=1e-12)

    def test_identity_witness(self):
        cert = cesaro_factor_check(identity_matrix(4), ones(4), P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (2, 2)
        assert cert.witness["actual"] == 1.0
        assert cert.witness["expected"] == 0.0

    def test_zero_matrix_inconclusive(self):
        zero = MatrixOp(np.zeros((3, 3)), lp_space(2), lp_space(2))
        cert = cesaro_factor_check(zero, ones(3), P2, P2, P2)
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_zero_pivot(self):
        # h_1 = 0 is decided: row 1 of C M_h vanishes, so a_11 = 1 breaks it
        h = TruncatedSeq([0.0, 1.0, 1.0])
        cert = cesaro_factor_check(cesaro_matrix(3), h, P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (1, 1)

    def test_exponent_hypotheses(self):
        with pytest.raises(ExponentRange):
            cesaro_factor_check(cesaro_matrix(2), ones(2), P2, Exponent(1), P2)
        with pytest.raises(ExponentRange):
            cesaro_factor_check(cesaro_matrix(2), ones(2), P2, P2, INF)

    def test_perturbation_flips_verdict(self):
        n = 32
        rng = np.random.default_rng(9)
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        assert cesaro_factor_check(a, h, P2, P2, P2, tol=1e-6).verdict is Verdict.FACTORS
        for (i, j) in ((1, 2), (5, 30), (31, 32)):
            bad = perturb_entry(a, i, j, 1e-3)
            cert = cesaro_factor_check(bad, h, P2, P2, P2, tol=1e-6)
            assert cert.verdict is Verdict.DOES_NOT_FACTOR

    def test_matches_matrix_check(self):
        def make(rng, n):
            g = TruncatedSeq(rng.uniform(-1.5, 1.5, n))
            h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
            return diagonal_sandwich(g, cesaro_matrix(n), h), h

        for a, h in seeded_instances(40, make):
            cert = cesaro_factor_check(a, h, P2, P2, P2, tol=1e-6)
            ref = matrix_factor_check(a, cesaro_matrix(a.n), h, tol=1e-6)
            assert_same_decision(cert, ref)

    def test_exponents_recorded(self):
        n = 8
        a = diagonal_sandwich(harmonic(n), cesaro_matrix(n), ones(n))
        cert = cesaro_factor_check(a, ones(n), Exponent(3), Exponent("3/2"), P2)
        assert cert.exponents["s_rq"] == multiplier_exponent(P2, Exponent("3/2"))
        assert cert.exponents["s_pr"] == multiplier_exponent(Exponent(3), P2)


class TestCesaroCheckShifted:
    @staticmethod
    def shifted_instance(n, j0, seed=0):
        rng = np.random.default_rng(seed)
        alpha = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        hv = rng.uniform(0.5, 1.5, n)
        hv[:j0 - 1] = 0.0
        return alpha, TruncatedSeq(hv)

    def test_shifted_round_trip(self):
        n, j0 = 16, 2
        alpha, h = self.shifted_instance(n, j0)
        a = factorable_matrix(alpha, h, j0=j0)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.FACTORS
        assert np.abs(cert.alpha.coeffs - alpha.coeffs[:n - j0 + 1]).max() < 1e-12
        assert np.all(cert.g.coeffs[:j0 - 1] == 0.0)

    def test_collapses_to_plain_check(self):
        n = 12
        g, h = harmonic(n), ones(n)
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        plain = cesaro_factor_check(a, h, P2, P2, P2)
        shifted = cesaro_factor_check_j0(a, h, P2, P2, P2)
        assert shifted.verdict is plain.verdict is Verdict.FACTORS
        assert np.array_equal(shifted.g.coeffs, plain.g.coeffs)

    def test_forced_zero_region(self):
        n, j0 = 6, 2
        alpha, h = self.shifted_instance(n, j0)
        a = perturb_entry(factorable_matrix(alpha, h, j0=j0), 1, 1, 1.0)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (1, 1)

    def test_matches_matrix_check(self):
        def make(rng, n):
            j0 = int(rng.integers(1, n + 1))
            alpha, h = self.shifted_instance(n, j0, seed=int(rng.integers(1 << 30)))
            return factorable_matrix(alpha, h, j0=j0), h

        for a, h in seeded_instances(41, make):
            cert = cesaro_factor_check(a, h, P2, P2, P2)
            ref = matrix_factor_check(a, cesaro_matrix(a.n), h)
            assert_same_decision(cert, ref)

    def test_all_zero_multiplier(self):
        with pytest.raises(AllZeroMultiplier):
            cesaro_factor_check(cesaro_matrix(3), TruncatedSeq(np.zeros(3)), P2, P2, P2)

    @pytest.mark.parametrize("j0", [1, 3])
    def test_alpha_is_the_column_where_the_pivot_underflows(self, j0):
        # w_ij0 = (1/i) h_j0 is 0 from i = 2 on, so those rows take their
        # pivot at column j0 + 1; alpha still reads column j0 of A
        n = 300
        hv = np.ones(n)
        hv[:j0 - 1] = 0.0
        hv[j0 - 1] = 5e-324
        h = TruncatedSeq(hv)
        g = TruncatedSeq(np.arange(1, n + 1) * np.linspace(1.0, 3.0, n))
        a = diagonal_sandwich(g, CesaroOp(n), h)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.FACTORS
        expected = a.rows(j0 - 1, n)[:, j0 - 1] / hv[j0 - 1]
        assert cert.alpha.coeffs.tobytes() == expected.tobytes()
        assert np.count_nonzero(expected) > 1

    def test_shifted_perturbation_flips(self):
        n, j0 = 16, 3
        alpha, h = self.shifted_instance(n, j0, seed=4)
        a = factorable_matrix(alpha, h, j0=j0)
        bad = perturb_entry(a, 4, 9, 1e-3)
        assert cesaro_factor_check(bad, h, P2, P2, P2, tol=1e-6).verdict \
            is Verdict.DOES_NOT_FACTOR


class TestFourierCheck:
    def test_diagonal_factorization(self):
        n = 8
        g = TruncatedSeq(1.0 / np.arange(1, n + 1) ** 2)
        tphi = diagonal_sandwich(g, identity_matrix(n), ones(n))
        cert = fourier_factor_check(tphi, P2, P2, P2)
        assert cert.verdict is Verdict.FACTORS
        assert np.array_equal(cert.g.coeffs, g.coeffs)
        # r = q = 2 puts the multiplier space at the sup norm
        assert cert.g_norm[1] == INF
        assert cert.g_norm[0] == pytest.approx(1.0)

    def test_off_diagonal_witness(self):
        ent = np.eye(3)
        ent[0, 1] = 0.5
        tphi = MatrixOp(ent, lp_space(2), lp_space(2))
        cert = fourier_factor_check(tphi, P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (1, 2)

    def test_zero_matrix_inconclusive(self):
        zero = MatrixOp(np.zeros((2, 2)), lp_space(2), lp_space(2))
        assert fourier_factor_check(zero, P2, P2, P2).verdict is Verdict.INCONCLUSIVE

    def test_matches_matrix_check(self):
        def make(rng, n):
            g = TruncatedSeq(rng.uniform(-1.5, 1.5, n))
            return diagonal_sandwich(g, identity_matrix(n), ones(n)), ones(n)

        for a, h in seeded_instances(42, make):
            cert = fourier_factor_check(a, P2, P2, P2)
            ref = matrix_factor_check(a, identity_matrix(a.n), h)
            assert_same_decision(cert, ref)

    def test_hypotheses_enforced(self):
        op = identity_matrix(2)
        with pytest.raises(ExponentRange):
            fourier_factor_check(op, Exponent(3), Exponent(3), P2)  # r > 2
        with pytest.raises(ExponentRange):
            fourier_factor_check(op, P2, Exponent("3/2"), P2)  # p < r
        with pytest.raises(ExponentRange):
            fourier_factor_check(op, P2, INF, P2)  # p = inf
        with pytest.raises(ExponentRange):
            fourier_factor_check(op, P2, P2, Exponent(1))  # q = 1

    def test_finite_multiplier_exponent(self):
        n = 4
        g = TruncatedSeq(np.full(n, 0.5))
        tphi = diagonal_sandwich(g, identity_matrix(n), ones(n))
        cert = fourier_factor_check(tphi, Exponent("4/3"), Exponent(2), Exponent(2))
        s = multiplier_exponent(Exponent(4), Exponent(2))  # r' = 4, q = 2
        assert cert.g_norm[1] == s
        assert cert.g_norm[0] == pytest.approx(lp_norm(g, s))


class TestMatrixCheck:
    def test_cesaro_round_trip(self):
        n = 24
        rng = np.random.default_rng(12)
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        b = cesaro_matrix(n)
        a = diagonal_sandwich(g, b, h)
        cert = matrix_factor_check(a, b, h)
        assert cert.verdict is Verdict.FACTORS
        assert np.abs(cert.g.coeffs - g.coeffs).max() < 1e-12

    def test_forced_zero_condition(self):
        b = MatrixOp(np.array([[0.0, 1.0], [1.0, 1.0]]), lp_space(2), lp_space(2))
        a = MatrixOp(np.array([[1.0, 0.0], [0.0, 0.0]]), lp_space(2), lp_space(2))
        cert = matrix_factor_check(a, b, ones(2))
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (1, 1)

    def test_self_factorization(self):
        b = cesaro_matrix(5)
        cert = matrix_factor_check(b, b, ones(5))
        assert cert.verdict is Verdict.FACTORS
        assert np.allclose(cert.g.coeffs, 1.0)

    @pytest.mark.parametrize("kind", ["MatrixOp", "CesaroOp", "identity", "random_lower",
                                      "perturbed", "sandwich"])
    def test_every_kind_gives_the_certificate_of_its_dense_copy(self, kind):
        # the check reads A and B by their rows, whatever kind of operator each is
        n = 9
        rng = np.random.default_rng(n)
        g, h = TruncatedSeq(rng.uniform(0.5, 2.0, n)), TruncatedSeq(rng.uniform(0.1, 1.0, n))
        op = {
            "MatrixOp": lambda: cesaro_matrix(n),
            "CesaroOp": lambda: CesaroOp(n),
            "identity": lambda: identity_matrix(n),
            "random_lower": lambda: random_lower_triangular(n, seed=n),
            "perturbed": lambda: perturb_entry(CesaroOp(n), 5, 2, 0.25),
            "sandwich": lambda: diagonal_sandwich(g, CesaroOp(n), h),
        }[kind]()

        def dense(m):
            return MatrixOp(np.array(m.rows(0, n)), m.domain, m.codomain)

        for a, b in [(diagonal_sandwich(g, op, h), op), (op, CesaroOp(n))]:
            assert (matrix_factor_check(a, b, h).to_json()
                    == matrix_factor_check(dense(a), dense(b), h).to_json())
        assert matrix_factor_check(diagonal_sandwich(g, op, h), op, h).verdict is Verdict.FACTORS

    def test_inconsistent_row_ratios(self):
        b = cesaro_matrix(3)
        a = perturb_entry(diagonal_sandwich(ones(3), b, ones(3)), 3, 2, 0.25)
        cert = matrix_factor_check(a, b, ones(3))
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (3, 2)

    def test_witness_is_first_violation_in_row_major_order(self):
        # a ratio violation at (2, 2) precedes a forced-zero violation at (3, 4)
        b = cesaro_matrix(4)
        a = diagonal_sandwich(ones(4), b, ones(4))
        a = perturb_entry(perturb_entry(a, 2, 2, 0.25), 3, 4, 0.5)
        cert = matrix_factor_check(a, b, ones(4))
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert cert.witness == {"i": 2, "j": 2, "expected": 0.5, "actual": 0.75}

    def test_recovery_ignores_entries_within_tol(self):
        # b_21 h_1 = 1e-10 <= tol, so row 2 is read at (2, 2); a_21 = 0 is
        # within tol of g_2 b_21 h_1
        b = MatrixOp(np.array([[1.0, 0.0], [1e-7, 1.0]]), lp_space(2), lp_space(2))
        a = MatrixOp(np.array([[1e-3, 0.0], [0.0, 1.0]]), lp_space(2), lp_space(2))
        h = TruncatedSeq(np.array([1e-3, 1.0]))
        cert = matrix_factor_check(a, b, h, tol=1e-9)
        assert cert.verdict is Verdict.FACTORS
        assert cert.g.coeffs == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            matrix_factor_check(cesaro_matrix(3), cesaro_matrix(4), ones(3))

    def test_row_without_recovery_index(self):
        # h = e^1 wipes all but the first column of b * h
        b = cesaro_matrix(3)
        h = TruncatedSeq([1.0, 0.0, 0.0])
        a = diagonal_sandwich(TruncatedSeq([2.0, 3.0, 4.0]), b, h)
        cert = matrix_factor_check(a, b, h)
        assert cert.verdict is Verdict.FACTORS
        assert np.allclose(cert.g.coeffs, [2.0, 3.0, 4.0])


def reference_sandwich_check(ent, w, tol, g_exp, notes=(), pivot_tol=0.0, **meta):
    """The shape kernel before it took A and w by blocks of rows: both whole,
    and one N x N deviation matrix."""
    n = ent.shape[0]
    meta.update(tol=tol, truncation=n)
    if ent.max() <= tol and ent.min() >= -tol:
        return Certificate(verdict=Verdict.INCONCLUSIVE, residual=0.0,
                           notes=("zero operator: nontrivial operator required",
                                  EVIDENCE_NOTE), **meta)
    rows = np.arange(n)
    dev = np.abs(w)
    first = (dev > pivot_tol).argmax(axis=1)
    pivot = w[rows, first]
    live = np.abs(pivot) > pivot_tol
    g_vals = np.zeros(n)
    np.divide(ent[rows, first], pivot, out=g_vals, where=live)
    np.multiply(g_vals[:, None], w, out=dev)
    np.subtract(ent, dev, out=dev)
    np.abs(dev, out=dev)
    residual = float(dev.max())
    if residual > tol:
        i, j = np.unravel_index(int(np.argmax(dev > tol)), dev.shape)
        return Certificate(
            verdict=Verdict.DOES_NOT_FACTOR, residual=float(dev[i, j]),
            witness={"i": int(i) + 1, "j": int(j) + 1,
                     "expected": float(g_vals[i] * w[i, j]) + 0.0,
                     "actual": float(ent[i, j])},
            notes=(EVIDENCE_NOTE,), **meta)
    notes = (EVIDENCE_NOTE, *notes)
    dead = np.flatnonzero(~live)
    if dead.size:
        notes += (f"{dead.size} row(s) of B M_h vanish, first i={dead[0] + 1}; "
                  "g_i = 0 recorded for them",)
    g_norm = None if g_exp is None else (lp_norm(g_vals, g_exp), g_exp)
    return Certificate(verdict=Verdict.FACTORS,
                       g=TruncatedSeq(g_vals, IndexDomain.NAT1), g_norm=g_norm,
                       residual=residual, notes=notes, **meta)


def block_rows(n):
    return max(1, _BLOCK_ENTRIES // n)


def block_sizes():
    """n with one block, with an exact multiple of blocks, and with a ragged
    last block, from the kernel's block size."""
    start = math.isqrt(_BLOCK_ENTRIES) + 1  # from here on a block is shorter than n
    exact = next(n for n in itertools.count(start) if n % block_rows(n) == 0)
    ragged = next(n for n in itertools.count(exact)
                  if n % block_rows(n) and n // block_rows(n) >= 2)
    return [7, exact, ragged]


def block_cases(n):
    """(label, A, h, B) around the block boundaries of size n.  A is the
    operator as built: the implicit sandwich, ``perturb_entry`` of it, the
    identity, a random lower triangle, perturbed in its last block, or a
    dense zero."""
    rng = np.random.default_rng(n)
    step = block_rows(n)
    last = (n - 1) // step * step  # first row of the last block
    near = last if last + 2 < n else max(0, last - step)  # a block with two rows to spare
    cesaro, eye = cesaro_matrix(n), identity_matrix(n)
    lower = np.tril(rng.standard_normal((n, n)))
    lower[step - 1:step + 2] *= 1e-12  # rows below pivot_tol = tol across a boundary
    lower = MatrixOp(lower, lp_space(2), lp_space(2))
    g = rng.uniform(-2.0, 2.0, n)
    g[::5] = -0.0
    h = rng.uniform(0.5, 1.5, n)
    lead = h.copy()
    lead[:min(n - 2, step + 3)] = 0.0  # leading zeros past the first block
    lead[0] = -0.0

    def sandwich(b, hv):
        return diagonal_sandwich(TruncatedSeq(g), b, TruncatedSeq(hv))

    def bumped(a, *cells):
        for i, j, eps in cells:
            a = perturb_entry(a, i + 1, j + 1, eps)
        return a

    cases = []
    for label, b, hv in (("cesaro", cesaro, h), ("shifted", cesaro, lead),
                         ("diagonal", eye, np.ones(n)), ("lower", lower, h),
                         ("lower-shifted", lower, lead)):
        a = sandwich(b, hv)
        cases += [
            (label, a, hv, b),
            (f"{label}/block-end", bumped(a, (max(0, last - 1), 0, 1e-3)), hv, b),
            (f"{label}/block-start", bumped(a, (last, n - 1, 1e-3)), hv, b),
            (f"{label}/larger-later", bumped(a, (near, n - 1, 1e-6),
                                             (near + 1, n - 1, 1.0)), hv, b),
        ]
    rand = random_lower_triangular(n, seed=n)
    cases += [("identity", eye, h, cesaro), ("random-lower", rand, h, eye),
              ("random-lower/block-start", bumped(rand, (last, 0, 1e-3)), h, eye)]
    a = sandwich(cesaro, lead)
    cases.append(("dead-row-entry", bumped(a, (min(n - 3, step + 1), 0, 1e-3)), lead, cesaro))
    # the Cesàro wrapper refuses an all-zero h before the kernel runs
    cases.append(("zero-h", sandwich(cesaro, h), np.zeros(n), cesaro))
    cases.append(("zero", MatrixOp(np.zeros((n, n)), lp_space(2), lp_space(2)), h, cesaro))
    cases.append(("negative-zero", MatrixOp(np.full((n, n), -0.0), lp_space(2), lp_space(2)),
                  h, cesaro))
    return cases


P32 = Exponent("3/2")


class TestBlockKernel:
    """Every wrapper gives the dense reference kernel's certificate, byte for
    byte, at sizes with one block, whole blocks and a ragged last block, for
    A as built and for a dense ``MatrixOp`` with the same entries."""

    @staticmethod
    def wrappers(a, hv, b):
        h, n = TruncatedSeq(hv), a.n
        tri = np.tri(n)
        tri *= hv
        tri *= (1.0 / np.arange(1, n + 1))[:, None]
        b_rows = b.rows(0, n)
        bh = np.abs(b_rows)
        b_zero = bh <= EXACT_TOL
        np.multiply(b_rows, hv, out=bh)
        bh[b_zero] = 0.0
        # (the call, the dense w that the parent wrapper built)
        return {
            "cesaro": (lambda: cesaro_factor_check(a, h, P2, P2, P2), tri),
            "fourier": (lambda: fourier_factor_check(a, P32, P2, P2), np.eye(n)),
            "matrix": (lambda: matrix_factor_check(a, b, h), bh),
        }

    @staticmethod
    def outcome(call):
        try:
            return json.dumps(call().to_json())
        except StrongFactorError as exc:
            return repr(exc)

    @pytest.mark.parametrize("n", block_sizes())
    def test_matches_dense_reference(self, n, monkeypatch):
        seen, forms = set(), set()
        for label, a, hv, b in block_cases(n):
            dense = MatrixOp(a.rows(0, n), a.domain, a.codomain)
            forms.add(type(a).__name__)
            built = self.wrappers(a, hv, b)
            for name, (call, w) in self.wrappers(dense, hv, b).items():
                got = self.outcome(call)
                assert self.outcome(built[name][0]) == got, (label, name)
                with monkeypatch.context() as m:
                    m.setattr(factorization, "_sandwich_check",
                              lambda n, a_rows, _rows, *args, w=w, **meta:
                              reference_sandwich_check(a_rows(0, n), w, *args, **meta))
                    expected = self.outcome(call)
                assert got == expected, (label, name)
                seen.add(json.loads(got)["verdict"] if got.startswith("{") else "error")
        assert seen == {"FACTORS", "DOES_NOT_FACTOR", "INCONCLUSIVE", "error"}
        assert forms == {"_Sandwich", "_Perturbed", "_Identity", "_RandomLower", "MatrixOp"}


@pytest.mark.filterwarnings("error")
class TestOverflowingMultiplier:
    """A recovered g_i, or a product g_i b_ij h_j, beyond the float range
    ends the walk at row i, and no numpy warning reaches the caller."""

    @staticmethod
    def case(bump):
        n = 300  # 109 rows per block: rows 250 and 251 share the third
        hv = np.ones(n)
        hv[0] = 1e-300
        a = diagonal_sandwich(ones(n), cesaro_matrix(n), TruncatedSeq(hv))
        if bump:
            a = perturb_entry(a, 250, 2, 1e-3)
        return perturb_entry(a, 251, 1, 1e10 - float(a.rows(250, 251)[0, 0])), TruncatedSeq(hv)

    @staticmethod
    def product_case(bump):
        """g_2 = 1e-3 / (h_1 / 2) = 2e297 is finite; g_2 h_2 / 2 is not."""
        ent = np.zeros((3, 3))
        ent[1, :2] = 1e-3, 1.0
        if bump:
            ent[0, 1] = 1.0  # a forced zero broken in row 1
        return (MatrixOp(ent, lp_space(2), lp_space(2)),
                TruncatedSeq([1e-300, 1e20, 1.0]))

    def test_overflow_without_earlier_violation_names_the_row(self):
        a, h = self.case(bump=False)
        with pytest.raises(SpecError, match="g_251"):
            cesaro_factor_check(a, h, P2, P2, P2)

    def test_earlier_violation_in_the_same_block_is_the_witness(self):
        assert 249 // (_BLOCK_ENTRIES // 300) == 250 // (_BLOCK_ENTRIES // 300)
        a, h = self.case(bump=True)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert (cert.witness["i"], cert.witness["j"]) == (250, 2)
        json.dumps(cert.to_json(), allow_nan=False)  # every number is finite

    def test_product_overflow_names_the_row(self):
        a, h = self.product_case(bump=False)
        with pytest.raises(SpecError, match=r"g_2 = 2e\+297 times b_ij h_j overflows"):
            cesaro_factor_check(a, h, P2, P2, P2)

    def test_overflowing_b_h_is_not_a_factorization(self):
        # w_11 = b_11 h_1 = inf gives g_1 = 0 and 0 * inf = NaN, which no
        # residual test rejects
        a = MatrixOp([[1.0, 0.0], [1.0, 1.0]], lp_space(2), lp_space(2))
        b = MatrixOp([[1e200, 0.0], [1.0, 1.0]], lp_space(2), lp_space(2))
        with pytest.raises(SpecError, match="g_1 = 0.0 times b_ij h_j overflows"):
            matrix_factor_check(a, b, TruncatedSeq([1e200, 1.0]))

    def test_earlier_violation_is_the_witness_before_a_product_overflow(self):
        a, h = self.product_case(bump=True)
        cert = cesaro_factor_check(a, h, P2, P2, P2)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert cert.witness == {"i": 1, "j": 2, "expected": 0.0, "actual": 1.0}
        assert cert.residual == 1.0
        json.dumps(cert.to_json(), allow_nan=False)


class TestImplicitCesaroThrough:
    """``matrix_factor_check`` through ``CesaroOp`` writes the certificate
    that it writes through the dense ``cesaro_matrix``, byte for byte."""

    @staticmethod
    def certificates(ent, hv, tol=EXACT_TOL):
        a, h, n = MatrixOp(ent, lp_space(2), lp_space(2)), TruncatedSeq(hv), len(hv)
        return [json.dumps(matrix_factor_check(a, b, h, tol=tol).to_json())
                for b in (CesaroOp(n), cesaro_matrix(n))]

    @staticmethod
    def sandwich(n, hv):
        g = TruncatedSeq(np.cos(np.arange(n)) + 0.5)
        return diagonal_sandwich(g, CesaroOp(n), TruncatedSeq(hv)).rows(0, n)

    def test_exact_sandwich(self):
        n = 300
        hv = 1.0 / np.arange(1, n + 1)
        implicit, dense = self.certificates(self.sandwich(n, hv), hv)
        assert implicit == dense
        assert json.loads(implicit)["verdict"] == "FACTORS"

    def test_violation_in_the_first_row_of_the_second_block(self):
        n = 300
        step = block_rows(n)
        hv = np.linspace(1.0, 2.0, n)
        ent = self.sandwich(n, hv)
        ent[step, 1] += 1e-3  # row step + 1, off its pivot column
        implicit, dense = self.certificates(ent, hv)
        assert implicit == dense
        witness = json.loads(implicit)["witness"]
        assert (witness["i"], witness["j"]) == (step + 1, 2)

    def test_leading_zeros_in_h(self):
        n = 257
        hv = np.linspace(1.0, 2.0, n)
        hv[:block_rows(n) + 3] = 0.0
        implicit, dense = self.certificates(self.sandwich(n, hv), hv)
        assert implicit == dense
        doc = json.loads(implicit)
        assert doc["verdict"] == "FACTORS"
        assert any(note.startswith(f"{block_rows(n) + 3} row(s) of B M_h vanish")
                   for note in doc["notes"])

    def test_rows_within_tol_give_the_dead_row_note(self):
        n = 1024  # b_ij = 1/i <= 1e-3 from row 1000 on
        hv = np.ones(n)
        ent = self.sandwich(n, hv) * 1e-1
        implicit, dense = self.certificates(ent, hv, tol=1e-3)
        assert implicit == dense
        doc = json.loads(implicit)
        assert doc["verdict"] == "FACTORS"
        assert "25 row(s) of B M_h vanish, first i=1000; g_i = 0 recorded for them" \
            in doc["notes"]


class TestCheckMemory:
    """A check holds a few row blocks beside A and B, never an N x N
    temporary."""

    N = 1024

    @pytest.mark.parametrize("name", ["cesaro", "cesaro-j0", "fourier", "matrix",
                                      "matrix-implicit"])
    def test_peak_below_a_quarter_matrix(self, name, traced_peak):
        n = self.N
        h = harmonic(n)
        c = cesaro_matrix(n)
        a = diagonal_sandwich(TruncatedSeq(np.cos(np.arange(n))), c, h)
        d = diagonal_sandwich(TruncatedSeq(np.cos(np.arange(n))), identity_matrix(n), ones(n))
        check = {
            "cesaro": lambda: cesaro_factor_check(a, h, P2, P2, P2),
            "cesaro-j0": lambda: cesaro_factor_check_j0(a, h, P2, P2, P2),
            "fourier": lambda: fourier_factor_check(d, P32, P2, P2),
            "matrix": lambda: matrix_factor_check(a, c, h),
            "matrix-implicit": lambda: matrix_factor_check(a, CesaroOp(n), h),
        }[name]
        assert check().verdict is Verdict.FACTORS
        assert traced_peak(check) < 0.25 * 8 * n * n


# ---------------------------------------------------------------------------
# inequality certifiers, with independent brute-force oracles


def oracle_cesaro(ent, hv, sp):
    """Enumerate every sign matrix; largest LHS/RHS ratio over those with a
    nonvanishing RHS."""
    n, m = ent.shape
    best = -math.inf
    for bits in itertools.product((1.0, -1.0), repeat=n * m):
        lhs = sum(bits[i * m + j] * ent[i, j] for i in range(n) for j in range(m))
        rhs_pow = 0.0
        for i in range(n):
            s = sum(hv[j] * bits[i * m + j] for j in range(min(i + 1, m)))
            rhs_pow += abs(s) ** sp / (i + 1) ** sp
        rhs = rhs_pow ** (1.0 / sp)
        if rhs > 1e-12:
            best = max(best, lhs / rhs)
    return best


def oracle_fourier(ent, sp):
    n, m = ent.shape
    kmin = min(n, m)
    best = -math.inf
    for bits in itertools.product((1.0, -1.0), repeat=n * m):
        lhs = sum(bits[i * m + j] * ent[i, j] for i in range(n) for j in range(m))
        rhs = sum(abs(bits[i * m + i]) ** sp for i in range(kmin)) ** (1.0 / sp)
        best = max(best, lhs / rhs)
    return best


class TestSuiteOracles:
    """The certifier suite's row-table oracles agree with the per-pattern
    references above on dense entries and signed h."""

    SP = [1.0, 4.0 / 3.0, 2.0, 4.0]

    @staticmethod
    def instance(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, n)), rng.standard_normal(n)

    @pytest.mark.parametrize("sp", SP)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_instances(self, n, sp):
        from strongfactor.suites import _oracle_cesaro_vertex_max, _oracle_fourier_vertex_max

        ent, hv = self.instance(n, 100 * n + int(3 * sp))
        assert _oracle_cesaro_vertex_max(ent, hv, sp) == pytest.approx(
            oracle_cesaro(ent, hv, sp), abs=1e-12)
        assert _oracle_fourier_vertex_max(ent, sp) == pytest.approx(
            oracle_fourier(ent, sp), abs=1e-12)

    def test_cesaro_at_n4(self):
        from strongfactor.suites import _oracle_cesaro_vertex_max

        ent, hv = self.instance(4, 4)
        assert _oracle_cesaro_vertex_max(ent, hv, 4.0 / 3.0) == pytest.approx(
            oracle_cesaro(ent, hv, 4.0 / 3.0), abs=1e-12)

    def test_fourier_at_n4(self):
        from strongfactor.suites import _oracle_fourier_vertex_max

        ent, _ = self.instance(4, 5)
        assert _oracle_fourier_vertex_max(ent, 4.0) == pytest.approx(
            oracle_fourier(ent, 4.0), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_h_leaves_no_pattern(self, n):
        """With h = 0 every Cesaro right-hand side vanishes."""
        from strongfactor.suites import _oracle_cesaro_vertex_max

        ent, _ = self.instance(n, 6)
        hv = np.zeros(n)
        assert _oracle_cesaro_vertex_max(ent, hv, 2.0) == -math.inf
        assert oracle_cesaro(ent, hv, 2.0) == -math.inf


def cesaro_w(hv, i, j):
    """Entry (i, j), counted from 0, of C_N M_h as the certifier reads it:
    h_j times the rounded 1/i on j <= i."""
    return (1.0 / (i + 1)) * float(hv[j]) if j <= i else 0.0


def cesaro_form(ent, hv, sp):
    """The form that ``certify_inequality_cesaro`` sweeps: w = C_N M_h."""
    from strongfactor.factorization import _Form

    n = len(hv)
    return _Form(ent, np.array([[cesaro_w(hv, i, j) for j in range(n)] for i in range(n)]), sp)


class TestCesaroForm:
    """The certifier's one evaluator of the running-averages inequality."""

    @staticmethod
    def reference(ent, hv, sp, r):
        """LHS and RHS of one pattern in plain Python, RHS = the l^s' norm of
        the row sums of w_ij r_ij."""
        n = len(hv)
        lhs = sum(r[i, j] * ent[i, j] for i in range(n) for j in range(n))
        rhs_pow = 0.0
        for i in range(n):
            rhs_pow += abs(sum(cesaro_w(hv, i, j) * r[i, j] for j in range(n))) ** sp
        return lhs, rhs_pow ** (1.0 / sp)

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_matches_plain_python(self, n):
        rng = np.random.default_rng(40 + n)
        ent = rng.standard_normal((n, n))
        hv = rng.uniform(-1.5, 1.5, n)
        stack = rng.uniform(-1.0, 1.0, (8, n, n))
        for sp in (1.0, 4.0 / 3.0, 2.0, 4.0):
            lhs, rhs = cesaro_form(ent, hv, sp).evaluate(stack)
            for k, r in enumerate(stack):
                ref_lhs, ref_rhs = self.reference(ent, hv, sp, r)
                # the LHS may cancel: measure it against its absolute terms
                scale = float(np.abs(r * ent).sum())
                assert lhs[k] == pytest.approx(ref_lhs, rel=1e-12, abs=1e-12 * scale)
                assert rhs[k] == pytest.approx(ref_rhs, rel=1e-12)

    @pytest.mark.parametrize("n, s", [(2, Exponent(4)), (4, INF), (4, Exponent(4)),
                                      (5, Exponent(4)), (8, INF), (12, Exponent(3))])
    def test_report_is_the_evaluators_value(self, n, s):
        # n * n <= 16 takes the exhaustive sweep, larger n the sampled one;
        # c_hat pairs with the reported pattern, c_hat_vertex is the search's
        from strongfactor.factorization import _exhaustive_vertex_max, _sampled_vertex_max

        rng = np.random.default_rng(50 + n)
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        res = certify_inequality_cesaro(a, h, s, patterns=16, seed=2)
        assert not res.refuted
        form = cesaro_form(a.rows(0, n), h.coeffs, float(conjugate(s)))
        assert_reports_its_pattern(res, form)
        search = (_exhaustive_vertex_max(form, n, n) if n * n <= 16
                  else _sampled_vertex_max(form, n, n, 16, 2))
        assert res.c_hat_vertex == search[0]

    @pytest.mark.parametrize("n", [2, 5])
    def test_refutation_is_the_evaluators_value(self, n):
        # the pattern is built from the shape check's witness, not searched
        res = certify_inequality_cesaro(identity_matrix(n), ones(n), Exponent(4),
                                        patterns=4, seed=0)
        assert res.refuted
        form = cesaro_form(identity_matrix(n).rows(0, n), np.ones(n), float(conjugate(Exponent(4))))
        lhs, rhs = form.evaluate(np.asarray(res.pattern.r)[None])
        assert (res.lhs, res.rhs) == (lhs[0], rhs[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_sweep_is_the_whole_stack_scored(n):
    # the second half of the codes is scored as the negation of the first;
    # zeros and -0.0 in A, and the zero operator, keep every bit
    from strongfactor.factorization import _Form, _exhaustive_vertex_max, _select

    rng = np.random.default_rng(60 + n)
    # entry b of pattern c is +1 where bit b of c is set
    stack = np.array([p[::-1] for p in itertools.product([-1.0, 1.0], repeat=n * n)])
    stack = stack.reshape(-1, n, n)
    for trial in range(6):
        ent = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 5, (n, n))
        ent[rng.random((n, n)) < 0.3] = 0.0
        ent[rng.random((n, n)) < 0.2] = -0.0
        if trial == 0:
            ent[:] = 0.0
        w = np.tril(rng.uniform(0.5, 1.5, (n, n)))
        for sp in (1.0, 4.0 / 3.0, 2.0):
            form = _Form(ent, w, sp)
            got, want = _exhaustive_vertex_max(form, n, n), _select(stack, *form.evaluate(stack))
            assert repr((got[0], *got[2:])) == repr((want[0], *want[2:]))
            assert got[1].tobytes() == want[1].tobytes()


def whole_draw_sweep(form, n, patterns, seed):
    """The best of the seeded starts drawn and scored as one (patterns, n, n)
    stack, as (ratio, pattern, lhs, rhs), earliest on ties."""
    starts = np.where(np.random.default_rng(seed).random((patterns, n, n)) < 0.5, -1.0, 1.0)
    lhs, rhs = form.evaluate(starts)
    best = None
    for k in range(patterns):
        if rhs[k] > 0.0 and (best is None or lhs[k] / rhs[k] > best[0]):
            best = (float(lhs[k] / rhs[k]), starts[k], float(lhs[k]), float(rhs[k]))
    return best


def assert_reports_its_pattern(res, form):
    """(lhs, rhs) are the evaluator's values on the reported pattern, every
    entry of which lies in [-1, 1], and a bounded c_hat is their ratio, at
    least the vertex search's."""
    r = np.asarray(res.pattern.r)
    assert np.abs(r).max(initial=0.0) <= 1.0
    lhs, rhs = form.evaluate(r[None])
    assert (res.lhs, res.rhs) == (lhs[0], rhs[0])
    if not res.refuted:
        assert res.c_hat == max(lhs[0] / rhs[0], 0.0)
        assert res.c_hat >= res.c_hat_vertex


class TestAttainedConstant:
    """Once the shape check says FACTORS, every row of A is proportional to
    w's, and the reported c_hat is the constant sup LHS/RHS over the box,
    attained by the reported pattern: ||g||_s for a Cesaro sandwich
    M_g C M_h."""

    @staticmethod
    def sandwich(n, seed):
        rng = np.random.default_rng(seed)
        g = TruncatedSeq(np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.2, 2.0, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        return g, h, diagonal_sandwich(g, cesaro_matrix(n), h)

    @pytest.mark.parametrize("n", [5, 32, 256])
    @pytest.mark.parametrize("s", [Exponent("4/3"), Exponent(2), Exponent(3), INF])
    def test_sandwich_attains_g_norm(self, n, s):
        g, h, a = self.sandwich(n, 90 + n)
        res = certify_inequality_cesaro(a, h, s, patterns=8, seed=1)
        assert not res.refuted
        assert res.c_hat == pytest.approx(lp_norm(g, s), rel=1e-12, abs=0.0)
        assert res.c_hat > res.c_hat_vertex  # the vertex search understates it
        assert_reports_its_pattern(res, cesaro_form(a.rows(0, n), h.coeffs,
                                                    float(conjugate(s))))

    @pytest.mark.parametrize("r, q", [(2, 2), (4, 2), (3, Fraction(3, 2))])
    def test_corpus_attains_recovered_norm(self, r, q):
        # h with leading zeros, holes or only h_1 != 0 included: the norm of
        # the g that the shape check recovers (0 where row i of w vanishes)
        s = multiplier_exponent(Exponent(r), Exponent(q))
        sp = float(conjugate(s))
        bounded = 0
        for seed, (n, label, a, h) in enumerate(certifier_corpus()):
            res = certify_inequality_cesaro(a, h, s, patterns=16, seed=seed)
            if res.refuted:
                continue
            bounded += 1
            cert = cesaro_factor_check(a, h, P2, Exponent(q), Exponent(r))
            if res.pattern.r.ndim == 2:  # the row form at s = inf keeps its vector
                assert_reports_its_pattern(res, cesaro_form(a.rows(0, n), h.coeffs, sp))
            assert res.c_hat == pytest.approx(cert.g_norm[0], rel=1e-12, abs=0.0), (n, label)
        assert bounded >= 40

    @pytest.mark.parametrize("n, patterns", [(5, 16), (32, 64), (64, 20), (256, 3)])
    def test_block_scoring_matches_whole_draw(self, n, patterns):
        # blocks of 1310, 32, 8 and 1 starts: the same bits as one draw
        from strongfactor.factorization import _sampled_vertex_max

        _, h, a = self.sandwich(n, 7)
        form = cesaro_form(a.rows(0, n), h.coeffs, 2.0)
        for seed in range(2):
            got = _sampled_vertex_max(form, n, n, patterns, seed)
            want = whole_draw_sweep(form, n, patterns, seed)
            assert got[0] == want[0] and got[2:] == want[2:]
            assert np.array_equal(got[1], want[1])


class TestCertifyCesaro:
    def test_continuous_patterns_respect_the_bound(self):
        # the inequality quantifies over the whole unit ball, not only
        # vertices: random patterns in [-1, 1] must respect the Hoelder bound
        rng = np.random.default_rng(30)
        n = 6
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        ent = a.rows(0, n)
        for s in (Exponent(4), INF):
            sp = float(conjugate(s))
            bound = lp_norm(g, s)
            for _ in range(200):
                r = rng.uniform(-1.0, 1.0, (n, n))
                lhs = float(np.sum(r * ent))
                rhs_pow = 0.0
                for i in range(n):
                    row_sum = float(np.dot(h.coeffs[:i + 1], r[i, :i + 1]))
                    rhs_pow += abs(row_sum) ** sp / (i + 1) ** sp
                assert lhs <= bound * rhs_pow ** (1.0 / sp) + 1e-9

    def test_matches_brute_force_on_factoring_instance(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            g = TruncatedSeq(rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.5, -1, 1))
            h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
            a = diagonal_sandwich(g, cesaro_matrix(n), h)
            s = Exponent(4)
            res = certify_inequality_cesaro(a, h, s, patterns=4, seed=0)
            oracle = oracle_cesaro(a.rows(0, n), h.coeffs, float(conjugate(s)))
            assert res.c_hat_vertex == pytest.approx(oracle, abs=1e-12)
            assert not res.refuted
            assert res.c_hat <= lp_norm(g, s) + 1e-9

    def test_identity_is_refuted(self):
        res = certify_inequality_cesaro(identity_matrix(2), ones(2), INF,
                                        patterns=4, seed=0)
        assert res.refuted and math.isinf(res.c_hat)
        # the witness is a_22 against the pivot w_21 = h_1: r_22 = w_21 and
        # r_21 = -w_22, so row 2 sums to 0 and LHS = a_22 = 1
        assert np.asarray(res.pattern.r).tolist() == [[0.0, 0.0], [-1.0, 1.0]]
        assert (res.lhs, res.rhs) == (1.0, 0.0)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("s", [Exponent(4), INF])
    def test_zero_matrix_gives_zero(self, n, s):
        # n = 6 samples; no pattern, attained or searched, scores above 0
        zero = MatrixOp(np.zeros((n, n)), lp_space(2), lp_space(2))
        res = certify_inequality_cesaro(zero, ones(n), s, patterns=4, seed=0)
        assert (res.c_hat, res.c_hat_vertex, res.refuted) == (0.0, 0.0, False)
        assert_reports_its_pattern(res, cesaro_form(zero.entries, np.ones(n),
                                                    float(conjugate(s))))

    @staticmethod
    def scaled_sandwich(cg, ch):
        g = TruncatedSeq(np.array([1.0, -2.0, 0.5, 3.0]) * cg)
        h = TruncatedSeq(np.array([1.0, 0.5, 0.25, 0.8]) * ch)
        return g, h, diagonal_sandwich(g, cesaro_matrix(4), h)

    @pytest.mark.parametrize("s", [Exponent(4), P2, Exponent("4/3"), INF])
    def test_factor_moved_between_g_and_h_is_not_refuted(self, s):
        # max |a_ij| is 1, but g ~ 1e13 and h ~ 1e-13: the shape check says
        # FACTORS, and the constant is ||g||_s of the g it recovers
        g, h, a = self.scaled_sandwich(1e13, 1e-13)
        res = certify_inequality_cesaro(a, h, s)
        assert not res.refuted
        assert res.c_hat == pytest.approx(lp_norm(g, s), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("c, s", [(1e-160, Exponent(4)), (1e-200, P2),
                                      (1e-200, Exponent("4/3"))])
    def test_tiny_h_still_scores_the_vertices(self, c, s):
        # every RHS is about c and positive, though its s'-th power may
        # underflow; the check calls the tiny operator a zero operator, so
        # c_hat is the vertex value
        _, h, a = self.scaled_sandwich(1.0, c)
        res = certify_inequality_cesaro(a, h, s)
        assert not res.refuted and res.c_hat_vertex > 0.0
        assert res.c_hat == res.c_hat_vertex

    @pytest.mark.parametrize("s", [P2, Exponent(4)])
    def test_closed_form_scores_a_tiny_h(self, s):
        # h = (1e-300, 0, 0) with g = 1e6: entries about 1e-294, every RHS^s'
        # underflows, but the scaled RHS does not
        n = 3
        g, h = TruncatedSeq(np.full(n, 1e6)), TruncatedSeq([1e-300, 0.0, 0.0])
        res = certify_inequality_cesaro(diagonal_sandwich(g, cesaro_matrix(n), h), h, s)
        assert not res.refuted and res.c_hat_vertex > 0.0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 5), st.integers(-800, 800), st.sampled_from([P2, Exponent(4), INF]),
           st.integers(0, 2 ** 32 - 1))
    @example(n=3, k=514, s=P2, seed=0)
    def test_vertex_ratio_is_invariant_under_h_times_power_of_two(self, n, k, s, seed):
        # A = M_g C M_h and w = C M_h both scale by 2^k, and so, exactly, do
        # every LHS and RHS; entries stay normal for |k| <= 800.  At k = 514
        # the check refutes the 2^514 sandwich (its tolerance is absolute),
        # and the witness's products a_ij w_ip overflow unless taken scaled
        rng = np.random.default_rng(seed)
        g = TruncatedSeq(rng.uniform(0.5, 2.0, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0))
        hv = rng.uniform(0.5, 2.0, n)
        hv[rng.random(n) < 0.3] = 0.0
        hv[0] = 1.0
        vertex = []
        for scale in (0, k):
            h = TruncatedSeq(np.ldexp(hv, scale))
            a = diagonal_sandwich(g, cesaro_matrix(n), h)
            vertex.append(certify_inequality_cesaro(a, h, s, patterns=8, seed=1).c_hat_vertex)
        assert repr(vertex[0]) == repr(vertex[1])

    def test_identity_with_huge_h_is_refuted(self):
        # every row sum of C_3 M_h is 1e300 and the scaled RHS is finite, so
        # the identity is refuted; at h = 1e308 the RHS overflows (INPUT_CHECKS)
        res = certify_inequality_cesaro(identity_matrix(3), TruncatedSeq(np.full(3, 1e300)),
                                        Exponent(4))
        assert res.refuted and res.rhs == 0.0 < res.lhs

    def test_degenerate_exponent(self):
        with pytest.raises(DegenerateExponent):
            certify_inequality_cesaro(identity_matrix(2), ones(2), Exponent(1))

    def test_deterministic_given_seed(self):
        n = 6  # beyond the exhaustive limit: exercises the sampled path
        rng = np.random.default_rng(5)
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        r1 = certify_inequality_cesaro(a, h, Exponent(4), patterns=16, seed=3)
        r2 = certify_inequality_cesaro(a, h, Exponent(4), patterns=16, seed=3)
        assert r1.c_hat == r2.c_hat
        assert np.array_equal(r1.pattern.r, r2.pattern.r)
        assert r1.c_hat <= lp_norm(g, Exponent(4)) + 1e-9

    def test_sampled_path_stays_below_exhaustive_bound(self):
        # the Hoelder bound holds for every pattern, sampled or not
        n = 5
        rng = np.random.default_rng(8)
        g = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        h = TruncatedSeq(rng.uniform(0.5, 1.5, n))
        a = diagonal_sandwich(g, cesaro_matrix(n), h)
        res = certify_inequality_cesaro(a, h, INF, patterns=8, seed=1)
        assert not res.refuted
        assert res.c_hat <= lp_norm(g, INF) + 1e-9


def certifier_corpus():
    """(n, label, A, h) cases: exact sandwiches, sandwiches perturbed off
    column 1, the identity and random lower-triangular matrices; then exact
    and perturbed sandwiches whose h has leading zeros, interior holes, or
    h = (c, 0, ..., 0), labelled by that kind first."""
    rng = np.random.default_rng(42)

    def multiplier(n):
        return np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.5, n)

    for n in (2, 3, 4, 5, 8, 12):
        for k in range(5):
            h = TruncatedSeq(multiplier(n))
            yield n, f"sandwich {k}", diagonal_sandwich(TruncatedSeq(multiplier(n)),
                                                        cesaro_matrix(n), h), h
        for k in range(10):
            h = TruncatedSeq(multiplier(n))
            a = diagonal_sandwich(TruncatedSeq(multiplier(n)), cesaro_matrix(n), h)
            i, j = int(rng.integers(1, n + 1)), int(rng.integers(2, n + 1))
            eps = float(10.0 ** rng.uniform(-3, -1))
            yield n, f"perturbed ({i}, {j}) by {eps:.1e}", perturb_entry(a, i, j, eps), h
        yield n, "identity", identity_matrix(n), ones(n)
        for k in range(4):
            yield (n, f"random lower {k}", random_lower_triangular(n, seed=k),
                   TruncatedSeq(multiplier(n)))
    for n in (2, 3, 4, 5, 8, 12):
        for kind, zeros in (("leading zeros", slice(0, n // 2)),
                            ("holes", slice(1, n - 1, 2)), ("spike", slice(1, n))):
            for k in range(3):
                hv = multiplier(n)
                hv[zeros] = 0.0
                h = TruncatedSeq(hv)
                a = diagonal_sandwich(TruncatedSeq(multiplier(n)), cesaro_matrix(n), h)
                if k == 0:
                    yield n, f"{kind} sandwich", a, h
                    continue
                i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
                eps = float(10.0 ** rng.uniform(-3, -1))
                yield n, f"{kind} perturbed ({i}, {j}) by {eps:.1e}", perturb_entry(a, i, j, eps), h


def replay_refutation(res, ent, w, sp):
    """Re-score a refuting pattern with plain loops, apart from ``_Form``:
    RHS = (sum_i |sum_j w(i, j) r_ij|^sp)^(1/sp) is exactly 0, LHS =
    sum_ij r_ij a_ij is positive and is the reported value, and the pattern
    has at most two nonzero entries, the largest of size in [1/2, 1].  A
    vector pattern (the row form) lies on row ``res.rows`` of A."""
    n = ent.shape[0]
    r = np.asarray(res.pattern.r)
    rows = {res.rows - 1: r} if r.ndim == 1 else dict(enumerate(r))
    lhs = rhs_pow = 0.0
    for i, ri in rows.items():
        lhs += sum(float(ri[j]) * float(ent[i, j]) for j in range(n))
        rhs_pow += abs(sum(w(i, j) * float(ri[j]) for j in range(n))) ** sp
    assert res.refuted and math.isinf(res.c_hat)
    assert rhs_pow ** (1.0 / sp) == 0.0 == res.rhs
    assert lhs > 0.0 and lhs == res.lhs
    assert np.count_nonzero(r) <= 2
    assert 0.5 <= np.abs(r).max() <= 1.0


def replay_cesaro_refutation(res, ent, hv, sp):
    replay_refutation(res, ent, lambda i, j: cesaro_w(hv, i, j), sp)


class TestCertifierAgreesWithShapeCheck:
    """The Cesàro certifier refutes exactly when the shape check gives
    DOES_NOT_FACTOR, and on FACTORS its vertex ratio stays below the
    recovered multiplier's norm (Hoelder).  The certifier reads both from
    the check's kernel, so every refuting pattern is replayed here by plain
    loops.  The shape check also takes the h with h_1 = 0."""

    @pytest.mark.parametrize("r, q", [(2, 2), (4, 2), (3, Fraction(3, 2))])
    def test_refuted_iff_does_not_factor(self, r, q):
        r, q = Exponent(r), Exponent(q)
        s = multiplier_exponent(r, q)
        sp = float(conjugate(s))
        verdicts = set()
        for seed, (n, label, a, h) in enumerate(certifier_corpus()):
            cert = cesaro_factor_check(a, h, P2, q, r)
            res = certify_inequality_cesaro(a, h, s, patterns=16, seed=seed)
            verdicts.add(cert.verdict)
            assert res.refuted == (cert.verdict is Verdict.DOES_NOT_FACTOR), (n, label)
            if res.refuted:
                replay_cesaro_refutation(res, a.rows(0, n), h.coeffs, sp)
            if cert.verdict is Verdict.FACTORS:
                assert res.c_hat_vertex <= cert.g_norm[0] * (1.0 + 1e-9), (n, label)
        assert verdicts == {Verdict.FACTORS, Verdict.DOES_NOT_FACTOR}

    @staticmethod
    def spikes(most):
        return [(n, label, a, h) for n, label, a, h in certifier_corpus()
                if n <= most and label.startswith("spike")]

    def test_closed_form_matches_oracle(self):
        # only h_1 != 0: every +-1 vertex has the same RHS, so the closed form
        # gives the vertex optimum that the brute-force enumeration finds
        s = multiplier_exponent(Exponent(4), P2)
        for n, label, a, h in self.spikes(4):
            res = certify_inequality_cesaro(a, h, s, patterns=16, seed=0)
            oracle = oracle_cesaro(a.rows(0, n), h.coeffs, float(conjugate(s)))
            assert res.c_hat_vertex == pytest.approx(oracle, abs=1e-12), (n, label)

    def test_closed_form_row_form(self):
        # at s = inf the pattern is a vector on the row k of A that maximizes
        # sum_j |a_kj| / (|h_1| / k), which no +-1 matrix ratio exceeds
        for n, label, a, h in self.spikes(12):
            ent = a.rows(0, n)
            res = certify_inequality_cesaro(a, h, INF, patterns=16, seed=0)
            pattern = np.asarray(res.pattern.r)
            assert pattern.shape == (n,) and res.cols == n, (n, label)
            ratios = np.abs(ent).sum(axis=1) * np.arange(1, n + 1) / abs(h.coeffs[0])
            assert res.c_hat_vertex == pytest.approx(ratios.max(), rel=1e-12), (n, label)
            if not res.refuted:
                assert res.rows == 1 + int(np.argmax(ratios)), (n, label)
                assert np.array_equal(pattern, np.where(ent[res.rows - 1] < 0, -1.0, 1.0))
            if n <= 3:
                assert res.c_hat_vertex >= oracle_cesaro(ent, h.coeffs, 1.0) - 1e-12


def reference_fourier(ent, s):
    """The Fourier certifier's vertex search before the shared closed form:
    a closure evaluator at finite s and a loop over rows at s = inf.  At
    finite s the LHS adds einsum's row sums, and the RHS is the scaled sum
    m (sum_i (|r_ii| / m)^s')^(1/s') with m = max |r_ii|, rooted by the
    scalar ``**``.  Returns (c_hat_vertex, pattern, lhs, rhs, rows) of the
    best vertex."""
    n = ent.shape[0]
    if s.is_inf:
        best = (-math.inf, None, 0.0, 0.0, 0)
        for row in range(1, n + 1):
            arow = ent[row - 1]
            r = np.sign(arow)
            r[r == 0.0] = 1.0
            lhs = float(np.dot(r, arow))
            if lhs / 1.0 > best[0]:
                best = (lhs / 1.0, r.copy(), lhs, 1.0, row)
    else:
        sp = float(conjugate(s))
        r = np.sign(ent)
        r[r == 0.0] = 1.0
        lhs = float(np.einsum("ij,ij->i", r, ent).sum())
        diag = [abs(float(x)) for x in np.diagonal(r)]
        m = max(diag)
        rhs = m * sum((x / m) ** sp for x in diag) ** (1.0 / sp)
        best = (lhs / rhs, r, lhs, rhs, n)
    return (max(best[0], 0.0), *best[1:])


def fourier_cases():
    """Seeded diagonal, perturbed-diagonal and full matrices, some with zero
    entries on and off the diagonal, plus the zero matrix and n = 1.  At
    n = 10, 15, 27 and 37, n^(1/s') at s = 4, 6, 3/2 and 4/3 rounds
    differently through np.power than through the scalar ``**``."""
    rng = np.random.default_rng(31)
    cases = [np.zeros((3, 3)), np.zeros((1, 1)), np.array([[2.5]]), np.array([[-1e-7]])]
    for n in (2, 3, 5, 8, 10, 13, 15, 27, 37):
        cases.append(np.diag(rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)))
        cases.append(np.diag(rng.uniform(0.5, 2.0, n)) + 1e-12 * rng.standard_normal((n, n)))
        cases.append(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n)))
        holes = rng.standard_normal((n, n))
        holes[rng.random((n, n)) < 0.4] = 0.0
        holes[0, 0] = 0.0
        cases.append(holes)
    return cases


class TestCertifyFourier:
    @pytest.mark.parametrize("s", [Exponent(2), Exponent(4), Exponent("4/3"),
                                   Exponent("3/2"), Exponent(6), INF])
    def test_matches_reference(self, s):
        # refuted exactly when the shape check says DOES_NOT_FACTOR, each
        # refuting pattern replayed by plain loops; the vertex search bit for
        # bit, -0.0 and rows included, and the whole report in the row form
        # (s = inf); a bounded report at finite s is the attained constant
        def bits(values):
            return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in values]

        sp = float(conjugate(s))
        for ent in fourier_cases():
            n = ent.shape[0]
            op = MatrixOp(ent, lp_space(2), lp_space(2))
            res = certify_inequality_fourier(op, s)
            cert = fourier_factor_check(op, P2, P2, P2)
            expected = reference_fourier(ent, s)
            assert repr(res.c_hat_vertex) == repr(expected[0])
            assert res.refuted == (cert.verdict is Verdict.DOES_NOT_FACTOR)
            if res.refuted:
                replay_refutation(res, ent, lambda i, j: float(i == j), sp)
                assert res.rows == (cert.witness["i"] if s.is_inf else n)
                continue
            if s.is_inf:
                got = (res.c_hat, np.asarray(res.pattern.r), res.lhs, res.rhs, res.rows)
                assert bits(got) == bits(expected)
                continue
            assert res.rows == n
            assert_reports_its_pattern(res, factorization._Form(ent, np.eye(n), sp))
            # the sup over the box is ||diag A||_s, up to A's mass off the
            # diagonal, which no refutation took
            diag = lp_norm(np.diagonal(ent), s)
            off = np.abs(ent).sum() - np.abs(np.diagonal(ent)).sum()
            assert abs(res.c_hat - diag) <= 1e-12 * diag + off

    @pytest.mark.parametrize("s", [Exponent(2), INF])
    def test_negative_zero_operator_gives_zero(self, s):
        # a lone -0.0 entry scores LHS +0.0 in both forms; the row loop that
        # the row form replaced gave -0.0, as np.dot multiplies length-1
        # vectors as scalars
        res = certify_inequality_fourier(MatrixOp(np.array([[-0.0]]), lp_space(2),
                                                  lp_space(2)), s)
        assert repr((res.c_hat, res.c_hat_vertex, res.lhs)) == "(0.0, 0.0, 0.0)"

    @pytest.mark.parametrize("s", [P2, Exponent(4), Exponent("4/3"), INF])
    def test_near_identity_is_not_refuted_at_any_s(self, s):
        # 1e-12 off the diagonal is within the check's tolerance, though the
        # row sums of N = 40 such entries pass 1e-9
        n = 40
        ent = np.full((n, n), 1e-12)
        np.fill_diagonal(ent, 1.0)
        res = certify_inequality_fourier(MatrixOp(ent, lp_space(2), lp_space(2)), s)
        assert not res.refuted and res.c_hat >= lp_norm(np.ones(n), s)

    def test_diagonal_attains_norm_with_constant_magnitude(self):
        for n in (2, 3, 4):
            g = TruncatedSeq(0.9 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
            tphi = diagonal_sandwich(g, identity_matrix(n), ones(n))
            s = Exponent(4)
            res = certify_inequality_fourier(tphi, s)
            assert res.c_hat == pytest.approx(lp_norm(g, s), rel=1e-12)
            oracle = oracle_fourier(tphi.rows(0, n), float(conjugate(s)))
            assert res.c_hat_vertex == pytest.approx(oracle, abs=1e-12)

    def test_general_diagonal_matches_oracle(self):
        rng = np.random.default_rng(13)
        n = 3
        g = TruncatedSeq(rng.uniform(0.2, 1.5, n))
        tphi = diagonal_sandwich(g, identity_matrix(n), ones(n))
        s = Exponent(2)
        res = certify_inequality_fourier(tphi, s)
        oracle = oracle_fourier(tphi.rows(0, n), float(conjugate(s)))
        assert res.c_hat_vertex == pytest.approx(oracle, abs=1e-12)
        assert res.c_hat <= lp_norm(g, s) + 1e-9

    def test_off_diagonal_is_refuted(self):
        ent = np.eye(2)
        ent[0, 1] = 0.3
        tphi = MatrixOp(ent, lp_space(2), lp_space(2))
        res = certify_inequality_fourier(tphi, Exponent(4))
        assert res.refuted and math.isinf(res.c_hat)
        assert res.lhs == pytest.approx(0.3)

    def test_zero_matrix(self):
        zero = MatrixOp(np.zeros((2, 2)), lp_space(2), lp_space(2))
        res = certify_inequality_fourier(zero, Exponent(4))
        assert res.c_hat == 0.0

    def test_sup_case_uses_row_form(self):
        g = TruncatedSeq([0.25, -2.0, 1.0])
        tphi = diagonal_sandwich(g, identity_matrix(3), ones(3))
        res = certify_inequality_fourier(tphi, INF)
        assert res.c_hat == pytest.approx(2.0)  # sup |g|
        assert not res.refuted

    def test_sup_case_refutes_off_diagonal(self):
        ent = np.diag([1.0, 1.0, 1.0])
        ent[2, 0] = 0.4
        tphi = MatrixOp(ent, lp_space(2), lp_space(2))
        res = certify_inequality_fourier(tphi, INF)
        assert res.refuted


def named_g(name, n):
    i = np.arange(1, n + 1, dtype=float)
    return TruncatedSeq({"ones": np.ones(n), "harmonic": 1.0 / i, "invsq": 1.0 / i ** 2,
                         "alt": (-1.0) ** (i + 1) / i}[name])


def representing_counts(family):
    """Counts {1, 2, 3, 16, 32} and the node count of the family's rule."""
    return sorted({1, 2, 3, 16, 32, default_rule(family).nodes.size})


class TestVerifyRepresenting:
    def test_weighted_coefficient_construction(self):
        spec = BasisSpec(BasisFamily.CHEBYSHEV1, 16)
        _, h = representing_setup(spec)

        def t_impl(x):
            return fourier_coeffs(x.multiplied(h), spec, 16).coeffs

        cert = verify_representing(t_impl, spec, h, tol=1e-6)
        assert cert.verdict is Verdict.FACTORS
        assert np.abs(cert.g.coeffs - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("family", [BasisFamily.CHEBYSHEV2,
                                        BasisFamily.LAGUERRE,
                                        BasisFamily.LEGENDRE])
    def test_other_weighted_families(self, family):
        spec = BasisSpec(family, 8)
        _, h = representing_setup(spec)

        def t_impl(x):
            return fourier_coeffs(x.multiplied(h), spec, 8).coeffs

        cert = verify_representing(t_impl, spec, h, tol=1e-6)
        assert cert.verdict is Verdict.FACTORS

    def test_diagonal_scaling_on_trig(self):
        # the weighted-coefficient bound construction: diagonal decay applied
        # to plain trigonometric coefficients
        n = 16
        spec = BasisSpec(BasisFamily.TRIG_REAL, n)
        pf = 4.0 / 3.0
        gamma = (1.0 / (np.arange(1, n + 1) + 1.0)) ** ((2.0 - pf) / pf)
        w, h = representing_setup(spec)

        def t_impl(x):
            return gamma * fourier_coeffs(x, spec, n).coeffs

        cert = verify_representing(t_impl, spec, h, tol=1e-9)
        assert cert.verdict is Verdict.FACTORS
        assert np.abs(cert.g.coeffs - gamma).max() <= 1e-12 * gamma.min()

    def test_permuted_coefficients_fail(self):
        spec = BasisSpec(BasisFamily.CHEBYSHEV1, 16)
        _, h = representing_setup(spec)

        def t_impl(x):
            coeffs = fourier_coeffs(x.multiplied(h), spec, 16).coeffs.copy()
            coeffs[[0, 1]] = coeffs[[1, 0]]
            return coeffs

        cert = verify_representing(t_impl, spec, h, tol=1e-6)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert cert.residual > 1e-6
        assert cert.witness["i"] in (1, 2)

    def test_top_index_permutation_detected(self):
        # the probes must excite every coefficient index up to `count`
        n = 16
        spec = BasisSpec(BasisFamily.TRIG_REAL, n)
        _, h = representing_setup(spec)

        def t_impl(x):
            coeffs = fourier_coeffs(x, spec, n).coeffs.copy()
            coeffs[[n - 2, n - 1]] = coeffs[[n - 1, n - 2]]
            return coeffs

        cert = verify_representing(t_impl, spec, h, tol=1e-6)
        assert cert.verdict is Verdict.DOES_NOT_FACTOR
        assert cert.witness["i"] in (n - 1, n)

    def test_zero_diagonal_rejected(self):
        spec = BasisSpec(BasisFamily.TRIG_REAL, 4)
        h, t = _representing_op(spec, TruncatedSeq([1.0, 0.0, 1.0, 1.0]), permute=False)
        with pytest.raises(ZeroDiagonal, match=r"^g_2 = 0 breaks injectivity$"):
            verify_representing(t, spec, h)

    def test_zero_operator_is_inconclusive(self):
        spec = BasisSpec(BasisFamily.LEGENDRE, 4)
        _, h = representing_setup(spec)
        cert = verify_representing(lambda x: np.zeros(4), spec, h)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.notes[0] == "zero operator: nontrivial operator required"

    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_built_in_operator_factors_and_recovers_g(self, family):
        for n in representing_counts(family):
            spec = BasisSpec(family, n)
            for name in ("harmonic",) if n > 32 else ("ones", "harmonic", "invsq", "alt"):
                g = named_g(name, n)
                h, t = _representing_op(spec, g, permute=False)
                cert = verify_representing(t, spec, h)
                assert cert.verdict is Verdict.FACTORS, (n, name)
                assert cert.truncation == n
                rel = np.abs(cert.g.coeffs - g.coeffs) / np.abs(g.coeffs)
                assert rel.max() <= 1e-12, (n, name)

    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_permuted_operator_fails_in_the_first_two_rows(self, family):
        for n in representing_counts(family)[1:]:
            spec = BasisSpec(family, n)
            h, t = _representing_op(spec, named_g("harmonic", n), permute=True)
            cert = verify_representing(t, spec, h)
            assert cert.verdict is Verdict.DOES_NOT_FACTOR, n
            assert cert.witness["i"] in (1, 2), n

    @pytest.mark.parametrize("family", list(BasisFamily))
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_probes_are_the_first_basis_functions(self, family, n):
        # m = n, or 2 max(1, n // 2) + 1 for trig: the first m functions at
        # the rule's nodes, in order, each once
        spec = BasisSpec(family, n)
        rule = default_rule(family)
        m = 2 * max(1, n // 2) + 1 if family is BasisFamily.TRIG_REAL else n
        seen = []

        def t_impl(x):
            seen.append(x)
            return np.zeros(n)

        verify_representing(t_impl, spec, lambda x: np.ones_like(x))
        want = basis_rows(BasisSpec(family, m), m, rule.nodes)
        assert len(seen) == m
        for x, row in zip(seen, want):
            assert x.rule is rule
            assert x.values.tobytes() == row.tobytes()

    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_matches_the_reference_kernel_on_the_probe_matrices(self, family, monkeypatch):
        def outcomes():
            found = []
            for n in (1, 3, 16):
                spec = BasisSpec(family, n)
                g = named_g("alt", n)
                for permute in (False, True) if n > 1 else (False,):
                    h, t = _representing_op(spec, g, permute)
                    found.append(json.dumps(verify_representing(t, spec, h).to_json()))
                found.append(json.dumps(verify_representing(
                    lambda x: np.zeros(n), spec, h).to_json()))
            return found

        got = outcomes()
        monkeypatch.setattr(factorization, "_sandwich_check",
                            lambda n, a_rows, w_rows, *args, **meta: reference_sandwich_check(
                                a_rows(0, n), w_rows(0, n), *args, **meta))
        assert got == outcomes()
        assert {json.loads(c)["verdict"] for c in got} == {
            "FACTORS", "DOES_NOT_FACTOR", "INCONCLUSIVE"}

    def test_deviation_scales_linearly(self):
        # both sides of the identity are linear, so scaling the input scales
        # the deviation; the verdict cannot depend on the sample amplitude
        from strongfactor.grid_functions import GridFunction, random_trig_poly

        n = 8
        spec = BasisSpec(BasisFamily.TRIG_REAL, n)
        _, h = representing_setup(spec)
        x, _ = random_trig_poly(3, seed=2)

        def bad_t(z):
            coeffs = fourier_coeffs(z, spec, n).coeffs.copy()
            coeffs[[0, 1]] = coeffs[[1, 0]]
            return coeffs

        g = np.ones(n)
        dev1 = np.abs(bad_t(x) - g * fourier_coeffs(x, spec, n).coeffs).max()
        x3 = GridFunction(x.rule, 3.0 * x.values)
        dev3 = np.abs(bad_t(x3) - g * fourier_coeffs(x3, spec, n).coeffs).max()
        assert dev3 == pytest.approx(3.0 * dev1, rel=1e-12)


# each input check as (call, error, message): lengths that differ from the
# matrix size, a degenerate exponent, a certifier side that overflows at the
# largest sign pattern, a pattern count below one, a pattern outside the unit
# ball, and a FACTORS certificate whose residual exceeds its tol
INPUT_CHECKS = {
    "j0-length": (lambda: cesaro_factor_check(cesaro_matrix(3), ones(2), P2, P2, P2),
                  LengthMismatch, "multiplier length 2 != matrix size 3"),
    "matrix-length": (lambda: matrix_factor_check(cesaro_matrix(3), cesaro_matrix(3), ones(2)),
                      LengthMismatch, "multiplier length 2 != matrix size 3"),
    "certify-cesaro-length": (lambda: certify_inequality_cesaro(cesaro_matrix(3), ones(2), P2),
                              LengthMismatch, "multiplier length 2 != matrix size 3"),
    "certify-fourier-s1": (lambda: certify_inequality_fourier(cesaro_matrix(2), Exponent(1)),
                           DegenerateExponent, "multiplier exponent 1 has infinite conjugate"),
    "certify-fourier-lhs-overflow": (
        lambda: certify_inequality_fourier(
            MatrixOp(np.diag([1e308, 1e308]), lp_space(2), lp_space(2)), Exponent(4)),
        SpecError, "the LHS of a sign pattern overflows the float range"),
    "certify-cesaro-rhs-overflow": (
        lambda: certify_inequality_cesaro(identity_matrix(3), TruncatedSeq(np.full(3, 1e308)),
                                          Exponent(4)),
        SpecError, "the RHS of a sign pattern overflows the float range"),
    "certify-cesaro-patterns": (
        lambda: certify_inequality_cesaro(cesaro_matrix(3), ones(3), Exponent(4), patterns=0),
        SpecError, "patterns must be >= 1"),
    "pattern-entry": (lambda: SignPattern(np.array([[0.5, -1.5]])),
                      SpecError, "pattern entries must lie in [-1, 1]"),
    "pattern-entry-nan": (lambda: SignPattern(np.array([np.nan, 0.5])),
                          SpecError, "pattern entries must lie in [-1, 1]"),
    "factors-residual": (lambda: Certificate(verdict=Verdict.FACTORS, g=ones(1),
                                             residual=2 * EXACT_TOL),
                         SpecError, "FACTORS requires residual within tolerance"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_raises(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestCertificate:
    def test_factors_requires_multiplier(self):
        with pytest.raises(SpecError):
            Certificate(verdict=Verdict.FACTORS, residual=0.0)

    def test_refutation_requires_witness(self):
        with pytest.raises(SpecError):
            Certificate(verdict=Verdict.DOES_NOT_FACTOR)

    def test_json_schema_keys(self):
        n = 8
        a = diagonal_sandwich(harmonic(n), cesaro_matrix(n), ones(n))
        cert = cesaro_factor_check(a, ones(n), P2, P2, P2)
        doc = cert.to_json()
        for key in ("verdict", "g", "h", "exponents", "g_norm", "residual",
                    "witness", "tolerances", "truncation_n"):
            assert key in doc
        # the CLI job writes the seed, as it writes the job echo
        assert "seed" not in doc
        assert doc["verdict"] == "FACTORS"
        assert doc["truncation_n"] == n
        assert doc["exponents"]["s_rq"] == "inf"
        assert doc["g_norm"]["exponent"] == "inf"
