import ast
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongfactor import operators
from strongfactor.errors import LengthMismatch, ParseError, SizeMismatch, SpecError
from strongfactor.exponents import Exponent, conjugate
from strongfactor.operators import (
    _BLOCK_ENTRIES,
    CesaroOp,
    MatrixOp,
    NormEstimate,
    _read_csv,
    cesaro_matrix,
    diagonal_sandwich,
    factorable_matrix,
    identity_matrix,
    matrix_from_csv,
    matrix_from_json_file,
    matrix_to_csv,
    operator_norm_estimate,
    perturb_entry,
    random_lower_triangular,
    seq_from_csv,
    seq_to_csv,
)
from strongfactor.seq_spaces import TruncatedSeq, lp_norm, lp_space


SRC = Path(__file__).resolve().parents[1] / "src"


def ones(n):
    return TruncatedSeq(np.ones(n))


class TestCesaroMatrix:
    def test_size_one(self):
        assert np.array_equal(cesaro_matrix(1).entries, [[1.0]])

    def test_second_row(self):
        assert np.allclose(cesaro_matrix(2).entries[1], [0.5, 0.5])

    def test_first_column(self):
        col = cesaro_matrix(4).entries[:, 0]
        assert np.allclose(col, [1.0, 0.5, 1 / 3, 0.25])

    def test_row_sums_are_one(self):
        assert np.allclose(cesaro_matrix(40).entries.sum(axis=1), 1.0)

    def test_strictly_upper_is_zero(self):
        ent = cesaro_matrix(6).entries
        assert np.all(ent[np.triu_indices(6, k=1)] == 0.0)


def block_sizes():
    """n = 1 and 7 (one block), then the first n made of whole blocks and the
    first with a ragged last block, from the operators' block size."""
    def rows(n):
        return max(1, _BLOCK_ENTRIES // n)
    start = math.isqrt(_BLOCK_ENTRIES) + 1  # from here on a block is shorter than n
    exact = next(n for n in itertools.count(start) if n % rows(n) == 0)
    ragged = next(n for n in itertools.count(exact) if n % rows(n) and n // rows(n) >= 2)
    return [1, 7, exact, ragged]


def reference_cesaro(n):
    """The dense formula that ``cesaro_matrix`` used before it read rows."""
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    return np.where(j <= i, 1.0 / i, 0.0)


def reference_sandwich(g, s, h):
    """The dense ``diagonal_sandwich``: (g_i * s_ij) first, then * h_j."""
    out = g[:, None] * s
    out *= h
    return out


def signed_multipliers(n, seed):
    """g and h with -0.0 and negative entries, g at scales 1e-200 to 1e200
    and h at 1e-100 to 1e100, so every g_i s_ij h_j stays a normal float."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.choice([-200, -100, 0, 100, 200], n)
    h = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.choice([-100, -5, 0, 5, 100], n)
    g[::5], h[1::4] = -0.0, -0.0
    return g, h


class TestCesaroOp:
    """``CesaroOp`` builds its rows on demand, with the bits of the dense
    formula, and every matrix made from it keeps those bits."""

    @pytest.mark.parametrize("n", block_sizes())
    def test_cesaro_matrix_bytes(self, n):
        assert cesaro_matrix(n).entries.tobytes() == reference_cesaro(n).tobytes()

    @pytest.mark.parametrize("n", block_sizes())
    def test_rows_are_fresh_blocks_of_the_matrix(self, n):
        op, ref = CesaroOp(n), reference_cesaro(n)
        for lo, hi in [(0, n), (0, 1), (n - 1, n), (n // 3, n // 2 + 1)]:
            rows = op.rows(lo, hi)
            assert rows.flags.writeable and rows.flags.owndata
            assert rows.tobytes() == ref[lo:hi].tobytes()

    @pytest.mark.parametrize("n", block_sizes())
    @pytest.mark.parametrize("through", ["implicit", "dense", "dense-lower"])
    def test_sandwich_bytes(self, n, through):
        g, h = signed_multipliers(n, seed=n)
        s = reference_cesaro(n)
        op = {"implicit": lambda: CesaroOp(n), "dense": lambda: cesaro_matrix(n),
              "dense-lower": lambda: random_lower_triangular(n, seed=n)}[through]()
        if through == "dense-lower":
            s = op.rows(0, n)
        got = diagonal_sandwich(TruncatedSeq(g), op, TruncatedSeq(h)).rows(0, n)
        assert got.tobytes() == reference_sandwich(g, s, h).tobytes()

    def test_spaces_and_size(self):
        op = CesaroOp(5)
        assert op.n == 5 and op.domain == op.codomain == lp_space(2)
        assert cesaro_matrix(5).domain == op.domain
        with pytest.raises(SizeMismatch, match=r"^matrix must be square and nonempty, "
                                                r"got shape \(0, 0\)$"):
            CesaroOp(0)

    def test_matrix_rows_are_a_read_only_view(self):
        a = cesaro_matrix(6)
        rows = a.rows(2, 4)
        assert np.shares_memory(rows, a.entries) and not rows.flags.writeable
        assert rows.tobytes() == a.entries[2:4].tobytes()


#: both operator types, by the name of their Cesàro constructor
CESARO_OPS = {"cesaro_matrix": cesaro_matrix, "CesaroOp": CesaroOp}


@pytest.mark.parametrize("make", CESARO_OPS.values(), ids=CESARO_OPS.keys())
class TestMatvec:
    def test_constant_sequence_fixed_point(self, make):
        assert np.allclose(make(5).matvec(np.ones(5)), 1.0)

    def test_first_unit_vector_gives_harmonic(self, make):
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert np.allclose(make(4).matvec(e1), [1.0, 0.5, 1 / 3, 0.25])

    def test_transpose_of_last_unit_vector_is_constant(self, make):
        e4 = np.zeros(4)
        e4[3] = 1.0
        assert np.allclose(make(4).rmatvec(e4), 0.25)

    @pytest.mark.parametrize("method", ["matvec", "rmatvec"])
    def test_length_mismatch(self, make, method):
        multiply = getattr(make(3), method)
        for x in (np.ones(4), np.ones(1), np.ones((3, 1)), np.float64(1.0)):
            with pytest.raises(LengthMismatch):
                multiply(x)


def test_identity_matvec():
    x = np.random.default_rng(0).standard_normal(7)
    op = identity_matrix(7)
    assert np.array_equal(op.matvec(x), x) and np.array_equal(op.rmatvec(x), x)


@pytest.mark.parametrize("n", [1, 7, 256, 257])
def test_cesaro_products_match_the_dense_matrix(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    op, entries = CesaroOp(n), cesaro_matrix(n).entries
    for got, ref in [(op.matvec(x), entries @ x), (op.rmatvec(y), y @ entries)]:
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


class TestDiagonalSandwich:
    def test_unit_multipliers_preserve(self):
        op = cesaro_matrix(5)
        assert np.array_equal(diagonal_sandwich(ones(5), op, ones(5)).rows(0, 5),
                              op.entries)

    def test_diagonal_product(self):
        out = diagonal_sandwich(TruncatedSeq([1.0, 2.0]), identity_matrix(2),
                                TruncatedSeq([3.0, 4.0]))
        assert np.allclose(out.rows(0, 2), [[3.0, 0.0], [0.0, 8.0]])

    def test_cesaro_entries(self):
        rng = np.random.default_rng(1)
        g = TruncatedSeq(rng.standard_normal(6))
        h = TruncatedSeq(rng.standard_normal(6))
        out = diagonal_sandwich(g, cesaro_matrix(6), h).rows(0, 6)
        for i in range(1, 7):
            for j in range(1, 7):
                expected = g.coeffs[i - 1] * h.coeffs[j - 1] / i if j <= i else 0.0
                assert out[i - 1, j - 1] == pytest.approx(expected, abs=1e-15)

    def test_matches_entrywise_application(self):
        rng = np.random.default_rng(2)
        g = TruncatedSeq(rng.standard_normal(8))
        h = TruncatedSeq(rng.standard_normal(8))
        x = TruncatedSeq(rng.standard_normal(8))
        op = cesaro_matrix(8)
        left = diagonal_sandwich(g, op, h).matvec(x.coeffs)
        right = g.coeffs * op.matvec(h.coeffs * x.coeffs)
        assert np.allclose(left, right, atol=1e-14)


class TestImplicitSandwich:
    """``diagonal_sandwich`` holds g, S and h.  Its rows have the bits of the
    dense product (``TestCesaroOp`` checks all of them), its products agree
    with the dense matrix, and an entry that is not finite is refused when
    it is built."""

    @pytest.mark.parametrize("n", block_sizes())
    @pytest.mark.parametrize("through", ["implicit", "dense-lower"])
    def test_rows_and_products_match_the_dense_matrix(self, n, through):
        rng = np.random.default_rng(n)
        g, h = rng.standard_normal(n), rng.standard_normal(n)
        s = CesaroOp(n) if through == "implicit" else random_lower_triangular(n, seed=n)
        op = diagonal_sandwich(TruncatedSeq(g), s, TruncatedSeq(h))
        dense = reference_sandwich(g, s.rows(0, n), h)
        assert (op.n, op.domain, op.codomain) == (n, s.domain, s.codomain)
        for lo, hi in [(0, n), (0, 1), (n - 1, n), (n // 3, n // 2 + 1)]:
            rows = op.rows(lo, hi)
            assert rows.flags.writeable and rows.flags.owndata
            assert rows.tobytes() == dense[lo:hi].tobytes()
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        scale = np.abs(dense)
        assert np.all(np.abs(op.matvec(x) - dense @ x) <= 1e-12 * (scale @ np.abs(x)))
        assert np.all(np.abs(op.rmatvec(y) - y @ dense) <= 1e-12 * (np.abs(y) @ scale))
        for multiply in (op.matvec, op.rmatvec):
            with pytest.raises(LengthMismatch):
                multiply(np.ones(n + 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", CESARO_OPS.values(), ids=CESARO_OPS.keys())
    def test_overflow_in_the_last_row_block_is_spec_error(self, make):
        n = block_sizes()[-1]
        assert n // (_BLOCK_ENTRIES // n) >= 2  # row n lies in a later block than row 1
        g, h = np.ones(n), np.ones(n)
        g[-1] = h[0] = 1e200  # only g_n s_n1 h_1 = 1e400 / n overflows
        with pytest.raises(SpecError, match="matrix entries must be finite"):
            diagonal_sandwich(TruncatedSeq(g), make(n), TruncatedSeq(h))

    @pytest.mark.filterwarnings("error")
    def test_finite_entries_beyond_the_bound_are_accepted(self):
        # max|g| max|s| max|h| = 1e400, but g_1 meets h_n only at s_1n = 0
        n = block_sizes()[-1]
        g, h = np.ones(n), np.ones(n)
        g[0] = h[-1] = 1e200
        op = diagonal_sandwich(TruncatedSeq(g), CesaroOp(n), TruncatedSeq(h))
        assert op.rows(0, n).tobytes() == reference_sandwich(g, reference_cesaro(n), h).tobytes()


class TestRandomLower:
    """``random_lower_triangular`` draws its rows by blocks from the seeded
    stream, with the bits of one draw of the whole matrix, whatever order
    the rows are read in."""

    @pytest.mark.parametrize("n", [1, 7, 257, 1024])
    def test_rows_in_any_order_match_one_draw(self, n):
        ref = np.tril(np.random.default_rng(n).standard_normal((n, n)))
        step = max(1, _BLOCK_ENTRIES // n)
        first, last = (0, min(step, n)), ((n - 1) // step * step, n)
        # a later block first, block 0 twice (the zero-operator pre-check,
        # then the walk), a slice across blocks twice, all rows, then a
        # later block
        middle = (n // 3, n // 2 + 1)
        reads = [last, first, first, middle, middle, (0, n), last]
        op = random_lower_triangular(n, seed=n)
        assert (op.n, op.domain, op.codomain) == (n, lp_space(2), lp_space(2))
        for lo, hi in reads:
            rows = op.rows(lo, hi)
            assert rows.flags.writeable and rows.flags.owndata
            assert rows.tobytes() == ref[lo:hi].tobytes(), (lo, hi)
        x = np.random.default_rng(0).standard_normal(n)
        scale = np.abs(ref)
        assert np.all(np.abs(op.matvec(x) - ref @ x) <= 1e-12 * (scale @ np.abs(x)))
        assert np.all(np.abs(op.rmatvec(x) - x @ ref) <= 1e-12 * (np.abs(x) @ scale))

    @pytest.mark.parametrize("n", [7, 256, 1024, 4096])
    def test_chunked_draws_equal_one_draw(self, n):
        whole = np.random.default_rng(n).standard_normal((n, n))
        rng, block = np.random.default_rng(n), np.empty(_BLOCK_ENTRIES)
        for lo, hi in operators._block_bounds(n):
            rows = block[:(hi - lo) * n].reshape(hi - lo, n)
            rng.standard_normal(out=rows)
            assert rows.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def norm_cases(n):
    """Operators on l^2 at size n, by name, for the Lanczos estimate."""
    rng = np.random.default_rng(n)
    g, h = TruncatedSeq(rng.standard_normal(n)), TruncatedSeq(rng.uniform(0.1, 1.0, n))
    top_repeats = np.concatenate([[3.0, 3.0, -3.0], np.linspace(2.5, 0.1, n)])[:n]
    return {
        "CesaroOp": CesaroOp(n),
        "cesaro_matrix": cesaro_matrix(n),
        "random_lower_triangular": random_lower_triangular(n, seed=n),
        "sandwich": diagonal_sandwich(g, CesaroOp(n), h),
        "diagonal": diagonal_sandwich(TruncatedSeq(top_repeats), identity_matrix(n), ones(n)),
        "identity": identity_matrix(n),
        "zero": MatrixOp(np.zeros((n, n)), lp_space(2), lp_space(2)),
    }


class TestNormEstimate:
    def test_identity_at_least_one(self):
        assert operator_norm_estimate(identity_matrix(10), seed=0).value >= 1 - 1e-12

    def test_diagonal_spectral_norm(self):
        op = diagonal_sandwich(TruncatedSeq([3.0, 1.0]), identity_matrix(2),
                               TruncatedSeq([1.0, 1.0]))
        assert operator_norm_estimate(op, seed=0).value == pytest.approx(3.0, abs=1e-6)

    def test_cesaro_truncation_norm(self):
        # the truncated norm stays below the limiting constant 2 and matches
        # a direct SVD; at N = 256 it sits near 1.686
        op = cesaro_matrix(256)
        est = operator_norm_estimate(op, seed=0).value
        oracle = float(np.linalg.svd(np.asarray(op.entries), compute_uv=False)[0])
        assert est == pytest.approx(oracle, abs=1e-9)
        assert est <= 2.0
        assert est == pytest.approx(1.6864274, abs=1e-6)

    def test_lower_bound_only_for_general_exponents(self):
        op = MatrixOp(cesaro_matrix(32).entries, lp_space(3), lp_space(3))
        est = operator_norm_estimate(op, seed=1)
        assert 0.9 <= est.value <= float(conjugate(Exponent(3)))
        assert est.steps == 0 and not est.converged

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256, 1024])
    def test_lanczos_agrees_with_dense_svd(self, n):
        for name, op in norm_cases(n).items():
            est = operator_norm_estimate(op)
            sigma = float(np.linalg.svd(op.rows(0, n), compute_uv=False)[0])
            assert est.converged and 1 <= est.steps <= 300, name
            assert abs(est.value - sigma) <= 1e-13 * sigma, name

    @pytest.mark.parametrize("k, norm", [(12, 1.79478), (14, 1.82921), (16, 1.85575)])
    def test_cesaro_norm_curve(self, k, norm):
        est = operator_norm_estimate(CesaroOp(2 ** k))
        assert est.converged and abs(est.value - norm) <= 5e-6

    @pytest.mark.parametrize("op", [CesaroOp(64), MatrixOp(cesaro_matrix(16).entries,
                                                           lp_space(3), lp_space(3))],
                             ids=["l2", "l3"])
    def test_same_seed_same_estimate(self, op):
        est = operator_norm_estimate(op, seed=3)
        assert isinstance(est, NormEstimate)
        assert operator_norm_estimate(op, seed=3) == est

    def test_lanczos_holds_no_square_array(self, traced_peak):
        n = 2 ** 14
        assert traced_peak(lambda: operator_norm_estimate(CesaroOp(n))) < 0.01 * 8 * n * n


class TestHardyInequality:
    @pytest.mark.parametrize("p", [Fraction(4, 3), 2, 3])
    def test_bound_with_conjugate_constant(self, p):
        rng = np.random.default_rng(6)
        op = cesaro_matrix(256)
        pe = Exponent(p)
        bound = float(conjugate(pe))
        for _ in range(20):
            x = TruncatedSeq(np.abs(rng.standard_normal(256)))
            assert lp_norm(op.matvec(x.coeffs), pe) <= bound * lp_norm(x, pe) * (1 + 1e-12)


class TestFactorableMatrix:
    def test_shifted_shape(self):
        alpha = TruncatedSeq([2.0, 3.0, 4.0, 5.0, 6.0])
        hv = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out = factorable_matrix(alpha, TruncatedSeq(hv), j0=2)
        ent = out.entries
        assert np.all(ent[0] == 0.0)
        assert np.all(ent[:, 0] == 0.0)
        for i in range(2, 6):
            for j in range(2, i + 1):
                assert ent[i - 1, j - 1] == hv[j - 1] * alpha.coeffs[i - 2]
            assert np.all(ent[i - 1, i:] == 0.0)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        op = random_lower_triangular(5, seed=3)
        path = tmp_path / "m.csv"
        matrix_to_csv(op, path)
        back = matrix_from_csv(path)
        assert np.array_equal(back.entries, op.rows(0, 5))

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ParseError):
            matrix_from_csv(path)

    def test_csv_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("N=2\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            matrix_from_csv(path)

    def test_csv_fields_parse_as_float_does(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("N=2\n1_0, 2 \n-0.0,5e-324\n")
        entries = matrix_from_csv(path).entries
        assert entries.tolist() == [[10.0, 2.0], [-0.0, 5e-324]]
        assert np.signbit(entries[1, 0])
        path.write_text("N=1\n\u0661\n")  # ARABIC-INDIC DIGIT ONE
        assert matrix_from_csv(path).entries.tolist() == [[1.0]]

    def test_json_round_trip(self, tmp_path):
        op = cesaro_matrix(3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(op.to_json()))
        back = matrix_from_json_file(path)
        assert np.array_equal(back.entries, op.entries)
        assert back.domain.p == Exponent(2)

    def test_seq_csv_round_trip(self, tmp_path):
        x = TruncatedSeq([1.5, -2.25, 3.125])
        path = tmp_path / "s.csv"
        seq_to_csv(x, path)
        assert np.array_equal(seq_from_csv(path).coeffs, x.coeffs)

    def test_matrix_must_be_square(self):
        with pytest.raises(SizeMismatch):
            MatrixOp(np.ones((2, 3)), lp_space(2), lp_space(2))
        with pytest.raises(SizeMismatch):
            identity_matrix(0)
        with pytest.raises(SizeMismatch):
            random_lower_triangular(0, seed=1)

    def test_perturb_entry_bounds(self):
        op = cesaro_matrix(3)
        out = perturb_entry(op, 1, 3, 0.5)
        assert out.rows(0, 1)[0, 2] == 0.5
        assert op.entries[0, 2] == 0.0

    # file name, its text, the reader, and the message after "<path>"
    BAD_FILES = {
        "csv-header-size": ("m.csv", "N=x\n1\n", matrix_from_csv,
                            ":1: malformed size in header 'N=x'"),
        "csv-header-after-blank-lines": ("m.csv", "\n\nfoo\n1\n", matrix_from_csv,
                                         ":3: expected header 'N=<n>'"),
        "csv-header-size-after-blank-lines": ("m.csv", "\n\nN=x\n1\n", matrix_from_csv,
                                              ":3: malformed size in header 'N=x'"),
        "csv-empty": ("m.csv", "", matrix_from_csv, ":1: expected header 'N=<n>'"),
        "csv-row-count": ("m.csv", "N=2\n1,2\n", matrix_from_csv,
                          ": expected 2 rows, found 1"),
        "csv-size-zero": ("m.csv", "N=0\n", matrix_from_csv,
                          ":1: size in header must be at least 1, got 'N=0'"),
        "csv-size-negative": ("m.csv", "N=-2\n1,2\n3,4\n", matrix_from_csv,
                              ":1: size in header must be at least 1, got 'N=-2'"),
        "json-syntax": ("m.json", '{"entries": [[1]],\n "domain": }', matrix_from_json_file,
                        ":2: Expecting value"),
        "json-missing-key": ("m.json", '{"entries": [[1]]}', matrix_from_json_file,
                             ": missing key 'domain'"),
    }

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_bad_file_is_parse_error(self, tmp_path, case):
        name, text, read, message = self.BAD_FILES[case]
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == f"{path}{message}"

    # each as (call, error, message)
    BAD_ARGUMENTS = {
        "perturb-row": (lambda: perturb_entry(cesaro_matrix(3), 4, 1, 0.5),
                        SpecError, "entry (4, 1) outside 1..3"),
        "perturb-column": (lambda: perturb_entry(cesaro_matrix(3), 1, 0, 0.5),
                           SpecError, "entry (1, 0) outside 1..3"),
        "perturb-infinite": (lambda: perturb_entry(random_lower_triangular(3, 1), 3, 3, math.inf),
                             SpecError, "matrix entries must be finite"),
        "perturb-nan": (lambda: perturb_entry(identity_matrix(3), 1, 2, math.nan),
                        SpecError, "matrix entries must be finite"),
        # no overflow warning either: the suite turns warnings into errors
        "perturb-overflow": (lambda: perturb_entry(
            MatrixOp([[1e308]], lp_space(2), lp_space(2)), 1, 1, 1e308),
            SpecError, "matrix entries must be finite"),
        "factorable-shift-high": (lambda: factorable_matrix(ones(3), ones(4), j0=5),
                                  SpecError, "shift j0=5 outside 1..4"),
        "factorable-shift-low": (lambda: factorable_matrix(ones(3), ones(4), j0=0),
                                 SpecError, "shift j0=0 outside 1..4"),
        "sandwich-length": (lambda: diagonal_sandwich(ones(2), cesaro_matrix(3), ones(3)),
                            LengthMismatch, "multiplier lengths must equal the matrix size"),
    }

    @pytest.mark.parametrize("case", BAD_ARGUMENTS)
    def test_bad_argument_raises(self, case):
        call, error, message = self.BAD_ARGUMENTS[case]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


# reader, the lines ahead of the rows, and row k as a list of fields
CSV_READERS = {
    "matrix": (matrix_from_csv, ["N=2"], lambda k: [f"{k}.5", "0.25"]),
    "seq": (seq_from_csv, [], lambda k: [f"{k}.5"]),
}


def _with_first(fields, text):
    return [text] + fields[1:]


def _with_last(fields, text):
    return fields[:-1] + [text]


# each case turns the second row into its bad line and may put lines before it
CSV_CASES = {
    "bad-float": lambda row: ([], _with_last(row, "oops")),
    "wrong-width": lambda row: ([], row + ["1.0"]),
    "nan": lambda row: ([], _with_first(row, "nan")),
    "inf": lambda row: ([], _with_last(row, "inf")),
    "whitespace-line": lambda row: ([" \t "], _with_last(row, "1..0")),
    "blank-line": lambda row: ([""], _with_first(row, "-inf")),
    "comment": lambda row: ([], _with_last(row, "1#2")),
    "quoted": lambda row: ([], _with_first(row, '"1"')),
}


CSV_HELPERS = ["_lines", "_nonblank_lines", "_read_csv", "_read_csv_lines", "_read_text"]


def csv_helpers_used(source):
    """(line, name) for each import or attribute use of an ``operators`` CSV
    helper in this module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        found += [(node.lineno, name) for name in names if name in CSV_HELPERS]
    return sorted(found)


class TestCsvReaders:
    """One text format behind the matrix and sequence readers: every
    rejected row is reported at its file line, blank lines included."""

    @pytest.mark.parametrize("case", CSV_CASES)
    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_bad_row_names_file_line(self, tmp_path, reader, case):
        read, head, row = CSV_READERS[reader]
        before, bad = CSV_CASES[case](row(1))
        lines = head + [",".join(row(0))] + before + [",".join(bad)]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}:{len(lines)}: ")

    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_well_formed_file_takes_one_pass(self, tmp_path, monkeypatch, reader):
        read, head, row = CSV_READERS[reader]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(head + [",".join(row(0)), " , ".join(row(1))]) + "\n")

        def per_line(*args):
            raise AssertionError("a well-formed file reached the per-line reader")

        monkeypatch.setattr(operators, "_read_csv_lines", per_line)
        read(path)

    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_float_only_spelling_takes_per_line_reader(self, tmp_path, monkeypatch, reader):
        read, head, row = CSV_READERS[reader]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(head + [",".join(row(0)), ",".join(_with_last(row(1), "1_0"))]))
        calls = []
        per_line = operators._read_csv_lines
        monkeypatch.setattr(operators, "_read_csv_lines",
                            lambda *args: calls.append(args) or per_line(*args))
        read(path)
        assert len(calls) == 1

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("\n \n")
        with pytest.raises(ParseError, match=r"in\.csv: empty sequence$"):
            seq_from_csv(path)

    def test_one_module_owns_the_format(self):
        # a module that reads CSV goes through the public readers of operators
        found = [f"{path.name}:{line}: {name}"
                 for path in sorted((SRC / "strongfactor").glob("*.py"))
                 if path.name != "operators.py"
                 for line, name in csv_helpers_used(path.read_text(encoding="utf-8"))]
        assert found == []

    @pytest.mark.parametrize("name", CSV_HELPERS)
    def test_guard_finds_each_helper(self, name):
        source = f"from .operators import {name}\nfrom . import operators\noperators.{name}(p)\n"
        assert csv_helpers_used(source) == [(1, name), (3, name)]

    def test_grid_functions_imports_nothing_from_operators(self):
        tree = ast.parse((SRC / "strongfactor" / "grid_functions.py").read_text(encoding="utf-8"))
        modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        assert "operators" not in modules and "strongfactor.operators" not in modules
        assert not any(alias.name == "operators" for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names)


def reference_read_csv(path, width, lines):
    """What ``_read_csv`` must return for these lines: one ``float()`` per
    field, each row checked for width before it is converted, then the first
    non-finite entry in row-major order reported."""
    rows = []
    for k, text in lines:
        fields = text.split(",")
        if len(fields) != width:
            raise ParseError(f"{path}:{k}: expected {width} values, found {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}:{k}: {exc}") from None
    for (k, _), row in zip(lines, rows):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ParseError(f"{path}:{k}: non-finite value {v!r} in column {j + 1}")
    return np.array(rows, dtype=float).reshape(len(rows), width)


# field spellings: numpy's parser accepts some of these, float() more of them
CSV_FIELD_ODD = [
    "2.4703282292062328e-324", "2.4703282292062327e-324", "-2.4703282292062328e-324",
    "7.4109846876186982e-324", "2.2250738585072011e-308", "1.7976931348623158e308",
    "1.7976931348623159e308", "-0.0", "0", "+0e0", "1.", ".5", "1E5", "-1e-5",
    "1_0", "1_000.5", "\u0661", "\u0661.\u0665", "\u0969e2",
    "inf", "-inf", "+Infinity", "iNF", "nan", "-nan", "+NaN", "1e500", "-1e500", "1e-500",
    "", "oops", "1#2", '"1"', "0x1p3", "1 2", "1e", ".", "-", "nan(1)", "infinit", "1__0",
]
CSV_PAD = st.sampled_from(["", " ", "\t", "\xa0", " \t\xa0", "\u2000"])
CSV_LONG_DECIMAL = st.from_regex(r"-?[0-9]{1,40}\.[0-9]{1,60}(e-?[0-9]{1,3})?", fullmatch=True)


@st.composite
def csv_file(draw):
    """(width, lines) as ``_nonblank_lines`` gives them: a file's stripped,
    nonblank lines with their 1-based numbers.  Most rows are shortest reprs,
    with a few fields swapped for other spellings and a few rows, or every
    row, one field too wide or too narrow."""
    width = draw(st.integers(1, 4))
    file_width = max(1, width + draw(st.sampled_from([0, 0, 0, -1, 1])))
    sizes = st.sampled_from([file_width] * 6 + [file_width + 1, max(1, file_width - 1)])
    shortest = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    commented = st.builds("{}#{}".format, shortest, shortest)  # no comments in CSV
    other = st.one_of(shortest, CSV_LONG_DECIMAL, commented, st.sampled_from(CSV_FIELD_ODD))
    other = st.tuples(CSV_PAD, other, CSV_PAD).map("".join)
    lines, k = [], 0
    for _ in range(draw(st.integers(0, 5))):
        k += draw(st.integers(1, 2))
        n = draw(sizes)
        fields = draw(st.lists(shortest, min_size=n, max_size=n))
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            fields[draw(st.integers(0, n - 1))] = draw(other)
        if text := ",".join(fields).strip():
            lines.append((k, text))
    return width, lines


class TestCsvParse:
    """``_read_csv`` against one ``float()`` per field: identical bits, sign
    included, or the identical error, whichever path parsed the file."""

    @staticmethod
    def outcome(read, width, lines):
        try:
            out = read("in.csv", width, lines)
        except ParseError as exc:
            return str(exc)
        return out.shape, out.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(csv_file())
    @example((2, [(1, "1_0,2"), (2, "-0.0, 2.4703282292062328e-324")]))
    @example((2, [(1, "\u0661,1"), (3, "-0.0\t,\xa01")]))
    @example((2, [(1, "1,2,"), (2, "1,nan")]))
    @example((1, [(1, "1e500")]))
    @example((3, [(2, "1,,3")]))
    @example((1, []))
    @example((2, [(1, "1,1#2")]))  # a comment character would drop "#2"
    @example((2, [(1, "1"), (2, "2")]))  # every row one field short
    @example((1, [(1, "1,2")]))
    def test_matches_per_field_float(self, case):
        width, lines = case
        assert (self.outcome(_read_csv, width, lines)
                == self.outcome(reference_read_csv, width, lines))


class TestLines:
    """The readers see a file's lines as ``open(path, encoding="utf-8")``
    does: the same numbers and texts, whatever ends the lines."""

    @settings(deadline=None, max_examples=200)
    @given(st.text(alphabet="\r\n \t\x0b\x0c\x1c\x85\u2028\xa0\ufeffa,1\xe9", max_size=40))
    @example("N=2\r\n1,0\r0,1\n\r\n")
    @example("a\r")
    def test_matches_text_mode(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "lines.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = [(k, t) for k, ln in enumerate(fh, start=1) if (t := ln.strip())]
        with open(path, encoding="utf-8") as fh:
            whole = fh.read()
        assert operators._nonblank_lines(path) == expected
        assert operators._read_text(path) == whole

    @pytest.mark.parametrize("data, line", [(b"\xff", 1), (b"N=2\r\n1,0\r0,\xff\n", 3),
                                            (b"1\n\n\xe9t\xc3\n", 3)])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, data, line):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        for read in (operators._nonblank_lines, operators._read_text):
            with pytest.raises(ParseError) as info:
                read(path)
            assert str(info.value) == f"{path}:{line}: not valid UTF-8"


CACHE_N = 16  # the cache's threshold is lowered to the size of such a file


def forbidden(*args):
    raise AssertionError("the file was parsed")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """The matrix cache's directory, under a fresh XDG_CACHE_HOME."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "strongfactor"


def write_matrix(path, n):
    entries = np.random.default_rng(11).standard_normal((n, n))
    matrix_to_csv(MatrixOp(entries, lp_space(2), lp_space(2)), path)
    return path


@pytest.fixture
def large_csv(tmp_path, monkeypatch):
    """A dense full-precision N = 16 CSV, with the cache's threshold at its size."""
    path = write_matrix(tmp_path / "a.csv", CACHE_N)
    monkeypatch.setattr(operators, "_CACHE_MIN_BYTES", path.stat().st_size)
    return path


def npy_bytes(arr) -> bytes:
    out = io.BytesIO()
    np.save(out, arr)
    return out.getvalue()


def changed_copy(path, dest, digit=1):
    """dest with path's bytes, the last digit of the last field moved by digit."""
    data = bytearray(path.read_bytes())
    assert chr(data[-2]).isdigit()
    data[-2] = ord("0") + (data[-2] - ord("0") + digit) % 10
    dest.write_bytes(bytes(data))
    return dest


def entry_name(path, source=Path(operators.__file__)) -> str:
    """The file's length, then BLAKE2b of the entry format, numpy's version,
    the reader's source and the file."""
    data = path.read_bytes()
    key = operators._CACHE_TAG + np.__version__.encode() + b"\n" + source.read_bytes() + data
    return f"{len(data)}-{hashlib.blake2b(key, digest_size=32).hexdigest()}.npy"


class TestMatrixCache:
    """A matrix CSV of at least ``_CACHE_MIN_BYTES`` is parsed once per
    content, and every read gives the parse's bits, whatever the cache holds."""

    def test_cold_and_warm_reads_give_the_parse(self, large_csv, cache_dir, monkeypatch):
        parsed = operators._parse_matrix_csv(large_csv)
        cold = matrix_from_csv(large_csv).entries
        assert [p.name for p in cache_dir.iterdir()] == [entry_name(large_csv)]
        monkeypatch.setattr(operators, "_read_csv", forbidden)
        warm = matrix_from_csv(large_csv).entries
        assert cold.tobytes() == parsed.tobytes() == warm.tobytes()
        assert warm.flags.owndata and not warm.flags.writeable

    def test_one_changed_byte_misses(self, large_csv, cache_dir, tmp_path):
        first = matrix_from_csv(large_csv).entries
        other = changed_copy(large_csv, tmp_path / "b.csv")
        second = matrix_from_csv(other).entries
        assert second.tobytes() == operators._parse_matrix_csv(other).tobytes()
        assert second[-1, -1] != first[-1, -1]
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
            [entry_name(large_csv), entry_name(other)])

    def test_length_no_entry_has_is_hashed_once(self, large_csv, cache_dir, tmp_path,
                                                 monkeypatch):
        """No lookup: only the parse hashes the file."""
        matrix_from_csv(large_csv)
        longer = tmp_path / "b.csv"
        longer.write_bytes(large_csv.read_bytes() + b"\n")  # a blank line: the same matrix
        monkeypatch.setattr(operators, "_hex_digest", forbidden)
        assert matrix_from_csv(longer).entries.tobytes() == (
            operators._parse_matrix_csv(large_csv).tobytes())
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
            [entry_name(large_csv), entry_name(longer)])

    def test_another_reader_misses(self, large_csv, cache_dir, tmp_path, monkeypatch):
        """An edit of the reader's module, one byte even, keys every file anew:
        the read misses, and stores a second entry."""
        matrix_from_csv(large_csv)
        source = tmp_path / "operators.py"
        source.write_bytes(Path(operators.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(operators, "__file__", str(source))
        assert matrix_from_csv(large_csv).entries.tobytes() == (
            operators._parse_matrix_csv(large_csv).tobytes())
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
            [entry_name(large_csv), entry_name(large_csv, source)])

    def test_unreadable_reader_source_parses(self, large_csv, cache_dir, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(operators, "__file__", str(tmp_path / "gone.py"))
        assert matrix_from_csv(large_csv).entries.tobytes() == (
            operators._parse_matrix_csv(large_csv).tobytes())
        assert not cache_dir.exists()

    # each turns a good entry's bytes into a bad one's
    BAD_ENTRIES = {
        "truncated": lambda good: good[:len(good) // 2],
        "padded": lambda good: good + b"\0",
        "garbage": lambda good: b"not an entry\n" * 100,
        "empty": lambda good: b"",
        "wrong-shape": lambda good: npy_bytes(np.zeros((CACHE_N - 1, CACHE_N - 1))),
        "not-square": lambda good: npy_bytes(np.zeros((CACHE_N, CACHE_N - 1))),
        "same-size-other-shape": lambda good: npy_bytes(
            np.load(io.BytesIO(good)).reshape(CACHE_N // 2, 2 * CACHE_N)),
        "fortran-order": lambda good: npy_bytes(np.asfortranarray(np.load(io.BytesIO(good)))),
        "big-endian": lambda good: npy_bytes(np.load(io.BytesIO(good)).astype(">f8")),
        "float32": lambda good: npy_bytes(np.load(io.BytesIO(good)).astype(np.float32)),
        "non-finite": lambda good: npy_bytes(np.where(np.eye(CACHE_N) > 0, np.nan,
                                                      np.load(io.BytesIO(good)))),
    }

    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_bad_entry_is_parsed_again_and_replaced(self, large_csv, cache_dir, case):
        parsed = matrix_from_csv(large_csv).entries
        entry = cache_dir / entry_name(large_csv)
        good = entry.read_bytes()
        entry.write_bytes(self.BAD_ENTRIES[case](good))
        assert matrix_from_csv(large_csv).entries.tobytes() == parsed.tobytes()
        assert entry.read_bytes() == good

    def test_failed_parse_stores_nothing(self, large_csv, cache_dir):
        text = large_csv.read_text()
        large_csv.write_text(text[:text.rindex(",") + 1] + "oops\n")
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                matrix_from_csv(large_csv)
            assert str(info.value) == (f"{large_csv}:{CACHE_N + 1}: "
                                       "could not convert string to float: 'oops'")
        assert not cache_dir.exists()

    @pytest.mark.parametrize("n, hashed", [(8, False), (384, True)])
    def test_threshold_in_a_fresh_interpreter(self, cache_dir, tmp_path, n, hashed):
        """At the real threshold: an N = 8 file is not hashed and an N = 384
        one, above 1 MiB, is; neither loads ``hashlib``, and so OpenSSL."""
        path = write_matrix(tmp_path / "m.csv", n)
        assert (path.stat().st_size >= operators._CACHE_MIN_BYTES) is hashed
        code = ("import sys; from strongfactor.operators import matrix_from_csv; "
                f"matrix_from_csv({str(path)!r}); "
                "print('_blake2' in sys.modules, 'hashlib' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{hashed} False\n", "")
        assert cache_dir.exists() is hashed

    def test_least_recently_used_goes_first(self, large_csv, cache_dir, tmp_path,
                                            monkeypatch):
        files = [large_csv] + [changed_copy(large_csv, tmp_path / f"{d}.csv", d)
                               for d in (1, 2)]
        size = 128 + 8 * CACHE_N ** 2  # a version 1.0 .npy header, then the entries
        monkeypatch.setattr(operators, "_CACHE_MAX_BYTES", 2 * size + size // 2)
        first, second, third = (cache_dir / entry_name(f) for f in files)
        for f in files[:2]:
            matrix_from_csv(f)
        leftover = cache_dir / "killed-writer.tmp"  # counted, and older than any entry
        leftover.write_bytes(b"\0" * (size // 4))
        now = time.time()
        os.utime(leftover, (now - 300, now - 300))
        os.utime(first, (now - 200, now - 200))
        os.utime(second, (now - 100, now - 100))
        with monkeypatch.context() as patched:
            patched.setattr(operators, "_read_csv", forbidden)
            matrix_from_csv(files[0])  # a hit: the first entry is now the most recent
        matrix_from_csv(files[2])
        assert sorted(cache_dir.iterdir()) == sorted([first, third])
        assert sum(p.stat().st_size for p in cache_dir.iterdir()) <= 2 * size + size // 2
        assert first.stat().st_size == size

    def test_array_above_the_bound_is_not_stored(self, large_csv, cache_dir, monkeypatch):
        monkeypatch.setattr(operators, "_CACHE_MAX_BYTES", 8 * CACHE_N ** 2 - 1)
        parsed = operators._parse_matrix_csv(large_csv)
        assert matrix_from_csv(large_csv).entries.tobytes() == parsed.tobytes()
        assert not cache_dir.exists()


class TestCsvWriters:
    """The writers' bytes match per-entry ``repr(float(v))`` formatting."""

    @staticmethod
    def values():
        rng = np.random.default_rng(5)
        special = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
        scaled = rng.standard_normal(28) * 10.0 ** rng.integers(-300, 300, 28)
        return np.concatenate([special, -np.array(special), rng.standard_normal(28), scaled])

    def test_matrix_bytes(self, tmp_path):
        entries = self.values().reshape(8, 8)
        path = tmp_path / "m.csv"
        matrix_to_csv(MatrixOp(entries, lp_space(2), lp_space(2)), path)
        reference = "N=8\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                       for row in entries)
        assert path.read_text() == reference
        assert np.array_equal(matrix_from_csv(path).entries, entries)

    def test_seq_bytes(self, tmp_path):
        coeffs = self.values()
        path = tmp_path / "s.csv"
        seq_to_csv(TruncatedSeq(coeffs), path)
        assert path.read_text() == "".join(repr(float(v)) + "\n" for v in coeffs)
        assert np.array_equal(seq_from_csv(path).coeffs, coeffs)


class TestJson:
    """``to_json`` lists the same Python floats as per-entry ``float(v)``."""

    values = staticmethod(TestCsvWriters.values)

    def test_matrix_entries(self):
        op = MatrixOp(self.values().reshape(8, 8), lp_space(2), lp_space(2))
        reference = [[float(v) for v in row] for row in op.entries]
        assert json.dumps(op.to_json()["entries"]) == json.dumps(reference)

    def test_seq_coeffs(self):
        x = TruncatedSeq(self.values())
        reference = [float(v) for v in x.coeffs]
        assert json.dumps(x.to_json()["coeffs"]) == json.dumps(reference)


def built_ops(tmp_path):
    """One MatrixOp from every constructor in the module that returns one."""
    a = cesaro_matrix(4)
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
    matrix_to_csv(a, csv_path)
    json_path.write_text(json.dumps(a.to_json()))
    return {
        "cesaro_matrix": a,
        "factorable_matrix": factorable_matrix(ones(4), ones(4), j0=2),
        "matrix_from_csv": matrix_from_csv(csv_path),
        "matrix_from_json_file": matrix_from_json_file(json_path),
        "MatrixOp(list)": MatrixOp([[1.0, 2.0], [3.0, 4.0]], lp_space(2), lp_space(2)),
    }


class TestOwnership:
    """A ``MatrixOp`` keeps a read-only array that owns its memory and copies
    every other input."""

    def test_caller_array_is_copied(self):
        arr = np.eye(3)
        op = MatrixOp(arr, lp_space(2), lp_space(2))
        arr[0, 1] = 7.0
        assert op.entries is not arr
        assert op.entries[0, 1] == 0.0

    def test_read_only_view_is_copied(self):
        base = np.eye(4)
        view = base[:3, :3]
        view.flags.writeable = False
        op = MatrixOp(view, lp_space(2), lp_space(2))
        base[0, 1] = 7.0
        assert op.entries[0, 1] == 0.0

    def test_read_only_owner_is_kept(self):
        arr = np.eye(3)
        arr.flags.writeable = False
        assert MatrixOp(arr, lp_space(2), lp_space(2)).entries is arr
        fortran = np.asfortranarray(np.arange(4.0).reshape(2, 2))
        fortran.flags.writeable = False
        kept = MatrixOp(fortran, lp_space(2), lp_space(2)).entries
        assert kept.flags.c_contiguous and np.array_equal(kept, fortran)

    def test_read_only_owner_is_still_validated(self):
        arr = np.array([[1.0, np.inf], [0.0, 1.0]])
        arr.flags.writeable = False
        with pytest.raises(SpecError):
            MatrixOp(arr, lp_space(2), lp_space(2))
        arr = np.ones((2, 3))
        arr.flags.writeable = False
        with pytest.raises(SizeMismatch):
            MatrixOp(arr, lp_space(2), lp_space(2))

    def test_every_constructor_returns_read_only_entries(self, tmp_path):
        writable = [name for name, op in built_ops(tmp_path).items()
                    if op.entries.flags.writeable]
        assert writable == []

    def test_perturb_entry_leaves_source(self):
        # only the block that holds the entry is copied; the others are views
        n = block_sizes()[-1]
        a = MatrixOp(np.random.default_rng(n).standard_normal((n, n)), lp_space(2), lp_space(2))
        before = a.entries.copy()
        out = perturb_entry(a, n, 1, 0.5)
        x = np.random.default_rng(0).standard_normal(n)
        dense = out.rows(0, n)
        scale = np.abs(dense)
        assert np.all(np.abs(out.matvec(x) - dense @ x) <= 1e-12 * (scale @ np.abs(x)))
        assert np.all(np.abs(out.rmatvec(x) - x @ dense) <= 1e-12 * (np.abs(x) @ scale))
        blocks = [(lo, hi, out.rows(lo, hi)) for lo, hi in operators._block_bounds(n)]
        assert len(blocks) >= 2
        assert a.entries.tobytes() == before.tobytes()
        for lo, hi, rows in blocks:
            assert np.shares_memory(rows, a.entries) == (hi < n)
        assert dense[n - 1, 0] == before[n - 1, 0] + 0.5
        assert not np.shares_memory(dense, a.entries)

    def test_sandwich_overflow_is_spec_error(self):
        big = TruncatedSeq(np.full(3, 1e200))
        with np.errstate(over="ignore"), pytest.raises(SpecError, match="finite"):
            diagonal_sandwich(big, identity_matrix(3), big)


#: every constructor of an operator that stores no entries, at size 4
IMPLICIT_OPS = {
    "CesaroOp": lambda: CesaroOp(4),
    "identity_matrix": lambda: identity_matrix(4),
    "random_lower_triangular": lambda: random_lower_triangular(4, seed=1),
    "perturb_entry": lambda: perturb_entry(CesaroOp(4), 1, 2, 0.5),
    "diagonal_sandwich": lambda: diagonal_sandwich(ones(4), CesaroOp(4), ones(4)),
}


def entries_reads(source):
    """The line of each use of an attribute named ``entries`` in this module
    source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "entries")


class TestOneReadPath:
    """``rows(lo, hi)`` is the one way to read an operator that stores no
    entries: only a ``MatrixOp`` has ``.entries``, and only ``operators``
    reads it."""

    @pytest.mark.parametrize("make", IMPLICIT_OPS.values(), ids=IMPLICIT_OPS.keys())
    def test_implicit_kinds_have_no_entries(self, make):
        assert not hasattr(make(), "entries")

    def test_only_operators_reads_entries(self):
        found = [f"{path.name}:{line}"
                 for path in sorted((SRC / "strongfactor").glob("*.py"))
                 if path.name != "operators.py"
                 for line in entries_reads(path.read_text(encoding="utf-8"))]
        assert found == []

    def test_guard_finds_each_read(self):
        source = "a = op.entries\nb = np.asarray(op.rows(0, n))\nc = f(x).entries[0]\n"
        assert entries_reads(source) == [1, 3]


class TestConstructorMemory:
    """A constructor holds its fresh N x N array and a boolean scan of it,
    never a second float copy."""

    N = 1024

    @pytest.mark.parametrize("name", ["cesaro_matrix", "identity_matrix",
                                      "diagonal_sandwich", "diagonal_sandwich(CesaroOp)",
                                      "perturb_entry", "perturb_entry(diagonal_sandwich)"])
    def test_peak_below_one_and_a_quarter_matrices(self, name, traced_peak):
        n = self.N
        a, h = cesaro_matrix(n), TruncatedSeq(1.0 / np.arange(1, n + 1))
        build = {
            "cesaro_matrix": lambda: cesaro_matrix(n),
            "identity_matrix": lambda: identity_matrix(n),
            "diagonal_sandwich": lambda: diagonal_sandwich(h, a, h),
            "diagonal_sandwich(CesaroOp)": lambda: diagonal_sandwich(h, CesaroOp(n), h),
            "perturb_entry": lambda: perturb_entry(a, n, 1, 1e-3),
            "perturb_entry(diagonal_sandwich)":
                lambda: perturb_entry(diagonal_sandwich(h, CesaroOp(n), h), n, 1, 1e-3),
        }[name]
        assert traced_peak(build) < 1.25 * 8 * n * n
