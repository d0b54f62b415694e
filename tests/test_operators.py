import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from strongfactor.errors import LengthMismatch, ParseError, SizeMismatch, SpecError
from strongfactor.exponents import Exponent, conjugate
from strongfactor.grid_functions import composite_gauss_legendre, grid_from_csv
from strongfactor.operators import (
    _BLOCK_ENTRIES,
    CesaroOp,
    MatrixOp,
    NormEstimate,
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
            s = op.entries
        got = diagonal_sandwich(TruncatedSeq(g), op, TruncatedSeq(h)).entries
        assert got.tobytes() == reference_sandwich(g, s, h).tobytes()
        assert not got.flags.writeable

    def test_spaces_and_size(self):
        op = CesaroOp(5)
        assert op.n == 5 and op.domain == op.codomain == lp_space(2)
        assert cesaro_matrix(5).domain == op.domain
        with pytest.raises(SpecError, match="matrix size must be >= 1"):
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
        assert np.array_equal(diagonal_sandwich(ones(5), op, ones(5)).entries,
                              op.entries)

    def test_diagonal_product(self):
        out = diagonal_sandwich(TruncatedSeq([1.0, 2.0]), identity_matrix(2),
                                TruncatedSeq([3.0, 4.0]))
        assert np.allclose(out.entries, [[3.0, 0.0], [0.0, 8.0]])

    def test_cesaro_entries(self):
        rng = np.random.default_rng(1)
        g = TruncatedSeq(rng.standard_normal(6))
        h = TruncatedSeq(rng.standard_normal(6))
        out = diagonal_sandwich(g, cesaro_matrix(6), h)
        for i in range(1, 7):
            for j in range(1, 7):
                expected = g.coeffs[i - 1] * h.coeffs[j - 1] / i if j <= i else 0.0
                assert out.entries[i - 1, j - 1] == pytest.approx(expected, abs=1e-15)

    def test_matches_entrywise_application(self):
        rng = np.random.default_rng(2)
        g = TruncatedSeq(rng.standard_normal(8))
        h = TruncatedSeq(rng.standard_normal(8))
        x = TruncatedSeq(rng.standard_normal(8))
        op = cesaro_matrix(8)
        left = diagonal_sandwich(g, op, h).matvec(x.coeffs)
        right = g.coeffs * op.matvec(h.coeffs * x.coeffs)
        assert np.allclose(left, right, atol=1e-14)


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
        assert np.array_equal(back.entries, op.entries)

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

    def test_matrix_must_be_square(self, tmp_path):
        with pytest.raises(SizeMismatch):
            MatrixOp(np.ones((2, 3)), lp_space(2), lp_space(2))
        with pytest.raises(SizeMismatch):
            identity_matrix(0)
        path = tmp_path / "empty.csv"
        path.write_text("N=0\n")
        with pytest.raises(SizeMismatch):
            matrix_from_csv(path)

    def test_perturb_entry_bounds(self):
        op = cesaro_matrix(3)
        out = perturb_entry(op, 1, 3, 0.5)
        assert out.entries[0, 2] == 0.5
        assert op.entries[0, 2] == 0.0


GRID_RULE = composite_gauss_legendre(-1.0, 1.0, panels=1, order=2)

# reader, the lines ahead of the rows, and row k as a list of fields
CSV_READERS = {
    "matrix": (matrix_from_csv, ["N=2"], lambda k: [f"{k}.5", "0.25"]),
    "seq": (seq_from_csv, [], lambda k: [f"{k}.5"]),
    "grid": (lambda path: grid_from_csv(path, GRID_RULE), [],
             lambda k: [repr(float(GRID_RULE.nodes[k])), "0.25"]),
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
}


class TestCsvReaders:
    """One text format behind the matrix, sequence and grid readers: every
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
    """One MatrixOp from every constructor in the module."""
    a = cesaro_matrix(4)
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
    matrix_to_csv(a, csv_path)
    json_path.write_text(json.dumps(a.to_json()))
    return {
        "cesaro_matrix": a,
        "identity_matrix": identity_matrix(4),
        "random_lower_triangular": random_lower_triangular(4, seed=1),
        "factorable_matrix": factorable_matrix(ones(4), ones(4), j0=2),
        "perturb_entry": perturb_entry(a, 1, 2, 0.5),
        "diagonal_sandwich": diagonal_sandwich(ones(4), a, ones(4)),
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
        a = cesaro_matrix(5)
        before = a.entries.copy()
        out = perturb_entry(a, 1, 5, 0.5)
        assert np.array_equal(a.entries, before)
        assert out.entries[0, 4] == 0.5 and not np.shares_memory(out.entries, a.entries)

    def test_sandwich_overflow_is_spec_error(self):
        big = TruncatedSeq(np.full(3, 1e200))
        with np.errstate(over="ignore"), pytest.raises(SpecError, match="finite"):
            diagonal_sandwich(big, identity_matrix(3), big)


class TestConstructorMemory:
    """A constructor holds its fresh N x N array and a boolean scan of it,
    never a second float copy."""

    N = 1024

    @pytest.mark.parametrize("name", ["cesaro_matrix", "identity_matrix",
                                      "diagonal_sandwich", "diagonal_sandwich(CesaroOp)",
                                      "perturb_entry"])
    def test_peak_below_one_and_a_quarter_matrices(self, name, traced_peak):
        n = self.N
        a, h = cesaro_matrix(n), TruncatedSeq(1.0 / np.arange(1, n + 1))
        build = {
            "cesaro_matrix": lambda: cesaro_matrix(n),
            "identity_matrix": lambda: identity_matrix(n),
            "diagonal_sandwich": lambda: diagonal_sandwich(h, a, h),
            "diagonal_sandwich(CesaroOp)": lambda: diagonal_sandwich(h, CesaroOp(n), h),
            "perturb_entry": lambda: perturb_entry(a, n, 1, 1e-3),
        }[name]
        assert traced_peak(build) < 1.25 * 8 * n * n
