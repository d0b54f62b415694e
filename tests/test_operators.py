import json
from fractions import Fraction

import numpy as np
import pytest

from strongfactor.errors import LengthMismatch, ParseError, SizeMismatch, SpecError
from strongfactor.exponents import Exponent, conjugate
from strongfactor.grid_functions import composite_gauss_legendre, grid_from_csv
from strongfactor.operators import (
    MatrixOp,
    apply,
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


class TestApply:
    def test_constant_sequence_fixed_point(self):
        out = apply(cesaro_matrix(5), ones(5))
        assert np.allclose(out.coeffs, 1.0)

    def test_first_unit_vector_gives_harmonic(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        out = apply(cesaro_matrix(4), TruncatedSeq(e1))
        assert np.allclose(out.coeffs, [1.0, 0.5, 1 / 3, 0.25])

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = TruncatedSeq(rng.standard_normal(7))
        assert np.array_equal(apply(identity_matrix(7), x).coeffs, x.coeffs)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply(cesaro_matrix(3), ones(4))


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
        left = apply(diagonal_sandwich(g, op, h), x).coeffs
        right = g.coeffs * apply(op, TruncatedSeq(h.coeffs * x.coeffs)).coeffs
        assert np.allclose(left, right, atol=1e-14)


class TestNormEstimate:
    def test_identity_at_least_one(self):
        assert operator_norm_estimate(identity_matrix(10), trials=4, seed=0) >= 1 - 1e-12

    def test_diagonal_spectral_norm(self):
        op = diagonal_sandwich(TruncatedSeq([3.0, 1.0]), identity_matrix(2),
                               TruncatedSeq([1.0, 1.0]))
        assert operator_norm_estimate(op, trials=8, seed=0) == pytest.approx(3.0, abs=1e-6)

    def test_cesaro_truncation_norm(self):
        # the truncated norm stays below the limiting constant 2 and matches
        # a direct SVD; at N = 256 it sits near 1.686
        op = cesaro_matrix(256)
        est = operator_norm_estimate(op, trials=8, seed=0)
        oracle = float(np.linalg.svd(np.asarray(op.entries), compute_uv=False)[0])
        assert est == pytest.approx(oracle, abs=1e-9)
        assert est <= 2.0
        assert est == pytest.approx(1.6864274, abs=1e-6)

    def test_lower_bound_only_for_general_exponents(self):
        op = cesaro_matrix(32, Exponent(3))
        est = operator_norm_estimate(op, trials=32, seed=1)
        assert 0.9 <= est <= float(conjugate(Exponent(3)))


class TestHardyInequality:
    @pytest.mark.parametrize("p", [Fraction(4, 3), 2, 3])
    def test_bound_with_conjugate_constant(self, p):
        rng = np.random.default_rng(6)
        op = cesaro_matrix(256)
        pe = Exponent(p)
        bound = float(conjugate(pe))
        for _ in range(20):
            x = TruncatedSeq(np.abs(rng.standard_normal(256)))
            assert lp_norm(apply(op, x), pe) <= bound * lp_norm(x, pe) * (1 + 1e-12)


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
                                      "diagonal_sandwich", "perturb_entry"])
    def test_peak_below_one_and_a_quarter_matrices(self, name, traced_peak):
        n = self.N
        a, h = cesaro_matrix(n), TruncatedSeq(1.0 / np.arange(1, n + 1))
        build = {
            "cesaro_matrix": lambda: cesaro_matrix(n),
            "identity_matrix": lambda: identity_matrix(n),
            "diagonal_sandwich": lambda: diagonal_sandwich(h, a, h),
            "perturb_entry": lambda: perturb_entry(a, n, 1, 1e-3),
        }[name]
        assert traced_peak(build) < 1.25 * 8 * n * n
