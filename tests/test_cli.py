import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strongfactor import cli, operators
from strongfactor.operators import (
    CesaroOp,
    MatrixOp,
    cesaro_matrix,
    diagonal_sandwich,
    matrix_to_csv,
    seq_to_csv,
)
from strongfactor.exponents import Exponent
from strongfactor.seq_spaces import TruncatedSeq, lp_norm, lp_space

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, capsys=None):
    code = cli.main(args)
    return code


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def read_cert(path):
    return strict_json(path.read_text())


class TestCheckCesaro:
    def test_round_trip_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                    "--h", "ones", "--N", "64", "--p", "2", "--q", "2",
                    "--r", "2", "--out", str(out)])
        assert code == 0
        doc = read_cert(out)
        assert doc["verdict"] == "FACTORS"
        g = np.asarray(doc["g"]["coeffs"])
        assert np.abs(g - 1.0 / np.arange(1, 65)).max() < 1e-12
        assert "timestamp" in doc

    def test_identity_refutation_exits_one(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["check-cesaro", "--gen", "identity", "--h", "ones",
                    "--N", "8", "--p", "2", "--q", "2", "--r", "2",
                    "--out", str(out)])
        assert code == 1
        doc = read_cert(out)
        assert doc["verdict"] == "DOES_NOT_FACTOR"
        assert (doc["witness"]["i"], doc["witness"]["j"]) == (2, 2)

    def test_matrix_csv_ingestion(self, tmp_path):
        path = tmp_path / "identity.csv"
        with open(path, "w") as fh:
            fh.write("N=3\n1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        code = run(["check-cesaro", "--matrix", str(path), "--h", "ones",
                    "--N", "3", "--p", "2", "--q", "2", "--r", "2",
                    "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_perturbed_instance_flips(self, tmp_path):
        base = ["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                "--h", "ones", "--N", "16", "--p", "2", "--q", "2", "--r", "2",
                "--tol", "1e-6", "--out", str(tmp_path / "c.json")]
        assert run(base) == 0
        assert run(base + ["--perturb", "1,5,1e-3"]) == 1

    def test_missing_exponent_is_usage_error(self, tmp_path):
        code = run(["check-cesaro", "--gen", "identity", "--h", "ones",
                    "--N", "4", "--p", "2", "--q", "2"])
        assert code == 64

    def test_missing_exponent_is_named_before_the_matrix_is_read(self, tmp_path, capsys):
        code = run(["check-cesaro", "--matrix", str(tmp_path / "none.csv"), "--h", "ones",
                    "--p", "2"])
        assert code == 64
        assert "the following arguments are required: --q, --r" in capsys.readouterr().err

    def test_bad_exponent_is_reported_before_a_missing_file(self, tmp_path, capsys):
        code = run(["check-cesaro", "--matrix", str(tmp_path / "none.csv"), "--h", "ones",
                    "--p", "2", "--q", "2", "--r", "abc"])
        assert code == 64
        assert "abc" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--perturb", "1,x,1e-3"],
                                       ["--perturb", "1,2,abc"],
                                       ["--r", "abc"],
                                       ["--r", "1/0"],
                                       ["--tol", "nan"],
                                       ["--tol", "-1"]])
    def test_bad_value_is_usage_error(self, extra, capsys):
        args = ["check-cesaro", "--gen", "cesaro", "--h", "ones", "--N", "4",
                "--p", "2", "--q", "2", "--r", "2"]
        assert run(args + extra) == 64
        assert extra[1] in capsys.readouterr().err

    @pytest.mark.parametrize("gen", ["identity", "cesaro", "random-lower", "rank-one", "diag"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_size_below_one_is_usage_error(self, gen, n, capsys):
        code = run(["check-cesaro", "--gen", gen, "--g", "harmonic", "--h", "ones",
                    "--N", n, "--p", "2", "--q", "2", "--r", "2"])
        assert code == 64
        assert f"--N: must be at least 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, inputs, location", [
        ("m.csv", "N=2\n1.0,0.0\n\n0.0,nan\n", ["--matrix", "{}", "--h", "ones"], "m.csv:4"),
        ("h.csv", "1.0\n\ninf\n", ["--gen", "identity", "--h", "{}"], "h.csv:3"),
        ("m.json", '{"entries": [[1, "x"], [0, 1]], "domain": {"kind": "lp", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json"),
        ("m.json", '{"entries": [[1, 0], [0, 1]], "domain": {"kind": "lq", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json"),
        ("m.json", '{"entries": [[1, 0], [null, 1]], "domain": {"kind": "lp", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json: row 2, column 1"),
        ("m.json", '{"entries": [[1, NaN], [0, 1]], "domain": {"kind": "lp", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json: row 1, column 2"),
        ("m.json", '{"entries": [1, null], "domain": {"kind": "lp", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json: entries must be a square list of rows, got shape (2,)"),
        ("m.json", '{"entries": [[1, 0, 0], [0, 1, 0]], "domain": {"kind": "lp", "p": 2},'
                   ' "codomain": {"kind": "lp", "p": 2}}', ["--matrix", "{}", "--h", "ones"],
         "m.json: entries must be a square list of rows, got shape (2, 3)"),
    ], ids=["csv-nan", "h-csv-inf", "json-non-numeric", "json-unknown-kind", "json-null",
            "json-nan", "json-1d", "json-rect"])
    def test_malformed_file_is_parse_error(self, tmp_path, capsys, name, text,
                                           inputs, location):
        path = tmp_path / name
        path.write_text(text)
        args = ["check-cesaro", "--N", "2", "--p", "2", "--q", "2", "--r", "2"]
        assert run(args + [a.format(path) for a in inputs]) == 65
        assert location in capsys.readouterr().err

    def test_malformed_csv_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("not-a-header\n")
        code = run(["check-cesaro", "--matrix", str(path), "--h", "ones",
                    "--N", "2", "--p", "2", "--q", "2", "--r", "2"])
        assert code == 65
        assert "bad.csv" in capsys.readouterr().err

    def test_shifted_variant(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["check-cesaro-j0", "--gen", "rank-one", "--g", "ones",
                    "--h", "shift1:ones", "--N", "12", "--p", "2", "--q", "2",
                    "--r", "2", "--out", str(out)])
        assert code == 0
        doc = read_cert(out)
        assert doc["alpha"] is not None
        assert any("j0=2" in note for note in doc["notes"])

    @pytest.mark.parametrize("matrix, code", [
        (["--gen", "rank-one", "--g", "harmonic"], 0),
        (["--gen", "rank-one", "--g", "harmonic", "--perturb", "5,3,1e-3"], 1),
        (["--gen", "identity"], 1),
    ], ids=["rank-one", "perturbed", "identity"])
    @pytest.mark.parametrize("h", ["ones", "shift1:ones", "shift3:alt"])
    def test_both_spellings_decide_alike(self, tmp_path, capsys, matrix, code, h):
        # h_1 = 0 is decided under either name; the job echo alone differs
        outcomes = []
        for command in ("check-cesaro", "check-cesaro-j0"):
            out = tmp_path / f"{command}.json"
            got = run([command, *matrix, "--h", h, "--N", "12", "--p", "2", "--q", "2",
                       "--r", "2", "--no-timestamp", "--out", str(out)])
            echo = f'"command": "{command}"'.encode()
            cert = out.read_bytes()
            assert cert.count(echo) == 1
            outcomes.append((got, capsys.readouterr(), cert.replace(echo, b"")))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code

    def test_help_lists_the_other_name(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        assert "check-cesaro (check-cesaro-j0)" in capsys.readouterr().out


class TestCheckFourier:
    def test_diagonal_matrix(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["check-fourier", "--gen", "diag", "--g", "invsq",
                    "--N", "8", "--r", "2", "--p", "2", "--q", "2",
                    "--out", str(out)])
        assert code == 0
        doc = read_cert(out)
        assert doc["g_norm"]["value"] == pytest.approx(1.0)
        assert doc["g_norm"]["exponent"] == "inf"

    def test_exponent_out_of_hypotheses(self):
        code = run(["check-fourier", "--gen", "diag", "--g", "invsq",
                    "--N", "4", "--r", "3", "--p", "3", "--q", "2"])
        assert code == 64


class TestCheckMatrix:
    def test_through_cesaro(self, tmp_path):
        code = run(["check-matrix", "--gen", "rank-one", "--g", "harmonic",
                    "--h", "ones", "--N", "12", "--through", "cesaro",
                    "--out", str(tmp_path / "c.json")])
        assert code == 0

    def test_through_file(self, tmp_path):
        bpath = tmp_path / "b.csv"
        matrix_to_csv(cesaro_matrix(6), bpath)
        code = run(["check-matrix", "--gen", "rank-one", "--g", "ones",
                    "--h", "ones", "--N", "6", "--through", str(bpath),
                    "--out", str(tmp_path / "c.json")])
        assert code == 0


    def test_through_cesaro_holds_one_matrix(self, tmp_path, capsys, traced_peak):
        # at most A and a boolean finiteness scan of it; B is never built
        n = 1024
        argv = ["check-matrix", "--N", str(n), "--gen", "rank-one", "--g", "harmonic",
                "--h", "alt", "--through", "cesaro", "--no-timestamp",
                "--out", str(tmp_path / "c.json")]
        codes = []
        assert traced_peak(lambda: codes.append(run(argv))) < 1.5 * 8 * n * n
        assert codes == [0]

    def test_generated_sandwich_is_read_by_rows(self, tmp_path, capsys, traced_peak):
        # A = M_g C M_h is held as g, C and h, and made one row block at a time
        n = 2048
        argv = ["check-matrix", "--gen", "rank-one", "--N", str(n), "--g", "harmonic",
                "--h", "alt", "--through", "cesaro", "--no-timestamp",
                "--out", str(tmp_path / "c.json")]
        codes = []
        assert traced_peak(lambda: codes.append(run(argv))) < 0.1 * 8 * n * n
        assert codes == [0]

    def test_generated_cesaro_is_implicit(self, tmp_path, capsys, traced_peak):
        # --gen cesaro is CesaroOp(n), read by row blocks like --through cesaro
        n = 2048
        argv = ["check-cesaro", "--gen", "cesaro", "--h", "ones", "--N", str(n),
                "--p", "2", "--q", "2", "--r", "2", "--no-timestamp",
                "--out", str(tmp_path / "c.json")]
        codes = []
        assert traced_peak(lambda: codes.append(run(argv))) < 0.1 * 8 * n * n
        assert codes == [0]


class TestGeneratedOperatorsAreReadByRows:
    """No built-in operator, perturbed or not, is held as an N x N array:
    each check walks it by row blocks, so the whole job stays below half of
    one such array."""

    N = 1024
    P = ["--p", "2", "--q", "2"]
    JOBS = {
        "identity": ["check-fourier", "--r", "3/2", *P, "--gen", "identity"],
        "cesaro": ["check-cesaro", "--r", "2", *P, "--gen", "cesaro", "--h", "ones"],
        "random-lower": ["check-cesaro", "--r", "2", *P, "--gen", "random-lower",
                         "--h", "ones", "--seed", "3"],
        "rank-one": ["check-cesaro", "--r", "2", *P, "--gen", "rank-one", "--g", "harmonic",
                     "--h", "alt"],
        "diag": ["check-fourier", "--r", "3/2", *P, "--gen", "diag", "--g", "alt"],
    }

    @pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturbed"])
    @pytest.mark.parametrize("gen", JOBS)
    def test_peak_below_half_a_matrix(self, gen, perturb, tmp_path, capsys, traced_peak):
        n = self.N
        # the last row: the walk reaches it through every block before it
        argv = [*self.JOBS[gen], "--N", str(n), "--no-timestamp",
                "--out", str(tmp_path / "c.json"), *(["--perturb", f"{n},1,1e-3"] * perturb)]
        codes = []
        assert traced_peak(lambda: codes.append(run(argv))) < 0.5 * 8 * n * n
        assert codes[0] in (0, 1) and (tmp_path / "c.json").exists()


def run_python(args):
    """A fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_process(args):
    """The CLI in a fresh interpreter, so that whatever it writes to stderr,
    warnings included, is seen as a user sees it."""
    return run_python(["-m", "strongfactor", *args])


class TestOverflowingMultiplier:
    """An overflowing g_i or g_i b_ij h_j gives valid JSON or one error line,
    and no numpy warning."""

    EXPONENTS = ["--p", "2", "--q", "2", "--r", "2", "--no-timestamp"]

    @staticmethod
    def product_case(tmp_path, bump):
        """g_2 = 1e-3 / (h_1 / 2) = 2e297, and g_2 h_2 / 2 overflows."""
        ent = np.zeros((3, 3))
        ent[1, :2] = 1e-3, 1.0
        if bump:
            ent[0, 1] = 1.0  # a forced zero broken in row 1
        matrix, h = tmp_path / "a.csv", tmp_path / "h.csv"
        matrix_to_csv(MatrixOp(ent, lp_space(2), lp_space(2)), matrix)
        seq_to_csv(TruncatedSeq([1e-300, 1e20, 1.0]), h)
        return ["--matrix", str(matrix), "--h", str(h)]

    def test_product_overflow_is_one_error_line(self, tmp_path):
        done = run_process(["check-cesaro", *self.product_case(tmp_path, bump=False),
                            *self.EXPONENTS])
        assert done.returncode == 64
        assert done.stdout == ""
        assert done.stderr == ("error: recovered g_2 = 2e+297 times b_ij h_j "
                               "overflows the float range\n")

    def test_earlier_violation_gives_a_valid_certificate(self, tmp_path):
        done = run_process(["check-cesaro", *self.product_case(tmp_path, bump=True),
                            *self.EXPONENTS])
        assert done.returncode == 1
        assert done.stderr == ""
        summary, text = done.stdout.split("\n", 1)
        assert summary.startswith("DOES_NOT_FACTOR residual=1.000e+00 N=3")
        doc = strict_json(text)
        assert doc["witness"] == {"i": 1, "j": 2, "expected": 0.0, "actual": 1.0}
        assert doc["residual"] == 1.0

    def test_multiplier_overflow_is_one_error_line(self, tmp_path):
        h = tmp_path / "h.csv"
        hv = np.ones(300)
        hv[0] = 1e-300
        seq_to_csv(TruncatedSeq(hv), h)
        done = run_process(["check-cesaro", "--gen", "rank-one", "--g", "ones",
                            "--h", str(h), "--N", "300", "--perturb", "251,1,1e10",
                            *self.EXPONENTS])
        assert done.returncode == 64
        assert done.stderr == ("error: recovered g_251 = a_ij / (b_ij h_j) "
                               "overflows the float range\n")


class TestZeroRowInputs:
    """A CSV with no rows gives one error line and no numpy warning."""

    @pytest.mark.parametrize("text, inputs, code, err", [
        ("N=0\n", ["--matrix", "{}", "--h", "ones"], 65,
         "parse error: {}:1: size in header must be at least 1, got 'N=0'\n"),
        ("\n \n", ["--gen", "identity", "--h", "{}"], 65,
         "parse error: {}: empty sequence\n"),
    ], ids=["matrix-n0", "empty-h"])
    def test_one_error_line(self, tmp_path, text, inputs, code, err):
        path = tmp_path / "in.csv"
        path.write_text(text)
        done = run_process(["check-cesaro", "--N", "2", "--p", "2", "--q", "2", "--r", "2",
                            *(a.format(path) for a in inputs)])
        assert (done.returncode, done.stdout, done.stderr) == (code, "", err.format(path))


class TestNonFiniteNumbers:
    """A number beyond the float range is written "inf", so every certificate
    is valid JSON, and no numpy warning reaches stderr."""

    def test_overflowing_difference_writes_residual_inf(self, tmp_path):
        # g_1 = 1.5e308 is finite, but |a_12 - g_1 w_12| = 3e308 is not
        ent = np.array([[1.5e308, -1.5e308], [1.0, 1.0]])
        matrix, through, h = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "h.csv"
        matrix_to_csv(MatrixOp(ent, lp_space(2), lp_space(2)), matrix)
        matrix_to_csv(MatrixOp(np.ones((2, 2)), lp_space(2), lp_space(2)), through)
        seq_to_csv(TruncatedSeq([1.0, 1.0]), h)
        done = run_process(["check-matrix", "--matrix", str(matrix), "--through",
                            str(through), "--h", str(h), "--no-timestamp"])
        assert done.returncode == 1
        assert done.stderr == ""
        doc = strict_json(done.stdout.split("\n", 1)[1])
        assert doc["verdict"] == "DOES_NOT_FACTOR"
        assert doc["residual"] == "inf"
        assert doc["witness"] == {"i": 1, "j": 2, "expected": 1.5e308, "actual": -1.5e308}

    def test_overflowing_norm_writes_g_norm_inf(self, tmp_path):
        g = tmp_path / "g.csv"
        seq_to_csv(TruncatedSeq(np.full(4, 1.5e308)), g)
        done = run_process(["check-fourier", "--gen", "diag", "--g", str(g), "--N", "4",
                            "--r", "4/3", "--p", "2", "--q", "2", "--no-timestamp"])
        assert done.returncode == 0
        assert done.stderr == ""
        doc = strict_json(done.stdout.split("\n", 1)[1])
        assert doc["verdict"] == "FACTORS"
        assert doc["g_norm"] == {"value": "inf", "exponent": 4.0}

    def test_subnormal_h_certifies_without_warning(self, tmp_path):
        # the pivot w_21 = h_1 / 2 = 5e-323 puts g_2 beyond the float range:
        # certify reads the shape check's kernel, so both commands stop at the
        # same error line, with no numpy warning
        h = tmp_path / "h.csv"
        seq_to_csv(TruncatedSeq([1e-322, 1.0]), h)
        source = ["--gen", "rank-one", "--g", "alt", "--h", str(h), "--N", "2",
                  "--perturb", "2,1,1e-3", "--q", "2", "--r", "2", "--no-timestamp"]
        done = [run_process([cmd, *source, *extra])
                for cmd, extra in (("certify", []), ("check-cesaro", ["--p", "2"]))]
        for d in done:
            assert (d.returncode, d.stdout) == (64, "")
        assert done[0].stderr == done[1].stderr == (
            "error: recovered g_2 = a_ij / (b_ij h_j) overflows the float range\n")


class TestCertifierOverflow:
    """A certifier ratio beyond the float range is written "inf"; an LHS or
    RHS beyond it is one error line.  No numpy warning reaches stderr."""

    @staticmethod
    def seq(tmp_path, name, value):
        path = tmp_path / f"{name}.csv"
        seq_to_csv(TruncatedSeq(np.full(4, value)), path)
        return str(path)

    def test_overflowing_ratio_writes_inf(self, tmp_path):
        # LHS = 2.3e297 and RHS = 1.2e-11 are finite; their ratio is not
        done = run_process(["certify", "--form", "cesaro", "--gen", "rank-one",
                            "--g", self.seq(tmp_path, "g", 1.7e308),
                            "--h", self.seq(tmp_path, "h", 1e-11),
                            "--N", "4", "--r", "4", "--q", "2", "--no-timestamp"])
        assert (done.returncode, done.stderr) == (2, "")
        certifier = strict_json(done.stdout.split("\n", 1)[1])["certifier"]
        assert (certifier["c_hat"], certifier["c_hat_vertex"]) == ("inf", "inf")
        assert certifier["refuted"] is False
        assert 1e297 < certifier["lhs"] < 1e298 and 1e-11 < certifier["rhs"] < 1e-10

    @pytest.mark.parametrize("form, g, h, side", [
        ("cesaro", "ones", 1.7e308, "LHS"),
        ("cesaro", 1e-300, 1.7e308, "RHS"),
        ("fourier", 1.7e308, None, "LHS"),
    ], ids=["cesaro-lhs", "cesaro-rhs", "fourier-lhs"])
    def test_overflowing_side_is_one_error_line(self, tmp_path, form, g, h, side):
        gen = ["--gen", "rank-one" if h else "diag",
               "--g", g if isinstance(g, str) else self.seq(tmp_path, "g", g)]
        if h:
            gen += ["--h", self.seq(tmp_path, "h", h)]
        done = run_process(["certify", "--form", form, *gen, "--N", "4",
                            "--r", "4" if h else "4/3", "--q", "2", "--no-timestamp"])
        assert (done.returncode, done.stdout) == (64, "")
        assert done.stderr == f"error: the {side} of a sign pattern overflows the float range\n"


class TestCertify:
    def test_large_conjugate_exponent_attains_g_norm(self, tmp_path):
        # s = 1001/1000, so s' = 1001: the row sums of C_N M_h are 1, and their
        # scaled l^1001 norm is finite, though i^1001 is not for i >= 2
        out = tmp_path / "cert.json"
        code = run(["certify", "--form", "cesaro", "--gen", "rank-one", "--g", "harmonic",
                    "--h", "ones", "--N", "200", "--r", "inf", "--q", "1001/1000",
                    "--out", str(out)])
        assert code == 2
        certifier = read_cert(out)["certifier"]
        bound = lp_norm(1.0 / np.arange(1, 201), Exponent("1001/1000"))
        assert certifier["refuted"] is False
        assert abs(certifier["c_hat"] - bound) <= 1e-14 * bound

    def test_bounded_evidence_is_inconclusive(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["certify", "--form", "cesaro", "--gen", "rank-one",
                    "--g", "harmonic", "--h", "ones", "--N", "4",
                    "--r", "2", "--q", "2", "--patterns", "8",
                    "--out", str(out)])
        assert code == 2
        doc = read_cert(out)
        assert doc["verdict"] == "INCONCLUSIVE"
        assert doc["certifier"]["refuted"] is False
        assert doc["certifier"]["c_hat"] <= 1.0 + 1e-9  # |harmonic|_inf = 1

    def test_identity_refutation(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["certify", "--form", "cesaro", "--gen", "identity",
                    "--h", "ones", "--N", "4", "--r", "2", "--q", "2",
                    "--out", str(out)])
        assert code == 1
        doc = read_cert(out)
        assert doc["certifier"]["refuted"] is True
        assert doc["certifier"]["c_hat"] == "inf"

    @pytest.mark.parametrize("form", ["cesaro", "fourier"])
    @pytest.mark.parametrize("patterns", ["0", "-2"])
    def test_patterns_below_one_is_usage_error(self, form, patterns, tmp_path, capsys):
        # checked by argparse, before an input is read: a missing file is not reached
        for source in (["--gen", "diag", "--g", "invsq"],
                       ["--matrix", str(tmp_path / "missing.csv")]):
            code = run(["certify", "--form", form, *source, "--h", "ones", "--N", "4",
                        "--r", "4/3", "--q", "2", "--patterns", patterns])
            assert code == 64
            assert capsys.readouterr().err.endswith(
                f"error: argument --patterns: must be at least 1, got {patterns}\n")

    def test_fourier_form(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["certify", "--form", "fourier", "--gen", "diag",
                    "--g", "invsq", "--N", "4", "--r", "4/3", "--q", "2",
                    "--out", str(out)])
        assert code == 2


class TestVerifyRepresenting:
    def test_chebyshev_construction(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["verify-representing", "--family", "chebyshev1",
                    "--N", "16", "--out", str(out)])
        assert code == 0
        assert read_cert(out)["verdict"] == "FACTORS"

    def test_permuted_variant_fails(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["verify-representing", "--family", "chebyshev1",
                    "--N", "16", "--permute", "--out", str(out)])
        assert code == 1
        assert read_cert(out)["witness"]["i"] in (1, 2)

    def test_zero_in_the_diagonal_is_usage_error(self, capsys):
        code = run(["verify-representing", "--N", "4", "--g", "shift1:ones"])
        assert code == 64
        assert capsys.readouterr().err == (
            "error: ZeroDiagonal: g_1 = 0 breaks injectivity\n")

    def test_samples_is_not_an_option(self, capsys):
        assert run(["verify-representing", "--samples", "20"]) == 64
        assert "unrecognized arguments: --samples 20" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        assert run(["verify-representing", "--family", "hermite"]) == 64
        assert capsys.readouterr().err == (
            "error: unknown family 'hermite'; choose from "
            "trig, legendre, chebyshev1, chebyshev2, laguerre\n")

    def test_permute_one_coefficient_is_one_error_line(self):
        done = run_process(["verify-representing", "--N", "1", "--permute",
                            "--no-timestamp"])
        assert done.returncode == 64
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")

    def test_permute_two_coefficients_fails(self, tmp_path):
        code = run(["verify-representing", "--N", "2", "--permute",
                    "--out", str(tmp_path / "c.json")])
        assert code == 1

    @pytest.mark.parametrize("family, nodes", [("laguerre", 64), ("chebyshev1", 256)])
    def test_count_beyond_the_rule_is_usage_error(self, family, nodes, capsys):
        code = run(["verify-representing", "--family", family, "--N", str(nodes + 1),
                    "--no-timestamp"])
        assert code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: count {nodes + 1} exceeds the {nodes} nodes of the "
                       f"{family} quadrature rule\n")

    def test_count_at_the_rule_size_still_verifies(self, tmp_path):
        code = run(["verify-representing", "--family", "laguerre", "--N", "64",
                    "--out", str(tmp_path / "c.json")])
        assert code == 0


README = Path(__file__).resolve().parents[1] / "README.md"
INPUT_OPTIONS = ("--matrix", "--through", "--g", "--h")


def readme_examples():
    """(argv, exit code) of each ``strongfactor`` command in the README's
    "Install and test" and "Command-line usage" sections that reads no input
    file.  The code is the one its ``# exit N`` comment names, else 0."""
    text = README.read_text()
    sections = [text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
                for title in ("Install and test", "Command-line usage")]
    examples = []
    for block in re.findall(r"```bash\n(.*?)```", "\n".join(sections), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] != ["strongfactor"]:
                continue
            argv = argv[1:]
            inputs = [value for key, value in zip(argv, argv[1:]) if key in INPUT_OPTIONS]
            if any(value.endswith((".csv", ".json")) for value in inputs):
                continue
            code = re.match(r"\s*exit (\d+)", comment)
            examples.append((argv, int(code.group(1)) if code else 0))
    return examples


class TestReadmeExamples:
    def test_examples_are_found(self):
        assert len(readme_examples()) >= 8

    @pytest.mark.parametrize("argv, code", readme_examples(),
                             ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_example_exits_as_its_comment_says(self, argv, code, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == code, capsys.readouterr().err

    def test_library_quick_tour_runs(self):
        tour = README.read_text().split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", tour, re.S)
        assert len(blocks) == 1
        done = run_python(["-c", blocks[0]])
        assert (done.returncode, done.stderr) == (0, "")


class TestSeedOption:
    """--seed is a nonnegative integer for every subcommand: a negative one
    is a usage error (exit 64, one line), never numpy's ValueError."""

    JOBS = {
        "check-cesaro": ["--gen", "random-lower", "--h", "ones", "--p", "2", "--q", "2",
                         "--r", "2"],
        "check-cesaro-j0": ["--gen", "random-lower", "--h", "ones", "--p", "2",
                            "--q", "2", "--r", "2"],
        "check-fourier": ["--gen", "random-lower", "--p", "2", "--q", "2", "--r", "2"],
        "check-matrix": ["--gen", "random-lower", "--h", "ones"],
        "certify": ["--gen", "identity", "--h", "ones", "--N", "8", "--r", "2",
                    "--q", "2"],
        "verify-representing": [],
        "suite": ["--name", "exponents"],
    }

    def test_every_subcommand_is_covered(self):
        assert set(self.JOBS) == set(TestJobEcho.subcommands()[1])

    @pytest.mark.parametrize("command", sorted(JOBS))
    def test_negative_seed_is_usage_error(self, command, capsys):
        assert run([command, *self.JOBS[command], "--seed", "-1"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: argument --seed: must be at least 0, got -1\n"


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path):
        args = ["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                "--h", "ones", "--N", "32", "--p", "2", "--q", "2", "--r", "2",
                "--seed", "11", "--no-timestamp"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["check-cesaro", "check-cesaro-j0"])
    def test_job_echo_names_the_command(self, tmp_path, command):
        out = tmp_path / "c.json"
        run([command, "--gen", "cesaro", "--h", "ones", "--N", "4", "--p", "2",
             "--q", "2", "--r", "2", "--out", str(out)])
        job = read_cert(out)["job"]
        assert job["command"] == command
        assert (job["p"], job["q"], job["r"]) == ("2", "2", "2")

    @pytest.mark.parametrize("form", ["cesaro", "fourier"])
    def test_job_echo_names_the_certify_form(self, tmp_path, form):
        out = tmp_path / "c.json"
        run(["certify", "--form", form, "--gen", "diag", "--g", "invsq",
             "--h", "ones", "--N", "4", "--r", "2", "--q", "2", "--out", str(out)])
        assert read_cert(out)["job"]["form"] == form

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "c.json"
        run(["check-cesaro", "--gen", "cesaro", "--h", "ones", "--N", "4",
             "--p", "2", "--q", "2", "--r", "2", "--out", str(out)])
        assert "timestamp" in read_cert(out)

    def test_certifier_deterministic_via_cli(self, tmp_path):
        args = ["certify", "--form", "cesaro", "--gen", "random-lower",
                "--h", "ones", "--N", "6", "--r", "2", "--q", "4/3",
                "--patterns", "8", "--seed", "3", "--no-timestamp"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestJobEcho:
    """The job echo holds every parsed option but the three that say where
    the output goes or which handler runs."""

    NOT_ECHOED = {"run", "out", "no_timestamp"}
    JOBS = {
        "check-cesaro": ["--gen", "cesaro", "--h", "ones", "--p", "2", "--q", "2",
                         "--r", "2"],
        "check-cesaro-j0": ["--gen", "cesaro", "--h", "ones", "--p", "2", "--q", "2",
                            "--r", "2"],
        "check-fourier": ["--gen", "diag", "--g", "invsq", "--p", "2", "--q", "2",
                          "--r", "2"],
        "check-matrix": ["--gen", "cesaro", "--h", "ones"],
        "certify": ["--gen", "identity", "--h", "ones", "--r", "2", "--q", "2"],
        "verify-representing": [],
    }

    @staticmethod
    def subcommands():
        parser = cli.build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.dest, action.choices

    def test_every_certificate_command_has_a_job(self):
        assert set(self.JOBS) == set(self.subcommands()[1]) - {"suite"}

    @pytest.mark.parametrize("command", sorted(JOBS))
    def test_echo_keys_are_the_parser_destinations(self, tmp_path, command):
        dest, subs = self.subcommands()
        expected = {dest} | {a.dest for a in subs[command]._actions} - {"help"}
        out = tmp_path / "c.json"
        run([command, "--N", "4", *self.JOBS[command], "--out", str(out)])
        assert set(read_cert(out)["job"]) == expected - self.NOT_ECHOED


class TestSeedIsRecorded:
    """The CLI job writes --seed into every certificate, beside its job
    echo, and ``certify`` into its certifier block too."""

    JOBS = [[command, *args] for command, args in TestJobEcho.JOBS.items()] + [
        ["certify", "--form", "fourier", "--gen", "diag", "--g", "invsq",
         "--r", "2", "--q", "2"]]

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("job", JOBS, ids=" ".join)
    def test_certificate_records_the_seed(self, tmp_path, job, seed):
        out = tmp_path / "c.json"
        assert run([*job, "--N", "4", "--seed", str(seed), "--out", str(out)]) in (0, 1, 2)
        doc = read_cert(out)
        assert doc["seed"] == seed
        if job[0] == "certify":
            assert doc["certifier"]["seed"] == seed


class TestUsageErrors:
    """Each input check of the CLI exits with its code and one stderr line;
    ``--through identity`` is a check like the others and exits 1.  Paths
    are written as {tmp}."""

    P = ["--p", "2", "--q", "2", "--r", "2"]
    CASES = {
        "matrix-and-gen": (["check-cesaro", "--matrix", "{tmp}/m.csv", "--gen", "identity",
                            "--h", "ones", *P],
                           64, "error: give either --matrix or --gen, not both\n"),
        "no-matrix": (["check-cesaro", "--h", "ones", *P],
                      64, "error: an input matrix is required (--matrix or --gen)\n"),
        "no-h": (["check-cesaro", "--gen", "identity", "--N", "4", *P],
                 64, "error: missing multiplier --h\n"),
        "rank-one-without-h": (["check-fourier", "--gen", "rank-one", "--g", "ones",
                                "--N", "4", *P],
                               64, "error: --gen rank-one needs --g and --h\n"),
        "diag-without-g": (["check-fourier", "--gen", "diag", "--N", "4", *P],
                           64, "error: --gen diag needs --g\n"),
        "unknown-gen": (["check-fourier", "--gen", "nope", "--N", "4", *P],
                        64, "error: unknown generator 'nope' (available: identity, cesaro, "
                            "random-lower, rank-one, diag)\n"),
        "bad-through": (["check-matrix", "--gen", "cesaro", "--N", "4", "--h", "ones",
                         "--through", "nope"],
                        64, "error: --through must be cesaro, identity, or a file path; "
                            "got 'nope'\n"),
        "shift-past-n": (["check-cesaro", "--gen", "cesaro", "--N", "4", "--h", "shift4:ones",
                          *P],
                         64, "error: shift 4 leaves no nonzero entries at N=4\n"),
        "h-csv-length": (["check-cesaro", "--gen", "cesaro", "--N", "4", "--h", "{tmp}/h.csv",
                          *P],
                         64, "error: {tmp}/h.csv: sequence length 3 != N=4\n"),
        "missing-matrix-file": (["check-cesaro", "--matrix", "{tmp}/none.csv", "--h", "ones",
                                 *P],
                                65, "parse error: {tmp}/none.csv: no such file\n"),
        "matrix-is-a-directory": (["check-cesaro", "--N", "2", "--matrix", "{tmp}/dir",
                                   "--h", "{tmp}/h.csv", *P],
                                  65, "parse error: {tmp}/dir: Is a directory\n"),
        "json-matrix-is-a-directory": (["check-cesaro", "--N", "2", "--matrix",
                                        "{tmp}/dir.json", "--h", "{tmp}/h.csv", *P],
                                       65, "parse error: {tmp}/dir.json: Is a directory\n"),
        "h-is-a-directory": (["check-cesaro", "--gen", "cesaro", "--N", "2", "--h", "{tmp}/dir",
                              *P],
                             65, "parse error: {tmp}/dir: Is a directory\n"),
        "matrix-csv-not-utf8": (["check-cesaro", "--N", "2", "--matrix", "{tmp}/ff.csv",
                                 "--h", "ones", *P],
                                65, "parse error: {tmp}/ff.csv:3: not valid UTF-8\n"),
        "h-csv-not-utf8": (["check-cesaro", "--gen", "cesaro", "--N", "2", "--h", "{tmp}/ff.csv",
                            *P],
                           65, "parse error: {tmp}/ff.csv:3: not valid UTF-8\n"),
        "json-matrix-not-utf8": (["check-cesaro", "--N", "2", "--matrix", "{tmp}/ff.json",
                                  "--h", "ones", *P],
                                 65, "parse error: {tmp}/ff.json:2: not valid UTF-8\n"),
        "through-identity": (["check-matrix", "--gen", "random-lower", "--N", "4",
                              "--h", "ones", "--through", "identity", "--out", "{tmp}/c.json"],
                             1, ""),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_stderr(self, tmp_path, capsys, case):
        argv, code, err = self.CASES[case]
        (tmp_path / "m.csv").write_text("N=1\n1\n")
        (tmp_path / "h.csv").write_text("1\n1\n1\n")
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "ff.csv").write_bytes(b"N=2\n1,0\n\xff,1\n")  # \xff is no UTF-8 byte
        (tmp_path / "ff.json").write_bytes(b'{"entries":\n [[\xff]]}')
        assert run([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
        assert capsys.readouterr().err == err.replace("{tmp}", str(tmp_path))
        if code == 1:
            witness = read_cert(tmp_path / "c.json")["witness"]
            assert (witness["i"], witness["j"]) == (2, 1)


class TestMatrixCacheOutputs:
    """A matrix CSV above the cache threshold gives the same exit code,
    stdout, stderr and certificate bytes with a cold cache, a warm one and one
    that cannot be made (``XDG_CACHE_HOME`` at a regular file)."""

    P = ["--p", "2", "--q", "2", "--r", "2"]
    JOBS = {
        "check-cesaro": ["check-cesaro", "--h", "{h}", *P],
        "check-cesaro-perturbed": ["check-cesaro", "--h", "{h}", "--perturb", "3,2,1e-3", *P],
        "check-fourier": ["check-fourier", *P],
        "check-matrix": ["check-matrix", "--h", "{h}"],
        "check-matrix-perturbed": ["check-matrix", "--h", "{h}", "--perturb", "{n},1,-1e-3"],
        "certify-fourier": ["certify", "--form", "fourier", "--q", "2", "--r", "2"],
    }

    @staticmethod
    def job_files(root, n):
        """A Cesàro sandwich with full-precision g and h, and h, as CSV."""
        rng = np.random.default_rng(3)
        g, h = (TruncatedSeq(rng.uniform(0.5, 2.0, n)) for _ in range(2))
        a = MatrixOp(diagonal_sandwich(g, CesaroOp(n), h).rows(0, n), lp_space(2), lp_space(2))
        matrix_to_csv(a, root / "a.csv")
        seq_to_csv(h, root / "h.csv")
        (root / "blocker").write_text("")
        return root

    def argv(self, root, job, n):
        return [arg.replace("{h}", str(root / "h.csv")).replace("{n}", str(n))
                for arg in self.JOBS[job]] + [
            "--N", str(n), "--matrix", str(root / "a.csv"), "--no-timestamp",
            "--out", str(root / "c.json")]

    @pytest.mark.parametrize("job", JOBS)
    def test_cold_warm_and_uncached_alike(self, tmp_path, job, capsys, monkeypatch):
        root = self.job_files(tmp_path, 16)
        monkeypatch.setattr(operators, "_CACHE_MIN_BYTES", (root / "a.csv").stat().st_size)
        outputs = []
        for home in ("xdg", "xdg", "blocker"):
            monkeypatch.setenv("XDG_CACHE_HOME", str(root / home))
            code = run(self.argv(root, job, 16))
            outputs.append((code, capsys.readouterr(), (root / "c.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(list((root / "xdg" / "strongfactor").iterdir())) == 1

    def test_cache_home_at_a_file_changes_nothing(self, tmp_path, monkeypatch):
        """At the real threshold, in fresh processes: N = 384 makes a file above 1 MiB."""
        root = self.job_files(tmp_path, 384)
        assert (root / "a.csv").stat().st_size >= operators._CACHE_MIN_BYTES
        outputs = []
        for home in ("xdg", "blocker"):
            monkeypatch.setenv("XDG_CACHE_HOME", str(root / home))
            done = run_process(self.argv(root, "check-cesaro", 384))
            outputs.append((done.returncode, done.stdout, done.stderr,
                            (root / "c.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 0 and outputs[1][2] == ""
        assert len(list((root / "xdg" / "strongfactor").iterdir())) == 1


class TestSuiteCommand:
    def test_hardy_suite_passes(self, capsys):
        assert run(["suite", "--name", "hardy"]) == 0
        assert "PASS hardy" in capsys.readouterr().out

    def test_suites_registered_once_in_definition_order(self):
        from strongfactor import suites

        assert list(suites.SUITES) == [
            "exponents", "orthonormality", "fourier", "hardy", "cesaro-norm", "roundtrip",
            "certifier", "hardy-littlewood", "kellogg", "representing", "determinism"]
        res = suites.SUITES["determinism"]()
        assert res.name == "determinism" and res.passed and res.runtime_s > 0.0
        assert suites.kellogg_embedding(seed=3).name == "kellogg"

    @pytest.mark.parametrize("seed", [0, 1, 5, 9])
    def test_roundtrip_flips_every_perturbation(self, seed):
        # 50 trials with h_1 != 0 perturb three entries each, 10 each at
        # j0 = 2 and j0 = 3 perturb one: one sweep, 170 perturbations
        from strongfactor import suites

        res = suites.cesaro_roundtrip(seed=seed)
        assert res.passed, res.details
        assert res.details[-1].endswith("; 170/170 perturbations flipped")

    def test_unknown_suite(self):
        assert run(["suite", "--name", "nope"]) == 64

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 64


class TestSequenceSpecs:
    def test_csv_sequence(self, tmp_path):
        seq = tmp_path / "h.csv"
        seq.write_text("".join(f"{v}\n" for v in np.ones(8)))
        code = run(["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                    "--h", str(seq), "--N", "8", "--p", "2", "--q", "2",
                    "--r", "2", "--out", str(tmp_path / "c.json")])
        assert code == 0

    def test_unknown_sequence_name(self):
        code = run(["check-cesaro", "--gen", "rank-one", "--g", "harmonic",
                    "--h", "nonesuch", "--N", "8", "--p", "2", "--q", "2",
                    "--r", "2"])
        assert code == 64

    def test_stdout_json_when_no_out(self, capsys):
        code = run(["check-cesaro", "--gen", "cesaro", "--h", "ones",
                    "--N", "4", "--p", "2", "--q", "2", "--r", "2",
                    "--no-timestamp"])
        assert code == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        assert json.loads(payload)["verdict"] == "FACTORS"
