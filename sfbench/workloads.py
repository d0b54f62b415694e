"""Seeded job lists for the four benchmark workloads, and the outcome each job
must produce.

A workload is a fixed round of job slots (command, size, generator). The seed
only fills in the data: multiplier sequences, perturbation positions and sizes,
generator and certifier seeds, and the contents of the input files. Every round
therefore costs about the same, whatever the seed, while no two rounds repeat
their inputs.

Expected outcomes come from how a job was generated, never from running the
program:

* a rank-one sandwich ``M_g C M_h`` (or a diagonal matrix for the Fourier
  check) FACTORS and gives back ``g``; rows before the first nonzero ``h_j``
  give ``g_i = 0``;
* one perturbed entry ``(i, j)`` off the pivot column is the first row-major
  violation, so it is the witness;
* the identity and a random lower-triangular matrix break the Cesàro shape
  first at ``(2, 2)``;
* a bounded sweep never exceeds ``||g||_s``, and a non-Cesàro matrix is always
  refuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ingest", "generated", "certify", "desk")

#: rounds generated up front; a run stops long before using them all
ROUNDS = 40

NAMES = ("harmonic", "invsq", "alt")

DESK_SUITES = ("exponents", "orthonormality", "fourier", "hardy", "cesaro-norm",
               "roundtrip", "hardy-littlewood", "kellogg", "representing",
               "determinism")
#: the seed's known-red acceptance check (README, "Known-red check")
KNOWN_RED = {"cesaro-norm": 1}

FAMILIES = ("trig", "legendre", "chebyshev1", "chebyshev2", "laguerre")

#: a cheap job of each workload, run untimed in set-up on inputs of its own
WARMUP_SLOT = {"ingest": "fourier-csv-256", "generated": "fourier-identity-1024",
               "certify": "fourier", "desk": "cesaro-64"}


def sequence(name: str, n: int) -> np.ndarray:
    """The CLI's built-in sequences, written out independently."""
    i = np.arange(1, n + 1, dtype=float)
    if name == "ones":
        return np.ones(n)
    if name == "harmonic":
        return 1.0 / i
    if name == "invsq":
        return 1.0 / i ** 2
    if name == "alt":
        return (-1.0) ** (i + 1) / i
    raise ValueError(name)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the outcome its generator implies."""

    slot: str
    argv: tuple[str, ...]
    exit_code: int
    verdict: str | None = None          # None: the job writes no certificate
    witness: tuple[int, int] | None = None
    g: tuple | None = None              # expected recovered g, see expected_g
    refuted: bool | None = None
    c_bound: float | None = None        # c_hat_vertex may not exceed this

    @property
    def writes_certificate(self) -> bool:
        return self.verdict is not None


@dataclass
class InputFile:
    """A file written in set-up by one of the library's writers."""

    name: str
    kind: str        # "matrix_csv", "matrix_json" or "seq_csv"
    values: np.ndarray


@dataclass
class Plan:
    files: list[InputFile]
    rounds: list[list[Job]]
    warmup: Job
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def expected_g(self, job: Job) -> np.ndarray:
        """``("seq", name, n, k)``: a CLI sequence with its first k entries
        zeroed; ``("ref", key)``: an array this plan generated."""
        if job.g[0] == "ref":
            return self.arrays[job.g[1]]
        _, name, n, k = job.g
        values = sequence(name, n)
        values[:k] = 0.0
        return values


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _perturb(rng, n: int, avoid_col: int | None) -> tuple[int, int, str]:
    """A 1-based entry outside column ``avoid_col`` (off the diagonal when
    None) and a perturbation far above the decision tolerance."""
    i = int(rng.integers(1, n + 1))
    skip = i if avoid_col is None else avoid_col
    j = int(rng.integers(1, n))
    if j >= skip:
        j += 1
    eps = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, -1.0))
    return i, j, repr(eps)


def _check_argv(cmd: str, n: int, *extra: str) -> tuple[str, ...]:
    exps = ("--p", "2", "--q", "2", "--r", "2") if cmd != "check-matrix" else ()
    return (cmd, "--N", str(n), *exps, *extra)


def _seq(name: str, n: int, zeros: int = 0) -> tuple:
    return ("seq", name, n, zeros)


def _factors(slot, argv, g) -> Job:
    return Job(slot, argv, 0, "FACTORS", g=g)


def _breaks(slot, argv, witness) -> Job:
    return Job(slot, argv, 1, "DOES_NOT_FACTOR", witness=witness)


# ---------------------------------------------------------------------------
# Rounds are built so that the median job and the job with ten beyond it both
# fall inside one class of similar cost whether a run holds two or five
# rounds; a class boundary there would make the order statistics jump.

# ingest: CSV and JSON matrices read back through the CLI

INGEST_SIZES = {"mid": 1024, "json": 512, "small": 256}


def _cesaro_entries(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    return np.where(j <= i, 1.0 / i, 0.0)


def _sandwich(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return g[:, None] * _cesaro_entries(g.size) * h[None, :]


def _ingest_files(seed: int, sizes) -> tuple[list[InputFile], dict]:
    """Rank-one sandwiches with random g and h (full-precision entries, so
    file sizes do not depend on the seed), a diagonal and a Cesàro matrix."""
    rng = _rng(seed, 0)
    files, arrays = [], {}
    for key, n in sizes.items():
        g = rng.uniform(0.5, 2.0, n)
        h = rng.uniform(0.5, 2.0, n)
        arrays[key] = g
        kind, ext = ("matrix_json", "json") if key == "json" else ("matrix_csv", "csv")
        files.append(InputFile(f"a{n}.{ext}", kind, _sandwich(g, h)))
        files.append(InputFile(f"h{n}.csv", "seq_csv", h))
    small = sizes["small"]
    arrays["diag"] = rng.uniform(0.5, 2.0, small)
    files.append(InputFile(f"d{small}.csv", "matrix_csv", np.diag(arrays["diag"])))
    files.append(InputFile(f"c{small}.csv", "matrix_csv", _cesaro_entries(small)))
    return files, arrays


def _ingest_round(rng, root: str, sizes) -> list[Job]:
    """Eleven reads of the N = 1024 CSV matrix (the median and tail class, all
    with a kernel of about the same cost), then three small reads. The small
    reads are few, so the median sits near the middle of the class."""
    mid, js, small = (sizes[k] for k in ("mid", "json", "small"))

    def matrix(n, ext="csv"):
        return ("--matrix", f"{root}/a{n}.{ext}", "--h", f"{root}/h{n}.csv")

    def perturbed(slot, cmd, *extra):
        # every h_j is nonzero, so both Cesàro forms pivot on column 1
        i, j, eps = _perturb(rng, mid, 1)
        return _breaks(slot, _check_argv(cmd, mid, *matrix(mid), *extra,
                                         "--perturb", f"{i},{j},{eps}"), (i, j))

    through = ("--through", "cesaro")
    jobs = []
    for _ in range(2):
        jobs += [_factors("cesaro-csv-1024", _check_argv("check-cesaro", mid, *matrix(mid)),
                          ("ref", "mid")),
                 perturbed("cesaro-csv-1024-perturbed", "check-cesaro"),
                 _factors("cesaro-j0-csv-1024", _check_argv(
                     "check-cesaro-j0", mid, *matrix(mid)), ("ref", "mid")),
                 perturbed("cesaro-j0-csv-1024-perturbed", "check-cesaro-j0")]
    # a lower-triangular sandwich is not diagonal: first off-diagonal (2, 1)
    jobs.append(_breaks("fourier-csv-1024", _check_argv(
        "check-fourier", mid, "--matrix", f"{root}/a{mid}.csv"), (2, 1)))
    jobs.append(_factors("matrix-csv-1024", _check_argv(
        "check-matrix", mid, *matrix(mid), *through), ("ref", "mid")))
    jobs.append(perturbed("matrix-csv-1024-perturbed", "check-matrix", *through))
    jobs.append(_factors("cesaro-json-512", _check_argv(
        "check-cesaro", js, *matrix(js, "json")), ("ref", "json")))
    jobs.append(_factors("matrix-csv-through-csv-256", _check_argv(
        "check-matrix", small, *matrix(small), "--through", f"{root}/c{small}.csv"),
        ("ref", "small")))
    jobs.append(_factors("fourier-csv-256", _check_argv(
        "check-fourier", small, "--matrix", f"{root}/d{small}.csv"), ("ref", "diag")))
    return jobs


# ---------------------------------------------------------------------------
# generated: built-in generators, no file I/O

GENERATED_SIZES = {"large": 4096, "mid": 2048, "small": 1024}


def _pick(rng, count: int = 1):
    picked = tuple(str(v) for v in rng.choice(NAMES, count))
    return picked if count > 1 else picked[0]


def _rank_one(g: str, h: str) -> tuple[str, ...]:
    return ("--gen", "rank-one", "--g", g, "--h", h)


def _generator_seed(rng) -> tuple[str, str]:
    return ("--seed", str(int(rng.integers(1 << 30))))


def _generated_round(rng, sizes) -> list[Job]:
    """Nine N = 1024 jobs, twelve N = 2048 rank-one FACTORS jobs (the median
    and tail class: one kind of job, so one cost), one N = 4096 job. A single
    job above the class keeps the tail inside it for any run of two to five
    rounds."""
    big, mid, small = (sizes[k] for k in ("large", "mid", "small"))

    def rank_one(slot, cmd, n, perturbed=False, shift=0, through=()):
        g, h = _pick(rng, 2)
        argv = _check_argv(cmd, n, *_rank_one(g, f"shift{shift}:{h}" if shift else h),
                           *through)
        if not perturbed:
            return _factors(slot, argv, _seq(g, n, shift))
        i, j, eps = _perturb(rng, n, shift + 1)
        return _breaks(slot, argv + ("--perturb", f"{i},{j},{eps}"), (i, j))

    def diag(slot, n, perturbed=False):
        g = _pick(rng)
        argv = _check_argv("check-fourier", n, "--gen", "diag", "--g", g)
        if not perturbed:
            return _factors(slot, argv, _seq(g, n))
        i, j, eps = _perturb(rng, n, None)
        return _breaks(slot, argv + ("--perturb", f"{i},{j},{eps}"), (i, j))

    cesaro_through = ("--through", "cesaro")
    jobs = [rank_one("cesaro-1024-perturbed", "check-cesaro", small, perturbed=True),
            rank_one("cesaro-j0-1024-perturbed", "check-cesaro-j0", small, perturbed=True,
                     shift=int(rng.integers(1, 4))),
            _breaks("cesaro-identity-1024", _check_argv(
                "check-cesaro", small, "--gen", "identity", "--h", _pick(rng)), (2, 2)),
            _breaks("cesaro-random-lower-1024", _check_argv(
                "check-cesaro", small, "--gen", "random-lower", "--h", _pick(rng),
                *_generator_seed(rng)), (2, 2)),
            _factors("fourier-identity-1024", _check_argv(
                "check-fourier", small, "--gen", "identity"), _seq("ones", small)),
            _breaks("matrix-random-lower-1024", _check_argv(
                "check-matrix", small, "--gen", "random-lower", "--h", _pick(rng),
                *cesaro_through, *_generator_seed(rng)), (2, 2)),
            rank_one("matrix-1024-perturbed", "check-matrix", small, perturbed=True,
                     through=cesaro_through)]
    jobs += [diag("fourier-diag-1024", small),
             diag("fourier-diag-1024-perturbed", small, perturbed=True)]
    for _ in range(6):
        jobs.append(rank_one("cesaro-2048", "check-cesaro", mid))
        jobs.append(rank_one("cesaro-j0-2048", "check-cesaro-j0", mid,
                             shift=int(rng.integers(1, 4))))
    jobs.append(rank_one("matrix-4096", "check-matrix", big, through=cesaro_through))
    return jobs


# ---------------------------------------------------------------------------
# certify: sign-pattern sweeps

def lp_norm(values: np.ndarray, s: float) -> float:
    a = np.abs(values)
    return float(a.max()) if math.isinf(s) else float(np.sum(a ** s) ** (1.0 / s))


def _cesaro_sweep(rng, slot: str, n: int, patterns: int, r: str, gen: str,
                  g: str | None = None, h: str | None = None) -> Job:
    """``certify --form cesaro`` at q = 2; names not given are drawn from rng."""
    argv = ("certify", "--form", "cesaro", "--N", str(n), "--r", r, "--q", "2",
            "--patterns", str(patterns), *_generator_seed(rng))
    h = h or _pick(rng)
    if gen != "rank-one":
        return Job(slot, argv + ("--gen", gen, "--h", h), 1, "DOES_NOT_FACTOR", refuted=True)
    g = g or _pick(rng)
    # s = rq/(r-q) for r > q = 2, else inf; Hoelder: the ratio never exceeds ||g||_s
    s = math.inf if r == "2" else float(r) * 2.0 / (float(r) - 2.0)
    bound = lp_norm(sequence(g, n), s) * (1.0 + 1e-9)
    return Job(slot, argv + _rank_one(g, h), 2, "INCONCLUSIVE", refuted=False, c_bound=bound)


def _certify_round(rng, tiny: bool) -> list[Job]:
    """Three cheap sweeps, eight at N = 32 with 64 patterns (the median class),
    then N = 64 and the certifier suite.

    The median class sweeps one fixed bounded operator (g = 1/i, h = 1) and
    only its certifier seeds vary: the flip loop's cost depends strongly on
    the operator, which would otherwise move the median from seed to seed.
    """
    n_class, p_class = (8, 16) if tiny else (32, 64)
    jobs = [_cesaro_sweep(rng, "cesaro-exhaustive-4", 4, 32, "2",
                          str(rng.choice(("rank-one", "identity")))),
            _cesaro_sweep(rng, "cesaro-random-lower-8", 8, 128, "4", "random-lower")]
    # r = 2 gives s = inf (row form) on a diagonal; r = 3/2 gives s = 6 on a
    # perturbed one
    argv = ("certify", "--form", "fourier", "--N", "8" if tiny else "64", "--q", "2",
            "--gen", "diag", "--g", _pick(rng))
    if rng.random() < 0.5:
        jobs.append(Job("fourier", argv + ("--r", "2"), 2, "INCONCLUSIVE", refuted=False))
    else:
        i, j, eps = _perturb(rng, 8 if tiny else 64, None)
        jobs.append(Job("fourier", argv + ("--r", "3/2", "--perturb", f"{i},{j},{eps}"),
                        1, "DOES_NOT_FACTOR", refuted=True))
    for _ in range(2 if tiny else 8):
        jobs.append(_cesaro_sweep(rng, f"cesaro-rank-one-{n_class}", n_class, p_class, "2",
                                  "rank-one", "harmonic", "ones"))
    if not tiny:
        jobs.append(_cesaro_sweep(rng, "cesaro-rank-one-64", 64, 32, "4", "rank-one"))
        jobs.append(Job("suite-certifier", ("suite", "--name", "certifier"), 0))
    return jobs


# ---------------------------------------------------------------------------
# desk: small interactive jobs where start-up dominates

DESK_FILE_N = 16


def _desk_files(seed: int, n: int) -> tuple[list[InputFile], dict]:
    rng = _rng(seed, 0)
    g = rng.uniform(0.5, 2.0, n)
    h = rng.uniform(0.5, 2.0, n)
    files = [InputFile(f"a{n}.csv", "matrix_csv", _sandwich(g, h)),
             InputFile(f"b{n}.json", "matrix_json", _cesaro_entries(n)),
             InputFile(f"h{n}.csv", "seq_csv", h)]
    return files, {"file": g}


def _desk_round(rng, root: str, n_file: int) -> list[Job]:
    jobs = []

    def seed():
        return ("--seed", str(int(rng.integers(1000))))

    for fam in FAMILIES * 2:
        g = _pick(rng)
        n = int(rng.choice((16, 24, 32)))
        jobs.append(_factors(f"representing-{fam}", (
            "verify-representing", "--family", fam, "--N", str(n), "--g", g, *seed()),
            _seq(g, n)))
    for fam in ("chebyshev1", "legendre"):
        jobs.append(Job(f"representing-{fam}-permuted", (
            "verify-representing", "--family", fam, "--N", "16", "--permute", *seed()),
            1, "DOES_NOT_FACTOR"))

    g, h = _pick(rng, 2)
    jobs.append(_factors("cesaro-64", _check_argv("check-cesaro", 64, *_rank_one(g, h)),
                         _seq(g, 64)))
    jobs.append(_breaks("cesaro-identity-8", _check_argv(
        "check-cesaro", 8, "--gen", "identity", "--h", _pick(rng)), (2, 2)))
    g, h = _pick(rng, 2)
    i, j, eps = _perturb(rng, 48, 1)
    jobs.append(_breaks("cesaro-48-perturbed", _check_argv(
        "check-cesaro", 48, *_rank_one(g, h), "--perturb", f"{i},{j},{eps}"), (i, j)))
    g, h = _pick(rng, 2)
    jobs.append(_factors("cesaro-j0-12", _check_argv(
        "check-cesaro-j0", 12, *_rank_one(g, f"shift1:{h}")), _seq(g, 12, 1)))
    g, h = _pick(rng, 2)
    i, j, eps = _perturb(rng, 32, 2)
    jobs.append(_breaks("cesaro-j0-32-perturbed", _check_argv(
        "check-cesaro-j0", 32, *_rank_one(g, f"shift1:{h}"),
        "--perturb", f"{i},{j},{eps}"), (i, j)))
    g = _pick(rng)
    jobs.append(_factors("fourier-64", _check_argv(
        "check-fourier", 64, "--gen", "diag", "--g", g), _seq(g, 64)))
    g = _pick(rng)
    i, j, eps = _perturb(rng, 16, None)
    jobs.append(_breaks("fourier-16-perturbed", _check_argv(
        "check-fourier", 16, "--gen", "diag", "--g", g, "--perturb", f"{i},{j},{eps}"),
        (i, j)))
    jobs.append(_factors("fourier-identity-32", _check_argv(
        "check-fourier", 32, "--gen", "identity"), _seq("ones", 32)))
    g, h = _pick(rng, 2)
    jobs.append(_factors("matrix-32", _check_argv(
        "check-matrix", 32, *_rank_one(g, h), "--through", "cesaro"), _seq(g, 32)))
    # b = I vanishes off the diagonal, so the first entry below it breaks
    jobs.append(_breaks("matrix-random-lower-16", _check_argv(
        "check-matrix", 16, "--gen", "random-lower", "--h", _pick(rng),
        "--through", "identity", *_generator_seed(rng)), (2, 1)))
    files = ("--matrix", f"{root}/a{n_file}.csv", "--through", f"{root}/b{n_file}.json",
             "--h", f"{root}/h{n_file}.csv")
    jobs.append(_factors("matrix-files", _check_argv("check-matrix", n_file, *files),
                         ("ref", "file")))
    i, j, eps = _perturb(rng, n_file, 1)
    jobs.append(_breaks("matrix-files-perturbed", _check_argv(
        "check-matrix", n_file, *files, "--perturb", f"{i},{j},{eps}"), (i, j)))
    # twice each: the slowest suites then outnumber the ten jobs beyond the
    # tail, which falls inside their class instead of at its lower edge
    for name in DESK_SUITES * 2:
        jobs.append(Job(f"suite-{name}", ("suite", "--name", name), KNOWN_RED.get(name, 0)))
    return jobs


# ---------------------------------------------------------------------------

def make_plan(workload: str, seed: int, root: str, tiny: bool = False) -> Plan:
    """The input files and ``ROUNDS`` rounds of jobs of one workload.

    ``root`` is the directory, relative to the working directory, that will
    hold the input files. ``tiny`` shrinks every size for the harness
    self-check.
    """
    files: list[InputFile] = []
    arrays: dict = {}
    if workload == "ingest":
        sizes = {"mid": 16, "json": 12, "small": 8} if tiny else INGEST_SIZES
        files, arrays = _ingest_files(seed, sizes)

        def one(rng):
            return _ingest_round(rng, root, sizes)
    elif workload == "generated":
        sizes = {"large": 64, "mid": 32, "small": 16} if tiny else GENERATED_SIZES

        def one(rng):
            return _generated_round(rng, sizes)
    elif workload == "certify":
        def one(rng):
            return _certify_round(rng, tiny)
    elif workload == "desk":
        files, arrays = _desk_files(seed, DESK_FILE_N)

        def one(rng):
            return _desk_round(rng, root, DESK_FILE_N)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rounds = [one(_rng(seed, 1, k)) for k in range(ROUNDS)]
    warmup = next(job for job in one(_rng(seed, 2)) if job.slot == WARMUP_SLOT[workload])
    return Plan(files, rounds, warmup, arrays)
