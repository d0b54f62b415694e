"""End-to-end and per-layer benchmark of the ``strongfactor`` CLI.

    python3 sfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.
Jobs of the seeded workload (see ``workloads.py``) run one at a time, each in
a fresh ``python -m strongfactor`` process: a closed loop with one client and
no overlap. Whole rounds of jobs run for about ``--seconds``. Every
certificate is then checked against the outcome its generator implies.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every job of
the same list twice, untraced and through ``shim.py``, and prints the
per-layer metrics taken from the traced runs' spans.

Lines before the last one report the environment, the tail percentile, the
failure ratio and a sha256 digest of the first round's certificates. The last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SRC = Path("src")
WORK = Path("sfbench_work")
SETUPS = 3
JOB_TIMEOUT_S = 60.0
G_RTOL = 1e-9

#: layers in the order they are reported; see README.md for what each covers
LAYERS = ("import", "cli", "operators.ingest", "operators.build", "operators.matrixop",
          "operators.norm_estimate", "factorization.check", "factorization.certify",
          "factorization.representing", "factorization.to_json", "grid_functions",
          "seq_spaces", "exponents", "suites")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# running one job

@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    exit_code: int
    timed_out: bool
    exited: float


class Spawner:
    """Starts one child at a time and reaps it with its own resource usage.

    ``os.wait4`` gives the rusage of exactly that child, unlike
    ``getrusage(RUSAGE_CHILDREN)``, whose max RSS is a running maximum over
    every child reaped so far. A SIGALRM kills a child that overruns.
    """

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self.pid = None
        self.env = dict(os.environ)
        src = str(SRC.resolve())
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, args: list[str], stderr_path: Path) -> Outcome:
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        spawned = time.monotonic()
        self.pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                  file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        # WNOWAIT leaves a zombie, so the pid cannot be reused before the timer stops
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        exited = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, status, usage = os.wait4(self.pid, 0)
        self.pid = None
        timed_out = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        return Outcome(exited - spawned, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                       os.waitstatus_to_exitcode(status), timed_out, exited)


@dataclass
class Run:
    job: workloads.Job
    outcome: Outcome
    cert_path: Path | None
    stderr_path: Path
    spans: dict | None = None


def execute(spawner: Spawner, job: workloads.Job, out_dir: Path, tag: str,
            traced: bool = False) -> Run:
    args = list(job.argv)
    cert = None
    if job.writes_certificate:
        cert = out_dir / f"{tag}.json"
        args += ["--out", str(cert), "--no-timestamp"]
    stderr = out_dir / f"{tag}.err"
    if not traced:
        return Run(job, spawner.run(["-m", "strongfactor", *args], stderr), cert, stderr)
    spans_path = out_dir / f"{tag}.spans"
    # the spawn time is only known once the child exists, so the shim gets
    # the time taken just before; the difference is the spawn call itself
    outcome = spawner.run([str(HERE / "shim.py"), str(spans_path),
                           repr(time.monotonic()), *args], stderr)
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
    return Run(job, outcome, cert, stderr, spans)


# ---------------------------------------------------------------------------
# checking

def check(run: Run, plan: workloads.Plan) -> list[str]:
    """Every way the job's outcome differs from what its generator implies."""
    job, out = run.job, run.outcome
    problems = []
    if out.timed_out:
        return [f"killed: timed out after {JOB_TIMEOUT_S:.0f} s, or out of memory"]
    if out.exit_code != job.exit_code:
        problems.append(f"exit code {out.exit_code}, expected {job.exit_code}")
    if not job.writes_certificate:
        return problems
    try:
        doc = json.loads(run.cert_path.read_bytes())
    except (OSError, ValueError) as exc:
        return problems + [f"no readable certificate: {exc}"]
    if doc.get("verdict") != job.verdict:
        problems.append(f"verdict {doc.get('verdict')}, expected {job.verdict}")
    if "timestamp" in doc:
        problems.append("timestamp written despite --no-timestamp")
    if job.witness is not None:
        w = doc.get("witness") or {}
        got = (w.get("i"), w.get("j_prime", w.get("j")))
        if got != job.witness:
            problems.append(f"witness {got}, expected {job.witness}")
    if job.g is not None:
        want = plan.expected_g(job)
        got = np.asarray((doc.get("g") or {}).get("coeffs", []), dtype=float)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= G_RTOL * np.abs(want)):
            problems.append("recovered g differs from the generator's")
    if job.refuted is not None:
        cert = doc.get("certifier") or {}
        if cert.get("refuted") is not job.refuted:
            problems.append(f"refuted {cert.get('refuted')}, expected {job.refuted}")
        if job.c_bound is not None and not cert.get("c_hat_vertex", np.inf) <= job.c_bound:
            problems.append(f"c_hat_vertex {cert.get('c_hat_vertex')} above ||g||_s")
    return problems


# ---------------------------------------------------------------------------
# set-up

def _readback(kind: str, path: Path) -> np.ndarray:
    """Independent readers for the round-trip check (not the library's)."""
    if kind == "matrix_csv":
        with open(path) as fh:
            header = fh.readline().strip()
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != f"N={values.shape[0]}":
            raise SystemExit(f"writer round trip failed: {path} has header {header!r} "
                             f"for {values.shape[0]} rows")
        return values
    if kind == "matrix_json":
        with open(path) as fh:
            return np.asarray(json.load(fh)["entries"], dtype=float)
    return np.loadtxt(path, ndmin=1)


def write_inputs(plan: workloads.Plan, root: Path) -> dict:
    """Write the plan's files with the library's writers, timing only the
    writer calls, then require every file to read back bit for bit."""
    from strongfactor.operators import MatrixOp, matrix_to_csv, seq_to_csv
    from strongfactor.seq_spaces import TruncatedSeq, lp_space

    spec = lp_space(2)
    stats = {"seconds": 0.0, "bytes": 0, "calls": 0}
    for f in plan.files:
        path = root / f.name
        obj = (TruncatedSeq(f.values) if f.kind == "seq_csv"
               else MatrixOp(f.values, spec, spec))
        start = time.monotonic()
        if f.kind == "matrix_csv":
            matrix_to_csv(obj, path)
        elif f.kind == "matrix_json":
            with open(path, "w") as fh:
                json.dump(obj.to_json(), fh)
        else:
            seq_to_csv(obj, path)
        stats["seconds"] += time.monotonic() - start
        stats["bytes"] += path.stat().st_size
        stats["calls"] += 1
    for f in plan.files:
        back = _readback(f.kind, root / f.name)
        if back.shape != f.values.shape or not np.array_equal(back, f.values):
            raise SystemExit(f"writer round trip failed: {f.name} ({f.kind}) does not "
                             "read back bit for bit")
    return stats


def set_up(workload: str, seed: int, spawner: Spawner, tiny: bool = False):
    """Generate the jobs, write the inputs and run one untimed warm-up job.
    Done ``SETUPS`` times into the same directory; the last one is used."""
    if str(SRC.resolve()) not in sys.path:
        sys.path.insert(0, str(SRC.resolve()))
    root = WORK / workload
    times, writes = [], []
    plan = None
    for _ in range(SETUPS):
        shutil.rmtree(WORK, ignore_errors=True)
        (root / "out").mkdir(parents=True)
        start = time.monotonic()
        plan = workloads.make_plan(workload, seed, str(root), tiny=tiny)
        writes.append(write_inputs(plan, root))
        warm = execute(spawner, plan.warmup, root / "out", "warmup")
        times.append(time.monotonic() - start)
        problems = check(warm, plan)
        if problems:
            raise SystemExit(f"warm-up job {' '.join(plan.warmup.argv)}: {'; '.join(problems)}")
    return plan, root, times, writes


# ---------------------------------------------------------------------------
# the measured loop

def run_rounds(plan, root: Path, spawner: Spawner, seconds: float, traced: bool,
               max_rounds: int | None = None):
    """The whole number of rounds that lasts closest to ``seconds``: another
    round starts only while more than half a mean round of ``seconds`` is
    left, so a run overshoots by half a round at most. In traced mode each job runs
    untraced, then traced. Returns (untraced runs, traced runs, wall, rounds)."""
    plain, shimmed = [], []
    start = time.monotonic()
    rounds = 0
    for rounds, jobs in enumerate(plan.rounds, start=1):
        for k, job in enumerate(jobs):
            tag = f"r{rounds}j{k}"
            plain.append(execute(spawner, job, root / "out", tag))
            if traced:
                shimmed.append(execute(spawner, job, root / "out", tag + "t", traced=True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds / 2 >= seconds or rounds == max_rounds:
            break
    else:
        raise SystemExit(f"all {len(plan.rounds)} generated rounds used before "
                         f"{seconds} s passed")
    return plain, shimmed, time.monotonic() - start, rounds


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and its value."""
    ordered = sorted(walls)
    idx = max(0, len(ordered) - 11)
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def end_to_end(runs: list[Run], wall: float, setup_times: list[float]) -> dict:
    walls = [r.outcome.wall_s for r in runs]
    _, tail_s = tail(walls)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(runs) / wall, "1/s"),
        "cpu_per_job_s": (statistics.fmean(r.outcome.cpu_s for r in runs), "s"),
        "peak_rss_mb": (max(r.outcome.max_rss_kb for r in runs) * 1024 / 1e6, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_of(name: str) -> str:
    return name.split("/")[0]


def span_totals(traced: list[Run]) -> tuple[dict, dict, float]:
    """Self time, calls, errors and counters per layer and per sub-span name,
    summed over jobs; plus the summed wall time of the traced jobs.

    Calls, errors and counters of a layer count only spans entered from
    another layer, so a layer function calling another one counts once.
    """
    layers = {name: {"self": 0.0, "calls": 0, "errors": 0, "count": 0} for name in LAYERS}
    parts: dict[str, dict] = {}
    wall = 0.0
    for run in traced:
        # the interpreter's teardown after the shim wrote its spans
        spans = run.spans["spans"] + [["import/teardown", run.spans["dumped"],
                                       run.outcome.exited, -1, 0, 0]]
        wall += run.outcome.exited - spans[0][1]
        inside = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                inside[parent] += end - start
        for k, (name, start, end, parent, error, count) in enumerate(spans):
            layer = layers[layer_of(name)]
            layer["self"] += end - start - inside[k]
            if "/" in name:
                part = parts.setdefault(name, {"calls": 0, "count": 0, "seconds": 0.0})
                part["calls"] += 1
                part["count"] += count
                part["seconds"] += end - start
                continue
            if parent < 0 or layer_of(spans[parent][0]) != name:
                layer["calls"] += 1
                layer["errors"] += error
                layer["count"] += count
    return layers, parts, wall


def per_layer(plain: list[Run], traced: list[Run], writes: list[dict]) -> dict:
    traced = [r for r in traced if r.spans is not None]
    layers, parts, wall = span_totals(traced)
    jobs = max(1, len(traced))

    def part(name, key):
        return parts.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    certs = [r.cert_path.stat().st_size for r in traced if r.cert_path is not None]
    ingest, check, certify = (layers[k] for k in ("operators.ingest", "factorization.check",
                                                  "factorization.certify"))
    median_write = sorted(writes, key=lambda w: w["seconds"])[len(writes) // 2]
    m = {
        "import.numpy_s": (part("import/numpy", "seconds") / jobs, "s"),
        "import.strongfactor_s": (part("import/strongfactor", "seconds") / jobs, "s"),
        "cli.cert_bytes": (statistics.fmean(certs) if certs else 0.0, "B"),
        "operators.ingest.bytes": (ingest["count"] / jobs, "B"),
        "operators.ingest.mb_per_s": (ratio(ingest["count"] / 1e6, ingest["self"]), "MB/s"),
        "operators.matrixop.entries": (layers["operators.matrixop"]["count"] / jobs, "count"),
        "operators.write.self_s": (median_write["seconds"], "s"),
        "operators.write.calls": (median_write["calls"], "count"),
        "operators.write.bytes": (median_write["bytes"], "B"),
        "factorization.check.entries": (check["count"] / jobs, "count"),
        "factorization.check.ns_per_entry": (ratio(check["self"] * 1e9, check["count"]), "ns"),
        "factorization.certify.patterns": (
            (part("factorization.certify/exhaustive", "count")
             + part("factorization.certify/sampled", "count")) / jobs, "count"),
        "factorization.certify.exhaustive_calls": (
            part("factorization.certify/exhaustive", "calls") / jobs, "count"),
        "factorization.certify.refuted_ratio": (ratio(certify["count"], certify["calls"]),
                                                "ratio"),
    }
    for name in LAYERS:
        layer = layers[name]
        m[f"{name}.self_s"] = (layer["self"] / jobs, "s")
        m[f"{name}.share"] = (ratio(layer["self"], wall), "ratio")
        m[f"{name}.errors"] = (layer["errors"] / jobs, "count")
        if name not in ("import", "cli", "factorization.to_json", "suites"):
            m[f"{name}.calls"] = (layer["calls"] / jobs, "count")
    m["trace.coverage"] = (ratio(sum(v["self"] for v in layers.values()), wall), "ratio")
    m["trace.overhead_ratio"] = (ratio(sum(r.outcome.wall_s for r in traced),
                                       sum(r.outcome.wall_s for r in plain)), "ratio")
    return m


# ---------------------------------------------------------------------------

def environment() -> dict:
    head = Path(".git/HEAD")
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            sha = Path(".git", ref[5:]).read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": sha,
    }


def digest(runs: list[Run], rounds_jobs: int) -> str:
    h = hashlib.sha256()
    for run in runs[:rounds_jobs]:
        if run.cert_path is not None and run.cert_path.exists():
            h.update(run.cert_path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            max_rounds: int | None = None) -> dict:
    """One benchmark run; returns the result object and the report."""
    spawner = Spawner(JOB_TIMEOUT_S)
    try:
        plan, root, setup_times, writes = set_up(workload, seed, spawner, tiny=tiny)
        plain, shimmed, wall, rounds = run_rounds(plan, root, spawner, seconds, trace,
                                                  max_rounds)
        problems = {id(run): check(run, plan) for run in plain + shimmed}
        for run in shimmed:
            if run.spans is None:
                problems[id(run)].append("traced job wrote no spans")
        for a, b in zip(plain, shimmed):
            if a.cert_path and a.cert_path.exists() and b.cert_path.exists() \
                    and a.cert_path.read_bytes() != b.cert_path.read_bytes():
                problems[id(b)].append("traced certificate differs from untraced")
        failures = []
        for run in plain + shimmed:
            if problems[id(run)]:
                lines = run.stderr_path.read_text(errors="replace").strip().splitlines()
                failures.append(f"{run.job.slot} [{' '.join(run.job.argv)}]: "
                                f"{'; '.join(problems[id(run)])}"
                                + (f" (stderr: {lines[-1]})" if lines else ""))
        attempted = len(plain) + len(shimmed)
        walls = [r.outcome.wall_s for r in plain]
        pct, _ = tail(walls)
        report = {
            "workload": workload, "seed": seed, "rounds": rounds, "jobs": len(plain),
            "traced_jobs": len(shimmed), "tail_percentile": round(pct, 2),
            "fail_ratio": len(failures) / attempted,
            "digest_first_round": digest(plain, len(plan.rounds[0])),
            "setup_s_each": setup_times, "failures": failures[:10],
        }
        if trace:
            metrics = per_layer(plain, shimmed, writes)
        else:
            metrics = end_to_end(plain, wall, setup_times)
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return {"result": result, "report": report, "environment": environment(),
                "traced": shimmed}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strongfactor" / "__init__.py").is_file():
        print(f"error: no strongfactor package under {SRC.resolve()}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(out["environment"]))
    print("report " + json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
