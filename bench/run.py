"""Closed-loop benchmark of the crystalsurf CLI.

    python3 bench/run.py --workload audit_1d --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
One process and one client: an op is one in-process call
``crystalsurf.cli.run(mode, config, out_dir)`` on a seeded input, and the
next op starts when the previous one has returned. A pass runs every
input of the workload's pool once; passes repeat until ``--seconds`` is
used up (at least three with ``--trace 0``). Every op's output files are
checked against the Tier-1 bounds and fingerprinted (sha256); repeats of
one input, within the run and across earlier runs of the same seed and
code, must give identical fingerprints.

``--trace 0`` times each op from outside, tracing off, and reports the
end-to-end metrics. The first op is a warm-up and is not timed. On a
shared host the CPU's speed drifts by up to 2x over minutes, so a fixed
calibration kernel (``Calibration``) runs right after every timed op,
and each op's time is scaled by ``CALIBRATION_NOMINAL_S`` over the mean
of the calibrations on either side of it. ``wall_s``, ``cpu_s`` and
``op_p50_s`` are therefore seconds at the nominal speed of the
calibration kernel; the raw seconds are printed and kept in the results
file. The kernel runs no crystalsurf code, so a change to the program
moves the scaled times as much as the raw ones. ``setup_s`` stays raw:
import time does not follow the kernel.

``--trace 1`` alternates untraced and traced passes, reports the
per-layer split (see ``tracing.py``), requires the exact counts to
repeat, and writes the spans of the first traced pass. Its times are raw.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment,
per-op times, fingerprints, counts) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

WORKLOAD_NAMES = ("stationary_2d", "evolve_1d", "audit_1d")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 3
SETUP_PROBES = 7
# Calibration kernel: CALIBRATION_FACTORS sparse LU factorizations of a
# shifted 5-point Laplacian on a CALIBRATION_GRID^2 grid (the work that
# bounds stationary_2d), then CALIBRATION_LOOP steps of a pure-Python loop
# (the interpreter overhead that bounds the 1D workloads). Paired with each
# op it tracks the host's speed drift far better than the op's own
# run-level median does.
CALIBRATION_GRID = 65
CALIBRATION_FACTORS = 3
CALIBRATION_LOOP = 200_000
# Calibration wall (and CPU) seconds that the scaled times are quoted at:
# about its median on a 2-vCPU Intel Xeon with numpy 2 and scipy 1.x.
CALIBRATION_NOMINAL_S = 0.07
# Each calibration repeats the kernel for about this share of an op's time
# (judged from the warm-up op), so long ops get a less noisy bracket.
CALIBRATION_SHARE = 0.05
# Reasons reported when a per-layer metric reads 0 on a workload.
ZERO_REASONS = {
    "linalg.pcg_iters": "the default linear solver is the sparse direct LU; pcg is not called",
    "solvers.errors": "no density or height solve raised",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))
    return nproc


def import_program():
    """Import crystalsurf from this checkout's src/ and nowhere else."""
    if not (SRC / "crystalsurf" / "__init__.py").is_file():
        raise ImportError(f"no crystalsurf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import crystalsurf

    if Path(crystalsurf.__file__).resolve().parent != SRC / "crystalsurf":
        raise ImportError(f"crystalsurf was imported from {crystalsurf.__file__}, not {SRC}")
    return crystalsurf


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("crystalsurf/*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(times)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n, "reason": "fewer than 11 ops"}
    pct = 100 * (n - 10) // n
    rank = max(1, -(-pct * n // 100))
    return {"value": sorted(times)[rank - 1], "percentile": pct, "samples": n}


class Calibration:
    """Times a fixed sparse-LU and pure-Python kernel; runs next to every timed op."""

    def __init__(self, repeats: int) -> None:
        import scipy.sparse as sparse
        from scipy.sparse.linalg import splu

        n = CALIBRATION_GRID
        line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.identity(n)
        self.matrix = (sparse.kron(eye, line) + sparse.kron(line, eye) + 0.01 * sparse.identity(n * n)).tocsc()
        self.splu = splu
        self.repeats = repeats

    def __call__(self) -> tuple[float, float]:
        """(wall, CPU) seconds per repeat of the kernel."""
        cpu = time.process_time()
        start = time.perf_counter()
        for _ in range(self.repeats):
            for _ in range(CALIBRATION_FACTORS):
                self.splu(self.matrix)
            total = 0
            for i in range(CALIBRATION_LOOP):
                total += i * i
        return (time.perf_counter() - start) / self.repeats, (time.process_time() - cpu) / self.repeats


class Runner:
    """Runs ops on one workload's input pool and keeps every op's record."""

    def __init__(self, workload, configs, work: Path):
        from crystalsurf import cli

        import workloads

        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.configs = configs
        self.work = work
        self.ops: list[dict] = []

    def op(self, index: int, tracer=None, after=None) -> dict:
        """Run and check one op; ``after`` runs right after the timed call."""
        config = self.configs[index]
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.op = len(self.ops)
        error = trace = None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            self.cli.run(self.workload.mode, config, out)
        except Exception as err:  # any failure is counted, the loop goes on
            error = f"{type(err).__name__}: {err}"
            trace = traceback.format_exc()
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu
        follow = after() if after is not None else None
        problems = [error] if error else self.workloads.check_outputs(self.workload, config, out)
        record = {
            "input": index,
            "seconds": seconds,
            "cpu_s": cpu,
            "traced": tracer is not None,
            "calibration": follow,
            "ok": not problems,
            "problems": problems,
            "traceback": trace,
            "fingerprint": self.workloads.fingerprint(out) if out.is_dir() else None,
        }
        self.ops.append(record)
        return record

    def run_pass(self, tracer=None) -> float:
        """One op per pool input; returns the ops' total wall seconds."""
        return sum(self.op(index, tracer)["seconds"] for index in range(len(self.configs)))

    def fingerprints(self) -> tuple[dict, list[str]]:
        """Fingerprint per input, and the inputs whose repeats disagree."""
        seen: dict[int, str] = {}
        problems = []
        for rec in self.ops:
            first = seen.setdefault(rec["input"], rec["fingerprint"])
            if rec["fingerprint"] != first:
                problems.append(f"input {rec['input']}: outputs differ between repeats")
        return {str(k): v for k, v in sorted(seen.items())}, sorted(set(problems))


def timed_run(runner: Runner, seconds: int, seed: int) -> dict:
    setup = measure_setup(runner.workload.name, seed)
    warm_up = runner.op(0)  # first-call costs are not timed
    calibrate = Calibration(max(1, round(CALIBRATION_SHARE * warm_up["seconds"] / CALIBRATION_NOMINAL_S)))
    first = len(runner.ops)
    previous = calibrate()
    start = time.perf_counter()
    passes = []
    while True:
        raw, scaled = [0.0, 0.0], [0.0, 0.0]
        for index in range(len(runner.configs)):
            rec = runner.op(index, after=calibrate)
            cal = [(b + a) / 2 for b, a in zip(previous, rec["calibration"])]
            previous = rec["calibration"]
            rec["scaled_s"] = rec["seconds"] * CALIBRATION_NOMINAL_S / cal[0]
            rec["scaled_cpu_s"] = rec["cpu_s"] * CALIBRATION_NOMINAL_S / cal[1]
            raw = [raw[0] + rec["seconds"], raw[1] + rec["cpu_s"]]
            scaled = [scaled[0] + rec["scaled_s"], scaled[1] + rec["scaled_cpu_s"]]
        passes.append({"wall_s": scaled[0], "cpu_s": scaled[1], "raw_wall_s": raw[0], "raw_cpu_s": raw[1]})
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    timed = runner.ops[first:]
    op_times = [rec["scaled_s"] for rec in timed]

    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "metrics": {
            "wall_s": (median("wall_s"), "s"),
            "cpu_s": (median("cpu_s"), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "ok_ratio": (sum(rec["ok"] for rec in runner.ops) / len(runner.ops), "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "raw": {
            "wall_s": median("raw_wall_s"),
            "cpu_s": median("raw_cpu_s"),
            "op_p50_s": statistics.median(rec["seconds"] for rec in timed),
            "calibration_s": statistics.median(rec["calibration"][0] for rec in timed),
        },
        "setup_samples_s": setup,
        "passes": passes,
        "op_tail_s": tail(op_times),
    }


def traced_run(runner: Runner, seconds: int, spans_path: Path) -> dict:
    import tracing

    start = time.perf_counter()
    plain, traced, layer_runs, problems = [], [], [], []
    first = None
    while True:
        plain.append(runner.run_pass())
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(runner.run_pass(tracer))
        layer_runs.append(tracer.metrics())
        if first is None:
            first = tracer
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1] + traced[-1] > seconds:
            break
    first.write_spans(spans_path, start)
    counts = {k: layer_runs[0][k] for k in tracing.COUNT_METRICS}
    for other in layer_runs[1:]:
        if any(other[k] != v for k, v in counts.items()):
            problems.append("per-layer counts differ between traced passes")
            break
    metrics = {
        name: (counts[name] if name in counts else statistics.median(run[name] for run in layer_runs), unit)
        for name, unit in tracing.PER_LAYER.items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {
        "metrics": metrics,
        "counts": counts,
        "zero": {
            k: ZERO_REASONS.get(k, "not exercised by this workload")
            for k, (v, _unit) in metrics.items()
            if v == 0
        },
        "passes": [{"untraced_wall_s": p, "traced_wall_s": t} for p, t in zip(plain, traced)],
        "spans_file": spans_path.name,
        "spans": len(first.spans),
        "problems": problems,
    }


def earlier_disagreements(record: dict) -> list[str]:
    """Compare fingerprints (and counts) with earlier runs of this seed and code."""
    problems = []
    pattern = f"{record['workload']}-seed{record['env']['seed']}-trace*.json"
    for path in sorted(RESULTS.glob(pattern)):
        try:
            old = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if old.get("code_hash") != record["code_hash"]:
            continue
        if old.get("fingerprints") != record["fingerprints"]:
            problems.append(f"output fingerprints differ from {path.name}")
        if record.get("counts") and old.get("counts") and old["counts"] != record["counts"]:
            problems.append(f"per-layer counts differ from {path.name}")
    return problems


def setup_probe(workload_name: str, seed: int) -> None:
    """Child process: time `import crystalsurf` plus input generation."""
    start = time.perf_counter()
    import_program()
    import workloads

    work = WORK / f"setup-{os.getpid()}"
    try:
        workloads.make_inputs(workloads.WORKLOADS[workload_name], seed, work)
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload_name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    nproc = cap_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    try:
        import_program()
    except ImportError as err:
        print(f"bench: cannot import the program: {err}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / str(os.getpid())
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    try:
        runner = Runner(workload, workloads.make_inputs(workload, args.seed, work / "inputs"), work)
        if args.trace:
            result = traced_run(runner, args.seconds, RESULTS / f"{stem}.spans.csv.gz")
        else:
            result = timed_run(runner, args.seconds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprints, problems = runner.fingerprints()
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed, nproc),
        "code_hash": code_hash(),
        "fingerprints": fingerprints,
        **{k: v for k, v in result.items() if k != "problems"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "ops": runner.ops,
    }
    problems += result.get("problems", []) + earlier_disagreements(record)
    failed = sum(not rec["ok"] for rec in runner.ops)
    record["problems"] = problems + [p for rec in runner.ops for p in rec["problems"]]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for key in ("raw", "op_tail_s"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(runner.ops),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
