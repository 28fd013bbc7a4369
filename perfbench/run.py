"""framelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One closed-loop client: it runs one framelab CLI job at a time, each in a
fresh ``python -m framelab.cli`` process from this checkout's ``src``, and
checks every job's output without framelab (``checks.py``).  The inputs are
generated from ``--seed`` (``corpus.py``).  Jobs run in whole passes over the
workload's corpus until about ``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it makes one pass in which every job runs untraced and then
traced (``tracer.py``), and reports the per-layer metrics.  The last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import check_report  # noqa: E402
from corpus import write_corpus  # noqa: E402
from spans import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

# The benchmark measures the program's own defaults, so none of these reach a job.
SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FRAME_LAB_THREADS")
SETUP_SAMPLES = 3
JOB_TIMEOUT_S = 120.0
# No job starts after RUN_LIMIT_S and none outlives RUN_DEADLINE_S, counted
# from the start of the run, so a run ends within three minutes.
RUN_LIMIT_S = 150.0
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "jobs_per_min": "1/min",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "report_mb": "MB",
}

# Effective thread count of each OpenBLAS that numpy and scipy load, read
# in a child with the same environment as the jobs.
BLAS_PROBE = r"""
import ctypes, json, numpy, scipy.linalg
found = {}
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            owner = "numpy" if "numpy" in path else "scipy" if "scipy" in path else path
            found[owner] = {"library": path.rsplit("/", 1)[-1], "symbol": symbol, "threads": fn()}
            break
print(json.dumps(found))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv, env: dict, timeout: float) -> JobRun:
    """Run one process to exit through ``launch.py``, which measures it."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py"), str(write_fd), str(timeout), "--", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            pass_fds=(write_fd,),
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as result:
        try:
            out, err = proc.communicate(timeout=timeout + 30.0)
        except BaseException as exc:
            proc.terminate()  # launch.py kills its job on SIGTERM
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"launcher did not end: {argv}") from exc
            raise
        measured = result.read()
    if proc.returncode != 0 or not measured:
        raise BenchError(f"launcher failed: {err.decode(errors='replace')[-400:]}")
    return JobRun(stdout=out, stderr=err, **json.loads(measured))


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "framelab.cli", *args]


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh ``--version`` processes.  The median is reported,
    so the first run in a fresh checkout, which also writes byte-code
    caches, does not set it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        run = launch(cli("--version"), env, JOB_TIMEOUT_S)
        if run.code != 0 or not run.stdout.startswith(b"framelab "):
            raise BenchError(f"framelab --version failed: {run.stderr.decode(errors='replace')[-400:]}")
        samples.append(run.wall_s)
    return samples


def cpu_ticks() -> tuple[int, int] | None:
    """Steal and total jiffies of all CPUs from ``/proc/stat``, or None where
    it cannot be read.  Steal is time the hypervisor gave this machine's
    CPUs to others; it slows jobs without any change to the program."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(env: dict) -> dict:
    import numpy
    import scipy

    probe = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    blas = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr[-400:]}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "openblas": blas,
        "scrubbed_env": {name: os.environ.get(name) for name in SCRUBBED_ENV},
        "commit": commit_hash(),
        "source_sha256": source_digest(),
    }


@dataclass
class Outcome:
    job: Job
    run: JobRun
    directory: Path
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs one workload's jobs; pass ``k`` uses inputs generated from the
    seed and ``k``, so a longer run averages over more inputs."""

    def __init__(self, workload, seed: int, work: Path, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.started = time.perf_counter()
        self.manifests: list[dict] = []

    def corpus(self) -> Path:
        index = len(self.manifests)
        directory = self.work / f"pass-{index}"
        self.manifests.append(write_corpus(self.workload.specs, self.seed, directory, index))
        return directory

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_LIMIT_S

    def launch(self, job: Job, directory: Path, spans: Path | None = None) -> Outcome:
        argv = [str(directory / a[1:]) if a.startswith("@") else a for a in job.argv]
        if spans is None:
            argv = cli(*argv)
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), job.name, "--", *argv]
        timeout = max(5.0, min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - self.started)))
        return Outcome(job, launch(argv, self.env, timeout), directory)


def process_problems(run: JobRun) -> list[str]:
    if run.timed_out:
        return ["timed out"]
    if run.code != 0:
        return [f"exit code {run.code}"]
    if b"Traceback" in run.stderr:
        return ["traceback on stderr"]
    return []


def check(outcome: Outcome) -> list[str]:
    """Checks run after the timed loop, so they take no time from the jobs."""
    job = outcome.job
    problems = process_problems(outcome.run) or check_report(
        job.check, outcome.run.stdout, job.argv, outcome.directory, job.spec
    )
    for problem in problems:
        print(f"FAILED {job.name} ({outcome.directory.name}): {problem}", file=sys.stderr)
    return problems


def run_passes(runner: Runner, seconds: float) -> list[list[Outcome]]:
    """Whole passes over the workload's jobs; after the first, a pass starts
    only if its projected end stays within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        directory = runner.corpus()
        passes.append([])
        for job in runner.workload.jobs:
            if runner.out_of_time():
                break
            passes[-1].append(runner.launch(job, directory))
        elapsed = time.perf_counter() - start
        if runner.out_of_time() or elapsed + elapsed / len(passes) > seconds:
            break
    for outcome in (o for current in passes for o in current):
        outcome.problems = check(outcome)
    return passes


def end_to_end(setup: list[float], passes: list[list[Outcome]]) -> tuple[dict, dict]:
    outcomes = [o for current in passes for o in current]
    walls = [o.run.wall_s for o in outcomes]
    rates = [
        60.0 * sum(not o.problems for o in current) / sum(o.run.wall_s for o in current)
        for current in passes
        if current
    ]
    failed = sum(bool(o.problems) for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(walls),
        "jobs_per_min": statistics.median(rates),
        "cpu_s_per_job": statistics.fmean(o.run.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.run.maxrss_mb for o in outcomes),
        "report_mb": sum(len(o.run.stdout) for o in passes[0]) / 1e6,
    }
    detail = {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "job_s_samples": len(walls),
        "passes": len(passes),
        "setup_samples_s": setup,
        "jobs": [
            {
                "job": o.job.name,
                "pass": o.directory.name,
                "wall_s": o.run.wall_s,
                "cpu_s": o.run.cpu_s,
                "maxrss_mb": o.run.maxrss_mb,
                "stdout_bytes": len(o.run.stdout),
                "problems": o.problems,
            }
            for o in outcomes
        ],
    }
    return metrics, detail


def traced_pass(runner: Runner) -> tuple[dict, dict]:
    """Each job of one pass runs untraced, then traced on the same inputs."""
    directory = runner.corpus()
    pairs = []
    for k, job in enumerate(runner.workload.jobs):
        if runner.out_of_time():
            break
        spans = directory / f"spans-{k}.json"
        pairs.append((runner.launch(job, directory), runner.launch(job, directory, spans), spans))
    jobs_spans, overheads, records = [], [], []
    failed = 0
    for plain, traced, spans in pairs:
        plain.problems = check(plain)
        traced.problems = process_problems(traced.run)
        if traced.run.stdout != plain.run.stdout:
            traced.problems.append("traced report differs from the untraced report")
        for problem in traced.problems:
            print(f"FAILED traced {traced.job.name}: {problem}", file=sys.stderr)
        failed += bool(plain.problems) + bool(traced.problems)
        if not traced.problems and spans.exists():
            job_spans = json.loads(spans.read_text())["spans"]
            if any("counter_error" in s["counters"] for s in job_spans):
                print(f"warning: {traced.job.name}: some trace counters are missing", file=sys.stderr)
            jobs_spans.append(job_spans)
            overheads.append(traced.run.wall_s - plain.run.wall_s)
        records.append({"job": plain.job.name, "untraced_s": plain.run.wall_s, "traced_s": traced.run.wall_s})
    if not jobs_spans:
        raise BenchError("no traced job produced spans")
    detail = {"attempted": 2 * len(pairs), "failed": failed, "jobs": records}
    return layer_metrics(jobs_spans, overheads), detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    runner = Runner(WORKLOADS[name], seed, Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work)), env)
    ticks = cpu_ticks()
    try:
        if trace:
            metrics, detail = traced_pass(runner)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            setup = measure_setup(env)
            metrics, detail = end_to_end(setup, run_passes(runner, seconds))
            units = END_TO_END
        after = cpu_ticks()
        if ticks and after and after[1] > ticks[1]:
            detail["cpu_steal_frac"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "corpus": runner.manifests,
        "detail": detail,
        "result": {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def print_table(outcome: dict) -> None:
    result = outcome["result"]
    print(f"workload {outcome['workload']}  seed {outcome['seed']}  trace {outcome['trace']}")
    for name, metric in result["metrics"].items():
        extra = f"  (n={outcome['detail']['job_s_samples']})" if name == "job_s_p50" else ""
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{extra}")
    for name in ("failed_frac", "cpu_steal_frac"):
        if name in outcome["detail"]:
            print(f"  {name:<36} {outcome['detail'][name]:>14.6g} ratio")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "framelab" / "cli.py").is_file():
        print(f"error: no framelab source under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        info = environment(env)
        outcomes = [run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        print_table(outcome)
    print(json.dumps({"environment": info, "runs": outcomes}))
    if len(outcomes) == 1:
        print(json.dumps(outcomes[0]["result"]))
    else:
        print(json.dumps({o["workload"]: o["result"] for o in outcomes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
