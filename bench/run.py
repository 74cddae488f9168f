"""End-to-end benchmark of syncstab's three analysis campaigns.

Run from the repository root:

    python3 bench/run.py --workload region_map --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

One client runs one job at a time (a closed loop) as in-process
`syncstab.cli.main([...])` calls, on scenario documents generated from the
seed.  Every artifact is checked and hashed.  `--seconds` sets the length of
the fixed job list (about that much work on the reference 2-core machine).

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics: setup_s, wall_s, job_p50_s, peak_rss_mb and ok_ratio.
With `--trace 1` the job list runs once untraced and once with every public
function of the seven modules wrapped, and the JSON carries the per-layer
metrics.  Full results (environment, per-job times, failures, the artifact
digest) go to `bench/out/`, spans of traced runs beside them.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("region_map", "fault_sweep", "trajectory_io")
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def import_syncstab():
    """Import the package from this checkout's sources, never from an installation."""
    if not (SRC / "syncstab" / "__init__.py").is_file():
        raise BenchError(f"no syncstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import syncstab.cli

    if Path(syncstab.__file__).resolve().parent != SRC / "syncstab":
        raise BenchError(f"imported syncstab from {syncstab.__file__}, not from {SRC}")
    return syncstab


def setup(args, doc_dir: Path) -> list:
    """Import the package, generate the job list and write its documents."""
    import_syncstab()
    from workloads import job_count, make_jobs

    jobs = make_jobs(args.workload, args.seed, job_count(args.workload, args.seconds, args.tiny),
                     args.tiny)
    doc_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (doc_dir / f"{job.name}.scenario").write_text(job.doc_text)
    return jobs


def probe_setup(args, work: Path) -> list[float]:
    """Wall time of fresh processes that do only the set-up, from spawn to exit."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", str(work / f"probe-{k}")]
        if args.tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe did not finish within 120 s") from None
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return times


def invoke(argv: list[str]) -> tuple[object, str]:
    """One in-process CLI call; returns (exit code or None, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["syncstab.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback fails the job; the run goes on
        return None, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def run_jobs(jobs, doc_dir: Path, work: Path, tamper=None) -> dict:
    """Run the job list in order; time, check, hash and delete each job's artifacts.

    tamper(job, job_dir), when given, runs after a job and before its checks.
    """
    from checks import check_call

    digest = hashlib.sha256()
    records = []
    bytes_written = files_written = 0
    for job in jobs:
        job_dir = work / job.name
        doc = str(doc_dir / f"{job.name}.scenario")
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        for call in job.calls:
            argv = [call.command, doc, "--out", str(job_dir / call.command), *call.args]
            outcomes.append(invoke(argv))
        seconds = time.perf_counter() - start
        if tamper is not None:
            tamper(job, job_dir)
        errors = []
        for call, (code, stderr) in zip(job.calls, outcomes):
            error = check_call(call, job.doc, job_dir / call.command, code, digest,
                               f"{job.name}/{call.command}")
            if error is None and "Traceback (most recent call last)" in stderr:
                error = f"{job.name}/{call.command}: traceback on stderr"
            if error is not None:
                errors.append(f"{error}\n{stderr[-2000:]}" if stderr else error)
        if job_dir.is_dir():
            for path in job_dir.rglob("*"):
                if path.is_file():
                    bytes_written += path.stat().st_size
                    files_written += 1
            shutil.rmtree(job_dir)
        records.append({"job": job.name, "seconds": seconds, "errors": errors})
    return {
        "jobs": records,
        "wall_s": sum(r["seconds"] for r in records),
        "failed": sum(1 for r in records if r["errors"]),
        "digest": digest.hexdigest(),
        "bytes_written": bytes_written,
        "files_written": files_written,
    }


def environment(args, n_jobs: int) -> dict:
    import numpy

    from workloads import job_size

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None  # a checkout without .git has no sha; never report an enclosing repo's
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "jobs": n_jobs,
        "job_size": job_size(args.workload, args.tiny),
    }


def run(args) -> int:
    from tracer import MODULES, Tracer, layer_metrics

    out = Path(args.out).resolve()
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    doc_dir = work / "docs"
    try:
        jobs = setup(args, doc_dir)
        setup_main_s = time.perf_counter() - _PROCESS_T0
        probes = probe_setup(args, work)
        untraced = run_jobs(jobs, doc_dir, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if args.trace:
            with Tracer() as tracer:
                traced = run_jobs(jobs, doc_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(jobs)
    failed = untraced["failed"]
    seconds = [r["seconds"] for r in untraced["jobs"]]
    errors = [e for r in untraced["jobs"] for e in r["errors"]]
    result = {
        "environment": environment(args, n),
        "setup_probes_s": probes,
        "setup_main_s": setup_main_s,
        "untraced": untraced,
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s": untraced["wall_s"],
            "job_p50_s": statistics.median(seconds),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (n - failed) / n,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        failed = max(failed, traced["failed"])
        errors += [e for r in traced["jobs"] for e in r["errors"]]
        if traced["digest"] != untraced["digest"]:
            errors.append("traced artifacts differ from untraced ones")
        metrics = layer_metrics(tracer, untraced["bytes_written"], untraced["files_written"])
        metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
        metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        self_sum = sum(metrics[f"{module}.self_s"][0] for module in MODULES)
        result["traced"] = traced
        result["counter_errors"] = tracer.counter_errors
    correct = not errors
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    results_path = out / f"{stem}.json"
    results_path.write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")

    size = ", ".join(f"{k} {v}" for k, v in result["environment"]["job_size"].items())
    print(f"workload {args.workload}, seed {args.seed}: {n} jobs ({size} per job)")
    for error in errors[:20]:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_ratio':40s} {failed / n:.6g} ratio ({failed} of {n} jobs)")
    if traced is None:
        print(f"job_p50_s is the median of {n} job times")
    else:
        print(f"module self times sum to {self_sum:.6g} s = untraced wall_s "
              f"{untraced['wall_s']:.6g} s + overhead {self_sum - untraced['wall_s']:.6g} s")
    print(f"artifact sha256 {untraced['digest']}")
    print(f"results in {results_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--out", args.out]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':40s} " + " ".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = " ".join(f"{rows[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name + ' [' + unit + ']':40s} {cells}")
    if not args.trace:
        cells = " ".join(f"{rows[w]['failed'] / rows[w]['attempted']:16.6g}" for w in WORKLOADS)
        print(f"{'failed_ratio [ratio]':40s} {cells}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="length of the fixed job list, in seconds of reference work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"), help="results directory")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: two small jobs per workload")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            setup(args, Path(args.setup_only))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
