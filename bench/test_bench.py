"""Self-test of the benchmark at its tiny size: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import HERE, ROOT, WORKLOADS
from tracer import Tracer
from workloads import make_jobs

run.import_syncstab()

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--out", str(tmp_path / "out"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = make_jobs(workload, 7, 3, tiny=True)
    second = make_jobs(workload, 7, 3, tiny=True)
    assert [j.doc_text for j in first] == [j.doc_text for j in second]
    assert [j.calls for j in first] == [j.calls for j in second]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_documents(workload):
    one = make_jobs(workload, 1, 3)
    two = make_jobs(workload, 2, 3)
    assert [j.doc_text for j in one] != [j.doc_text for j in two]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "5", "--tiny",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert "failed_ratio" in proc.stdout


def _drop_last_row(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _flip_first_label(path: Path) -> None:
    text = path.read_text()
    flipped = text.replace(",unstable\n", ",stable\n", 1)
    path.write_text(flipped if flipped != text else text.replace(",stable\n", ",unstable\n", 1))


def _nan_value(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    path.write_text("".join(lines))


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:-5])


CORRUPTIONS = [
    ("trajectory_io", "simulate/trajectory.csv", _drop_last_row),
    ("trajectory_io", "design/after.csv", _nan_value),
    ("trajectory_io", "index/summary.json", _truncate),
    ("fault_sweep", "sweep/sweep.csv", _drop_last_row),
    ("region_map", "region/grid.csv", _flip_first_label),
]


@pytest.mark.parametrize("workload,artifact,corrupt", CORRUPTIONS)
def test_a_corrupted_artifact_raises_failed_ratio(tmp_path, workload, artifact, corrupt):
    jobs = make_jobs(workload, 3, 2, tiny=True)
    doc_dir = tmp_path / "docs"
    doc_dir.mkdir()
    for job in jobs:
        (doc_dir / f"{job.name}.scenario").write_text(job.doc_text)

    clean = run.run_jobs(jobs, doc_dir, tmp_path / "clean")
    assert clean["failed"] == 0, clean["jobs"]
    again = run.run_jobs(jobs, doc_dir, tmp_path / "again")
    assert again["digest"] == clean["digest"]

    def tamper(job, job_dir):
        if job.name == jobs[0].name:
            corrupt(job_dir / artifact)

    tampered = run.run_jobs(jobs, doc_dir, tmp_path / "tampered", tamper=tamper)
    assert tampered["failed"] == 1
    assert tampered["jobs"][0]["errors"] and not tampered["jobs"][1]["errors"]
    assert tampered["digest"] != clean["digest"]


def test_tracer_wraps_every_binding_site_and_restores_it(tmp_path):
    import syncstab.cli
    import syncstab.simulate

    original = syncstab.simulate.simulate_reduced
    jobs = make_jobs("trajectory_io", 1, 1, tiny=True)
    doc_dir = tmp_path / "docs"
    doc_dir.mkdir()
    (doc_dir / f"{jobs[0].name}.scenario").write_text(jobs[0].doc_text)
    with Tracer() as tracer:
        assert syncstab.cli.simulate_reduced.__wrapped__ is original
        assert sys.modules["syncstab.design"].design is syncstab.cli.run_design
        assert run.run_jobs(jobs, doc_dir, tmp_path / "work")["failed"] == 0
    assert syncstab.cli.simulate_reduced is original
    assert syncstab.simulate_reduced is original
    self_s, calls = tracer.self_times()
    assert calls["cli.main"] == 5 and calls["simulate.simulate_reduced"] == 3
    assert calls["design.design"] == 1 and tracer.counts["reduced_steps"] == 3000
    spans = [s for s in tracer.spans if s[2] == "cli.main"]
    assert all(parent == -1 for _, parent, *_ in spans)
    traced = sum(end - start for *_, start, end in spans)
    assert sum(self_s.values()) == pytest.approx(traced)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(tmp_path, "--workload", "fault_sweep", "--seed", "1", "--tiny", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
