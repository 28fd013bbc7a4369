"""Tests of the benchmark itself: corpus determinism, output checks, span
arithmetic and the traced run.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from checks import check_report  # noqa: E402
from corpus import FrameSpec, write_corpus  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import Job, Workload, analyze, search, simulate  # noqa: E402

SPECS = (
    FrameSpec("r3x7", 3, 7, "real", False, zeros=1),
    FrameSpec("c3x6", 3, 6, "complex", False),
    FrameSpec("p3x6", 3, 6, "complex", True),
    FrameSpec("two3x6", 3, 6, "real", False, support=2),
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_corpus_is_byte_identical_for_the_same_seed(tmp_path):
    first = write_corpus(SPECS, 11, tmp_path / "a")
    second = write_corpus(SPECS, 11, tmp_path / "b")
    other_seed = write_corpus(SPECS, 12, tmp_path / "c")
    other_pass = write_corpus(SPECS, 11, tmp_path / "d", index=1)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    for other in (other_seed, other_pass):
        assert all(other[name]["frame"]["sha256"] != first[name]["frame"]["sha256"] for name in first)
    assert first["r3x7"]["zero_probabilities"] == 1
    assert first["two3x6"]["zero_probabilities"] == 4
    assert first["c3x6"]["field"] == "complex" and first["p3x6"]["parseval"]


def _runner(tmp_path: Path, *jobs: Job) -> run.Runner:
    return run.Runner(Workload("test", SPECS, jobs), 5, tmp_path, run.child_env())


def _corrupt(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc).encode()


def _scale(value: float) -> float:
    return value * (1.0 + 1e-6)


CORRUPTIONS = [
    (analyze("r3x7"), lambda d: d["measures"][0].update(value=_scale(d["measures"][0]["value"]))),
    (analyze("c3x6"), lambda d: d["measures"][3].update(value=_scale(d["measures"][3]["value"]))),
    (search("c3x6", "--restarts", "1"), lambda d: d["searches"][0].update(best_value=_scale(d["searches"][0]["best_value"]))),
    (simulate("two3x6", 3, 200), lambda d: d["worst_case"].update(norm_value=_scale(d["worst_case"]["norm_value"]))),
]


@pytest.mark.parametrize("job,edit", CORRUPTIONS, ids=[job.name for job, _ in CORRUPTIONS])
def test_a_report_with_one_corrupted_value_counts_as_failed(tmp_path, job, edit):
    runner = _runner(tmp_path, job)
    good = runner.launch(job, runner.corpus())
    assert run.check(good) == []
    bad = run.Outcome(job, replace(good.run, stdout=_corrupt(good.run.stdout, edit)), good.directory)
    bad.problems = run.check(bad)
    assert bad.problems
    _, detail = run.end_to_end([1.0], [[good, bad]])
    assert detail["failed"] == 1 and detail["failed_frac"] == 0.5


def test_examples_report_with_a_failed_check_counts_as_failed():
    report = {"report": "examples", "checks": [{"example": "A", "quantity": "w", "passed": False}], "all_pass": True}
    assert check_report("examples", json.dumps(report).encode(), (), Path("."), None)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.5},
        {"id": 4, "parent": 3, "start": 2.5, "end": 3.0},
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 1.5, 2: 1.0, 3: 1.0, 4: 0.5})


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 4.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_traced_report_matches_untraced_report(tmp_path):
    job = analyze("p3x6")
    runner = _runner(tmp_path, job)
    directory = runner.corpus()
    plain = runner.launch(job, directory)
    traced = runner.launch(job, directory, tmp_path / "spans.json")
    assert run.check(plain) == [] and traced.run.code == 0
    assert traced.run.stdout == plain.run.stdout
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {span["name"] for span in spans}
    assert {"cli.import", "cli.main", "erasures.spectral_measure", "search.certify_canonical_optimal"} <= names
    assert all(span["end"] >= span["start"] for span in spans)
