import ast
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
import framelab.cli as cli
from framelab.fileio import load_frame_file
from framelab.reporting import write_report
from conftest import conditioned_matrix, random_parseval_frame, report_text, uniform_profile

PLANE_DOC = """
{
  "dim": 2,
  "count": 3,
  "field": "real",
  "vectors": [[[1, 0], [0, 0]],
              [[0, 0], [1, 0]],
              [[1, 0], [1, 0]]],
  "probabilities": [0.25, 0.25, 0.5]
}
"""

TIGHT_DOC = """
{
  "dim": 2,
  "count": 4,
  "field": "real",
  "vectors": [[[1, 0], [0, 0]],
              [[0, 0], [1, 0]],
              [[1, 0], [1, 0]],
              [[1, 0], [-1, 0]]],
  "probabilities": [0.5, 0.5, 0.0, 0.0]
}
"""


@pytest.fixture
def plane_path(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(PLANE_DOC, encoding="utf-8")
    return path


@pytest.fixture
def tight_path(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(TIGHT_DOC, encoding="utf-8")
    return path


def run(capsys, argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_report(capsys, plane_path):
    code, out, _ = run(capsys, ["analyze", plane_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == "analyze"
    assert doc["input"]["dim"] == 2 and doc["input"]["count"] == 3
    spectral_one = next(m for m in doc["measures"] if m["kind"] == "spectral" and m["m"] == 1)
    assert spectral_one["value"] == pytest.approx(4 / 3, abs=1e-9)
    assert spectral_one["argmax_sets"] == [[3]]
    by_id = {c["condition_id"]: c for c in doc["certificates"]}
    assert by_id["one_uniform_pair"]["conclusion"] is False
    # the plane frame is one component, and only vector 3 attains the maximum
    for condition_id in ("canonical_spectral_one", "canonical_norm_one"):
        assert by_id[condition_id]["conclusion"] is False
        assert by_id[condition_id]["partition"]["witness"] == []
        assert by_id[condition_id]["partition"]["crossing_components"] == 1
    # the plane's canonical pair is not one-uniform (its m = 1 value is 4/3)
    # and the plane frame is not Parseval (S = [[2, 1], [1, 2]])
    pair_two = by_id["spectral_two_optimal_pair"]
    assert pair_two["hypotheses"] == [
        {
            "description": "pair attains the one-erasure spectral optimum",
            "holds": False,
            "witness": pytest.approx(1 / 3, abs=1e-12),
        }
    ]
    assert pair_two["conclusion"] is False and pair_two["details"] == {}
    prediction = by_id["two_erasure_prediction"]
    assert len(prediction["hypotheses"]) == 2
    assert not all(h["holds"] for h in prediction["hypotheses"])
    assert prediction["conclusion"] is None and prediction["details"] == {}
    parseval = by_id["parseval_equivalence"]
    assert parseval["hypotheses"] == [
        {"description": "frame operator equals the identity", "holds": False, "witness": 1.0}
    ]
    assert parseval["conclusion"] is False and parseval["details"] == {}


# The certificates of an analyze report, in report order.
ANALYZE_CONDITION_IDS = [
    "one_uniform_pair",
    "two_uniform_pair",
    "norm_one_optimal_pair",
    "spectral_two_optimal_pair",
    "canonical_spectral_one",
    "canonical_norm_one",
    "canonical_spectral_two",
    "two_erasure_prediction",
    "uniform_parseval",
    "parseval_equivalence",
]


def test_every_analyze_certificate_has_one_shape(capsys, plane_path, tight_path, tmp_path):
    # the plane fails the hypotheses of the two-erasure pair certificate, the
    # prediction and the Parseval report; the tight frame's pair is
    # one-uniform, and the orthonormal basis is Parseval
    basis_path = tmp_path / "basis.json"
    basis = {"dim": 2, "count": 2, "field": "real", "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    basis_path.write_text(json.dumps({**basis, "probabilities": [0.4, 0.6]}), encoding="utf-8")
    keys = ["condition_id", "hypotheses", "conclusion", "details"]
    for path in (plane_path, tight_path, basis_path):
        code, out, _ = run(capsys, ["analyze", path, "--m", "1"])
        assert code == 0
        certificates = json.loads(out)["certificates"]
        assert [entry["condition_id"] for entry in certificates] == ANALYZE_CONDITION_IDS
        for entry in certificates:
            partition = entry["condition_id"] in ("canonical_spectral_one", "canonical_norm_one")
            assert list(entry) == keys + ["partition"] * partition, entry["condition_id"]
            # each condition is stated once, whatever the frame's size
            assert 1 <= len(entry["hypotheses"]) <= 3, entry["condition_id"]


PREDICTION_KEYS = ["cross_constant", "second_level_value"]


def recomputation_case(name):
    """A frame document, and whether its canonical dual is one-uniform, has a
    predicted two-erasure value and is Parseval."""
    if name == "plane":
        return json.loads(PLANE_DOC), False, False, False
    if name == "parseval":
        tight = json.loads(TIGHT_DOC)
        vectors = (np.array(tight["vectors"]) / np.sqrt(3.0)).tolist()
        return {**tight, "vectors": vectors}, True, False, True
    if name == "mercedes":
        angles = (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        vectors = [[[np.cos(a), 0.0], [np.sin(a), 0.0]] for a in angles]
        document = {"dim": 2, "count": 3, "field": "real", "vectors": vectors}
        return {**document, "probabilities": [1 / 3] * 3}, True, True, False
    return random_frame_document(71, 3, 7, "complex"), False, False, False


def as_complex(pairs):
    """The complex array of nested ``[re, im]`` pairs, bit for bit."""
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


@pytest.mark.parametrize("name", ["plane", "parseval", "mercedes", "complex"])
def test_report_writes_each_fact_once(capsys, tmp_path, name):
    """Each certificate's details repeat nothing the report keeps elsewhere:
    the per-index values, the weighted diagonal, the squared norms, the
    order of the weights, the partitions' remaining indices, the
    prediction's one-erasure value, tie set and predicted value, the
    unhalved prediction and the two-erasure bound are recomputed from the
    kept sections, and equal the entries as their formulas (kept here as
    the oracle) give them."""
    document, one_uniform, predicted, parseval = recomputation_case(name)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", path, "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert [list(c["details"]) for c in doc["certificates"]] == [
        [],
        [],
        [],
        ["cross_target"] * one_uniform,
        [],
        ["canonical_unique"],
        ["cross_budget", "predicted_two_erasure_value"],
        PREDICTION_KEYS * predicted,
        [],
        ["spectral_gap", "norm_gap"] * parseval,
    ]
    content = load_frame_file(path)
    frame = content.frame
    profile = fl.weights_from_probabilities(content.probabilities, frame.dim)
    pair = fl.canonical_dual(frame)
    p, q = np.array(doc["weights"]["probabilities"]), np.array(doc["weights"]["weights"])
    f, g = as_complex(doc["frame"]["vectors"]), as_complex(doc["canonical_dual"]["dual_vectors"])
    diagonal = as_complex(doc["canonical_dual"]["cross_gram_diagonal"])

    # per-index values: the m = 1 tables, and q_i |<f_i, g_i>|, q_i ||f_i|| ||g_i||
    tables = {m["kind"]: [row["value"] for row in m["per_set_values"]] for m in doc["measures"]}
    assert tables["spectral"] == fl.spectral_measure(pair, profile, 1).per_set_values.tolist()
    assert tables["norm"] == fl.norm_measure(pair, profile, 1).per_set_values.tolist()
    assert_allclose(tables["spectral"], q * np.abs(diagonal), rtol=1e-12)
    norms = np.linalg.norm(f, axis=1) * np.linalg.norm(g, axis=1)
    assert_allclose(tables["norm"], q * norms, rtol=1e-12)
    # the weighted diagonal q_i <f_i, g_i>
    weighted = profile.weights * np.conj(np.diagonal(pair.cross_gram))
    assert (q * np.conj(diagonal)).tobytes() == weighted.tobytes()
    # the squared norms
    squared_norms = np.linalg.norm(frame.matrix, axis=0) ** 2
    assert_allclose(np.sum(np.abs(f) ** 2, axis=1), squared_norms, rtol=0, atol=1e-12)
    # the weights table's order: by probability, which orders the weights too
    order = sorted(range(p.size), key=lambda i: (p[i], i))
    assert order == np.argsort(profile.probabilities, kind="stable").tolist()
    assert all(q[a] <= q[b] for a, b in zip(order, order[1:]))
    # the two-erasure lower bound over one-uniform duals
    by_id = {c["condition_id"]: c for c in doc["certificates"]}
    bound = by_id["canonical_spectral_two"]["details"]["predicted_two_erasure_value"]
    assert bound == pytest.approx(fl.optimal_values(profile).spectral_two, abs=1e-12)
    # a partition's remaining indices are those outside the attaining set,
    # which is the m = 1 measure's argmax sets
    argmax = {m["kind"]: [s[0] for s in m["argmax_sets"]] for m in doc["measures"]}
    for kind in ("spectral", "norm"):
        partition = by_id[f"canonical_{kind}_one"]["partition"]
        assert list(partition) == ["threshold", "attaining", "witness", "crossing_components"]
        assert partition["attaining"] == argmax[kind]
    if predicted:
        # the prediction's one-erasure value is canonical_spectral_one's
        # threshold, its tie set that certificate's attaining set, and its
        # predicted value its own conclusion, from R1 and the second-largest
        # one-erasure value
        prediction = by_id["two_erasure_prediction"]
        partition = by_id["canonical_spectral_one"]["partition"]
        r1, c = partition["threshold"], prediction["details"]["cross_constant"]
        m2 = prediction["details"]["second_level_value"]
        assert m2 == sorted(tables["spectral"])[-2]
        assert prediction["conclusion"] == 0.5 * (r1 + m2 + np.sqrt((r1 - m2) ** 2 + 4.0 * c))
    if name == "mercedes":
        # every index ties, and the unhalved variant R1 + sqrt(4c) exceeds
        # the prediction by sqrt(c)
        assert partition["attaining"] == [1, 2, 3]
        unhalved = r1 + 2.0 * np.sqrt(c)
        assert unhalved == pytest.approx(r1 + float(np.sqrt(4.0 * c)), abs=1e-12)
        discrepancy = unhalved - prediction["conclusion"]
        assert discrepancy == pytest.approx(np.sqrt(c), abs=1e-12)


def test_analyze_certificates_are_optimality_certificates(capsys, plane_path, tight_path):
    for path in (plane_path, tight_path):
        code, out, _ = run(capsys, ["analyze", path, "--m", "1"])
        assert code == 0
        document = json.loads(out)
        reported = {c["condition_id"]: c for c in document["certificates"]}
        values = {m["kind"]: m["value"] for m in document["measures"]}
        content = load_frame_file(path)
        profile = fl.weights_from_probabilities(content.probabilities, content.frame.dim)
        certificates = fl.analyze_certificates(content.frame, profile)
        assert [c.condition_id for c in certificates] == ANALYZE_CONDITION_IDS
        assert all(isinstance(c, fl.OptimalityCertificate) for c in certificates)
        for cert in certificates:
            if cert.condition_id in ("canonical_spectral_one", "canonical_norm_one"):
                partition = json.loads(report_text(cert.partition))
                assert partition == reported[cert.condition_id]["partition"]
                # the threshold is the canonical dual's m = 1 measure
                assert cert.partition.threshold == values[cert.condition_id.split("_")[1]]
            else:
                assert not hasattr(cert, "partition")


def test_analyze_is_deterministic(capsys, plane_path):
    _, first, _ = run(capsys, ["analyze", plane_path])
    _, second, _ = run(capsys, ["analyze", plane_path])
    assert first == second


def test_every_report_is_the_compact_stdlib_layout(capsys, plane_path):
    """Every subcommand's stdout is what the standard encoder writes, with
    the separators ``","`` and ``":"``, for the parsed document: per-set
    tables at every depth, searches, simulations and the worked examples."""
    for argv in (
        ["analyze", plane_path, "--m", "1", "--m", "2", "--m", "3", "--measure", "both"],
        ["search", plane_path, "--measure", "both"],
        ["simulate", plane_path, "--m", "2", "--trials", "500"],
        ["examples"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), separators=(",", ":"), allow_nan=False) + "\n"


def test_analyze_out_file(capsys, plane_path, tmp_path):
    out_path = tmp_path / "report.json"
    argv = ["analyze", plane_path, "--m", "1", "--m", "2", "--m", "3"]
    code, out, _ = run(capsys, [*argv, "--out", out_path])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["report"] == "analyze"
    assert [m["m"] for m in doc["measures"]] == [1, 1, 2, 2, 3, 3]
    _, stdout, _ = run(capsys, argv)
    assert out_path.read_bytes() == stdout.encode("utf-8")


def test_non_finite_table_value_writes_nothing(capsys, plane_path, tmp_path, monkeypatch):
    # analyze evaluates the canonical dual's measures through optimality's memo
    spectral_measure = fl.optimality.spectral_measure

    def with_nan(*args):
        report = spectral_measure(*args)
        values = report.per_set_values.copy()
        values[-1] = np.nan
        return dataclasses.replace(report, per_set_values=values)

    monkeypatch.setattr(fl.optimality, "spectral_measure", with_nan)
    out_path = tmp_path / "report.json"
    for extra in ([], ["--out", out_path]):
        code, out, err = run(capsys, ["analyze", plane_path, "--m", "2", *extra])
        assert code == 2
        assert out == ""
        assert "non-finite value in the spectral m=2 per-set table" in err
    assert not out_path.exists()


def test_analyze_tight_certificates(capsys, tight_path):
    code, out, _ = run(capsys, ["analyze", tight_path, "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    by_id = {c["condition_id"]: c for c in doc["certificates"]}
    assert by_id["one_uniform_pair"]["conclusion"] is True
    assert by_id["canonical_spectral_one"]["conclusion"] is True
    assert by_id["canonical_norm_one"]["details"]["canonical_unique"] is True
    assert by_id["spectral_two_optimal_pair"]["conclusion"] is False


def test_probability_within_rounding_of_one_exits_two(capsys, tmp_path):
    doc = {
        "dim": 1,
        "count": 3,
        "field": "real",
        "vectors": [[[1, 0]], [[1, 0]], [[2, 0]]],
        "probabilities": [1 - 1e-13, 0.0, 0.0],
    }
    path = tmp_path / "certain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["analyze", path], ["search", path], ["simulate", path, "--trials", "10"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "infinite weight" in err


def test_analyze_rejects_bad_m(capsys, plane_path):
    code, _, err = run(capsys, ["analyze", plane_path, "--m", "9"])
    assert code == 2
    assert "outside" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", tmp_path / "absent.json"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["analyze", "examples"])
def test_unwritable_out_is_an_input_error(capsys, plane_path, tmp_path, command):
    out_path = tmp_path / "missing" / "report.json"
    argv = ["analyze", plane_path] if command == "analyze" else ["examples"]
    code, out, err = run(capsys, [*argv, "--out", out_path])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write the report to {out_path}: ")
    assert not out_path.parent.exists()


needs_full_device = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def assert_write_error(code, err, target):
    """Exit 2 with one ``error:`` line; a second failed flush of stdout at
    interpreter exit would add an ``Exception ignored`` report."""
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot write the report to {target}: ")
    assert "Exception ignored" not in err


@needs_full_device
def test_out_on_a_full_device_is_an_input_error(capsys, plane_path):
    code, out, err = run(capsys, ["analyze", plane_path, "--out", "/dev/full"])
    assert out == ""
    assert_write_error(code, err, "/dev/full")


@needs_full_device
def test_stdout_on_a_full_device_is_an_input_error(plane_path):
    # a buffered stdout keeps this 1.6 kB report after its flush fails, and
    # the interpreter's flush at exit would fail on it again (exit 120)
    argv = ["simulate", str(plane_path), "--trials", "100"]
    command, env = framelab_command(argv, PYTHONUNBUFFERED="")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert_write_error(proc.returncode, proc.stderr.decode(), "stdout")


@needs_full_device
def test_stdout_closed_by_its_reader_is_an_input_error(tmp_path):
    # the 837 kB report is far larger than a pipe's buffer, so writes fail
    # once the reader has closed its end
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(random_frame_document(66, 8, 60, "real")), encoding="utf-8")
    command, env = framelab_command(["analyze", str(path), "--m", "2"], PYTHONUNBUFFERED="")
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert_write_error(code, err, "stdout")


def test_erasure_count_over_the_cap_is_an_input_error(capsys, tmp_path, monkeypatch):
    # C(60, 5) = 5,461,512 and C(60, 10) = 75,394,027,566 sets exceed the cap;
    # simulate takes its worst case before it draws a trial
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(random_frame_document(66, 8, 60, "real")), encoding="utf-8")

    def no_draws(*args):
        raise AssertionError("simulate drew uniforms before the cap check")

    monkeypatch.setattr(fl.erasures, "_uniforms", no_draws)
    for argv in (["analyze", path, "--m", "5"], ["simulate", path, "--m", "10", "--trials", "20000"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "exceed the cap of 1000000" in err


def test_certificates_enumerate_no_erasure_sets(capsys, tmp_path, monkeypatch):
    # C(6, 2) = 15 sets of two erasures exceed a cap of 10, which an
    # analyze --m 1 never meets: its certificates read the m = 1 measures alone
    monkeypatch.setattr(fl.erasures, "DEFAULT_MAX_SETS", 10)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(random_frame_document(26, 2, 6, "real")), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", path, "--m", "1"])
    assert code == 0, err
    assert [m["m"] for m in json.loads(out)["measures"]] == [1, 1]
    code, out, err = run(capsys, ["analyze", path, "--m", "2"])
    assert code == 2 and "15 erasure sets of size 2 exceed the cap of 10" in err


# deeper than the JSON decoder's recursion limit, and a file that is not UTF-8
DEEP_TEXT = "[" * 200_000
NON_UTF8 = b"\xff\xfe{}"
NON_UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
# a frame entry that is a 5,001-digit integer, over Python's conversion limit
LONG_INTEGER_DOC = PLANE_DOC.replace("[[[1, 0]", "[[[1" + "0" * 5000 + ", 0]", 1)
LONG_INTEGER_ERROR = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits;"
    " use sys.set_int_max_str_digits() to increase the limit"
)


def as_bytes(text):
    return text if isinstance(text, bytes) else text.encode("utf-8")


@pytest.mark.parametrize(
    "frame_text, probs_text, message",
    [
        ("[1, 2]", None, "{frame}: expected a JSON object at the top level"),
        (
            '{"dim": 0, "count": 0, "field": "real", "vectors": []}',
            None,
            "{frame}: dimension must be positive, got 0",
        ),
        (
            '{"dim": 3, "count": 2, "field": "real", "vectors": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}',
            None,
            "{frame}: 2 vectors cannot span a 3-dimensional space",
        ),
        (PLANE_DOC, "[0.5,", "{probs}: not valid JSON (Expecting value: line 1 column 6 (char 5))"),
        (PLANE_DOC, "", "cannot read probability file {probs}: [Errno 21] Is a directory: '{probs}'"),
        (DEEP_TEXT, None, "{frame}: not valid JSON (nested too deeply)"),
        (PLANE_DOC, DEEP_TEXT, "{probs}: not valid JSON (nested too deeply)"),
        (NON_UTF8, None, "cannot read frame file {frame}: " + NON_UTF8_ERROR),
        (PLANE_DOC, NON_UTF8, "cannot read probability file {probs}: " + NON_UTF8_ERROR),
        (LONG_INTEGER_DOC, None, "{frame}: not valid JSON (" + LONG_INTEGER_ERROR + ")"),
    ],
    ids=[
        "non-object",
        "zero-dim",
        "too-few-vectors",
        "probs-invalid-json",
        "probs-unreadable",
        "deep",
        "probs-deep",
        "non-utf8",
        "probs-non-utf8",
        "long-integer",
    ],
)
def test_input_file_defects_exit_two(capsys, tmp_path, frame_text, probs_text, message):
    frame = tmp_path / "frame.json"
    frame.write_bytes(as_bytes(frame_text))
    argv = ["analyze", frame]
    if probs_text is not None:
        # an empty text stands for a path that cannot be read: a directory
        probs = tmp_path / "probs"
        if probs_text:
            probs.write_bytes(as_bytes(probs_text))
        else:
            probs.mkdir()
        argv += ["--probs", probs]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    expected = message.format(frame=frame, probs=tmp_path / "probs")
    assert err.splitlines() == [f"error: {expected}"]


def test_analyze_requires_probabilities(capsys, tmp_path):
    doc = json.loads(PLANE_DOC)
    del doc["probabilities"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2
    assert "probabilities" in err


def test_separate_probabilities_win_with_warning(capsys, plane_path, tmp_path):
    probs = tmp_path / "p.json"
    probs.write_text("[0.5, 0.25, 0.25]", encoding="utf-8")
    code, out, err = run(capsys, ["analyze", plane_path, "--probs", probs])
    assert code == 0
    assert "separate file wins" in err
    doc = json.loads(out)
    assert doc["input"]["probability_source"] == "separate_file"
    assert_allclose(doc["weights"]["weights"], [2.0, 4 / 3, 4 / 3], atol=1e-12)


def test_numeric_failure_exit_code(capsys, tmp_path):
    doc = {
        "dim": 2,
        "count": 2,
        "field": "real",
        "vectors": [[[1, 0], [0, 0]], [[0, 0], [1e-7, 0]]],
        "probabilities": [0.5, 0.5],
    }
    path = tmp_path / "illcond.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["analyze", path])
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--m", "1", "--m", "2"], ["search", "--measure", "both"], ["simulate", "--trials", "2000"]],
    ids=["analyze", "search", "simulate"],
)
def test_ill_conditioned_frame_runs(capsys, tmp_path, argv):
    # cond(S) = 1e8: the canonical dual from the frame's singular value
    # decomposition reconstructs to about 1e-12; one solved with S itself
    # would miss the 1e-10 reconstruction check
    rng = np.random.default_rng(9)
    matrix = conditioned_matrix(rng, 4, 9, 1e-4)
    doc = {
        "dim": 4,
        "count": 9,
        "field": "complex",
        "vectors": [[[z.real, z.imag] for z in column] for column in matrix.T],
        "probabilities": rng.dirichlet(np.ones(9)).tolist(),
    }
    path = tmp_path / "conditioned.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, [argv[0], path, *argv[1:]])
    assert code == 0, err
    assert json.loads(out)


@pytest.mark.parametrize("command", ["analyze", "search", "simulate"])
@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "1e400", "1" + "0" * 400], ids=["NaN", "Infinity", "1e400", "int400"]
)
@pytest.mark.parametrize("place", ["vector", "probability"])
def test_non_finite_input_is_an_input_error(capfd, tmp_path, command, token, place):
    old = "[[1, 0], [1, 0]]" if place == "vector" else "0.5]"
    new = f"[[{token}, 0], [1, 0]]" if place == "vector" else f"{token}]"
    path = tmp_path / "nonfinite.json"
    path.write_text(PLANE_DOC.replace(old, new), encoding="utf-8")
    code, out, err = run(capfd, [command, path])
    assert code == 2
    assert out == ""
    assert "must be finite" in err and str(path) in err


def test_lapack_failure_is_a_numeric_failure(capsys, plane_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("QR factorization failed")

    # only the spectral search's factor of its Gram matrix calls qr
    monkeypatch.setattr(np.linalg, "qr", fail)
    code, out, err = run(capsys, ["search", plane_path, "--measure", "spectral"])
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_eigenvalue_failure_is_a_numeric_failure(capsys, tmp_path, monkeypatch):
    # every m >= 4 set goes through numpy's stacked eigenvalue solver
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = tmp_path / "frame.json"
    path.write_text(json.dumps(random_frame_document(67, 2, 5, "real")), encoding="utf-8")
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code, out, err = run(capsys, ["analyze", path, "--m", "4"])
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["numeric failure: Eigenvalues did not converge"]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_exit_code_of_every_error_class(capsys, monkeypatch):
    errors = {cls.__name__: cls for cls in subclasses(fl.FrameLabError) if cls.__module__ == "framelab.errors"}
    errors.update(FrameLabError=fl.FrameLabError)
    errors.update(ValueError=ValueError, LinAlgError=np.linalg.LinAlgError, MemoryError=MemoryError)
    codes = {}
    for name, error in errors.items():

        def fail(args, error=error):
            raise error("failed")

        monkeypatch.setattr(cli, "cmd_examples", fail)
        codes[name], _, _ = run(capsys, ["examples"])
    assert codes == {
        "InputError": 2,
        "NotDual": 3,
        "FrameLabError": 3,
        "ValueError": 2,
        "LinAlgError": 3,
        "MemoryError": 2,
    }


def test_out_of_memory_is_an_input_error(capsys, monkeypatch, plane_path):
    # the input sets the size (simulate --trials 1000000000000 asks numpy for
    # 7.28 TiB); raised here, since a real allocation that large can succeed
    # under overcommit and then run for days
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def fail(*args):
        raise MemoryError(message)

    monkeypatch.setattr(fl.erasures, "simulate_erasure_channel", fail)
    code, out, err = run(capsys, ["simulate", plane_path, "--trials", "1000000000000"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: out of memory: {message}"]


def test_search_report(capsys, plane_path):
    code, out, _ = run(
        capsys, ["search", plane_path, "--measure", "spectral", "--restarts", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["searches"]
    assert entry["kind"] == "spectral"
    assert entry["canonical_value"] == pytest.approx(4 / 3, abs=1e-9)
    assert entry["best_value"] <= 10 / 9 + 1e-6
    assert entry["gap"] > 0.1
    assert entry["converged"] is True
    assert entry["best_dual_measures"]["spectral_two"] >= entry["best_dual_measures"]["spectral_one"]


def test_search_unique_dual_notice(capsys, tmp_path):
    doc = {
        "dim": 2,
        "count": 2,
        "field": "real",
        "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "probabilities": [0.5, 0.5],
    }
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["search", path])
    assert code == 0
    doc = json.loads(out)
    for entry in doc["searches"]:
        assert "unique" in entry["note"]
        assert entry["gap"] == 0.0


def test_simulate_report(capsys, plane_path):
    code, out, _ = run(
        capsys, ["simulate", plane_path, "--m", "1", "--trials", "2000", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["simulation"]["trials"] == 2000
    assert doc["worst_case"]["within_bound"] is True
    assert doc["simulation"]["max_error"] <= doc["worst_case"]["norm_value"] + 1e-9


def test_simulate_zero_trials_usage_error(capsys, plane_path):
    code, _, err = run(capsys, ["simulate", plane_path, "--trials", "0"])
    assert code == 2
    assert "trials" in err


def test_simulate_excessive_m(capsys, plane_path):
    code, _, _ = run(capsys, ["simulate", plane_path, "--m", "5", "--trials", "10"])
    assert code == 2


def test_simulate_negative_m_usage_error(capsys, plane_path):
    code, _, err = run(capsys, ["simulate", plane_path, "--m", "-1", "--trials", "10"])
    assert code == 2
    assert "m=-1" in err


def test_simulate_seed_range(capsys, plane_path):
    code, out, err = run(capsys, ["simulate", plane_path, "--trials", "10", "--seed", str(2**64 - 1)])
    assert code == 0, err
    assert json.loads(out)["simulation"]["rng"] == "splitmix64"
    for seed in ("-1", "18446744073709551616"):
        code, out, err = run(capsys, ["simulate", plane_path, "--trials", "10", "--seed", seed])
        assert code == 2
        assert out == ""
        assert f"seed {seed} " in err


def framelab_command(code_or_argv, **env_overrides):
    """The command and environment that run framelab from this checkout in a
    fresh interpreter."""
    src = str(Path(fl.__file__).resolve().parents[1])
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["-c", code_or_argv] if isinstance(code_or_argv, str) else ["-m", "framelab.cli", *code_or_argv]
    return [sys.executable, *args], env


def framelab_process(code_or_argv, **env_overrides):
    """Run framelab from this checkout in a fresh interpreter."""
    command, env = framelab_command(code_or_argv, **env_overrides)
    return subprocess.run(command, env=env, capture_output=True, timeout=120, check=True)


def random_frame_document(seed, dim, count, field, zero_mass=0):
    """A random frame file with Dirichlet probabilities, the first
    ``zero_mass`` of them zero."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((dim, count))
    if field == "complex":
        matrix = matrix + 1j * rng.standard_normal((dim, count))
    p = rng.dirichlet(np.ones(count))
    if zero_mass:
        p[:zero_mass] = 0.0
        p /= p.sum()
    return {
        "dim": dim,
        "count": count,
        "field": field,
        "vectors": [[[z.real, z.imag] for z in column] for column in matrix.T],
        "probabilities": p.tolist(),
    }


def test_simulate_stdout_independent_of_blas_threads(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(random_frame_document(61, 16, 40, "complex")), encoding="utf-8")
    # a 32x96 search, whose stdout differed in its last digits between one and
    # two BLAS threads while the thread cap did not reach numpy
    large = tmp_path / "large.json"
    large.write_text(json.dumps(random_frame_document(64, 32, 96, "complex")), encoding="utf-8")
    reports = {}
    for argv in (
        ["simulate", str(path), "--m", "2", "--trials", "20000", "--seed", "5"],
        ["analyze", str(path), "--m", "1", "--m", "2", "--m", "3", "--measure", "both"],
        ["search", str(large), "--measure", "both"],
    ):
        outputs = [
            framelab_process(argv, OPENBLAS_NUM_THREADS=threads).stdout for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1], argv[0]
        reports[argv[0]] = json.loads(outputs[0].decode())
    assert reports["simulate"]["simulation"]["trials"] == 20000
    assert [len(m["per_set_values"]) for m in reports["analyze"]["measures"]] == [40, 40, 780, 780, 9880, 9880]
    assert [entry["converged"] for entry in reports["search"]["searches"]] == [True, True]


def test_import_framelab_loads_no_module():
    probe = "import framelab, sys\nprint(*sorted(m for m in sys.modules if m.startswith(('framelab', 'numpy'))))\n"
    assert framelab_process(probe).stdout.split() == [b"framelab"]


def modules_loaded_by(code):
    """The last line ``code`` prints in a fresh interpreter, and the framelab
    modules and numpy loaded when it ends."""
    probe = code + "import sys\nprint(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('framelab')))\n"
    *_, printed, loaded = framelab_process(probe).stdout.decode().splitlines()
    return printed, set(loaded.split())


def test_version_help_and_argument_errors_load_no_numeric_layer():
    code = (
        "import contextlib, io\n"
        "from framelab.cli import main\n"
        "codes = []\n"
        "for argv in (['--version'], ['analyze', '--help'], ['analyze']):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(*codes)\n"
    )
    assert modules_loaded_by(code) == ("0 0 2", {"framelab", "framelab.cli"})


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["simulate", "--trials", "100"], {"framelab.optimality", "framelab.search"}),
        (["search"], {"framelab.optimality"}),
        # the plane frame is not Parseval, so no hidden search runs
        (["analyze"], {"framelab.search"}),
    ],
    ids=["simulate", "search", "analyze"],
)
def test_subcommand_loads_only_its_layers(plane_path, tmp_path, argv, absent):
    command, *options = argv
    argv = [command, str(plane_path), *options, "--out", str(tmp_path / "report.json")]
    code, loaded = modules_loaded_by(f"from framelab.cli import main\nprint(main({argv!r}))\n")
    assert code == "0"
    assert {"numpy", "framelab.fileio", "framelab.reporting"} <= loaded
    assert not absent & loaded


def test_export_table_lists_every_public_name():
    """``framelab.<name>`` is the object its module defines, for every public
    function and class of the library modules, and ``dir`` lists it."""
    assert set(fl._MODULE_EXPORTS) == {"errors", "frames", "weights", "erasures", "optimality", "search"}
    for module_name, names in fl._MODULE_EXPORTS.items():
        module = importlib.import_module(f"framelab.{module_name}")
        public = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert set(names) == public, module_name
        for name in names:
            assert getattr(fl, name) is getattr(module, name)
        assert set(names) <= set(dir(fl))


def library_references(node, inside=frozenset()):
    """The names that ``node`` loads, reads as attributes or imports, except
    inside a ``def`` or ``class`` of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    else:
        name = None
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from library_references(child, inside)


def test_every_exported_name_is_used_in_the_library():
    """Each public name is loaded, called or imported somewhere in the
    library outside its own definition: a name that only the tests reach
    is dead code."""
    used = set()
    for path in Path(fl.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            used.update(library_references(ast.parse(path.read_text(encoding="utf-8"))))
    exported = {name for names in fl._MODULE_EXPORTS.values() for name in names}
    assert sorted(exported - used) == []


def test_readme_library_example_prints_its_comments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].split() for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(expected) == 4
    for want_line, got_line in zip(expected, printed):
        assert len(got_line) == len(want_line)
        for want, got in zip(want_line, got_line):
            try:
                value = Fraction(want)
            except ValueError:
                assert got == want
            else:
                assert float(got) == pytest.approx(float(value), rel=1e-12)


def test_analyze_and_search_load_no_openssl(tmp_path):
    """The frame digest comes from the built-in SHA-256 module, not from
    ``hashlib``, whose ``_hashlib`` loads OpenSSL's libcrypto; and
    ``simulate`` draws from its own SplitMix64 stream, not from
    ``numpy.random``, whose import loads ``_hashlib`` too."""
    text = json.dumps(random_frame_document(65, 3, 7, "real"))
    frame = tmp_path / "frame.json"
    frame.write_bytes(text.encode("utf-8"))
    reports = [tmp_path / "analyze.json", tmp_path / "search.json", tmp_path / "simulate.json"]
    probe = (
        "import sys\n"
        "from framelab.cli import main\n"
        f"codes = [main(['analyze', {str(frame)!r}, '--out', {str(reports[0])!r}]),\n"
        f"         main(['search', {str(frame)!r}, '--measure', 'norm', '--out', {str(reports[1])!r}]),\n"
        f"         main(['simulate', {str(frame)!r}, '--m', '2', '--out', {str(reports[2])!r}])]\n"
        "print(*codes, '_hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    assert framelab_process(probe).stdout.split() == [b"0", b"0", b"0", b"False", b"False"]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for path in reports:
        assert json.loads(path.read_text(encoding="utf-8"))["input"]["frame_digest"] == digest


def test_report_write_peak_memory(monkeypatch, tmp_path):
    """Writing a large analyze report holds no whole table as Python floats
    and no whole report as one string: a seeded real 8x60 frame at m = 1, 2,
    3 has two 34,220-row tables and a head of more than 30 kB, its report
    is 3.6 MB, and the write peaks at 6.4 MB when it converts each table in
    one block."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(random_frame_document(66, 8, 60, "real")), encoding="utf-8")
    documents = []
    monkeypatch.setattr(fl.reporting, "write_report", lambda document, path: documents.append(document))
    argv = ["analyze", str(frame), "--m", "1", "--m", "2", "--m", "3", "--measure", "both"]
    assert cli.main(argv) == 0
    (document,) = documents
    def head(obj):
        if isinstance(obj, fl.erasures.ErasureMeasureReport):
            return "\0"
        return fl.reporting._plain(obj)

    assert len(json.dumps(document, separators=(",", ":"), default=head)) > 30_000
    sizes = [m["per_set_values"].per_set_values.size for m in document["measures"]]
    assert sizes.count(34220) == 2
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(document, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6
    assert out.read_text(encoding="utf-8") == report_text(document)


def test_search_and_parseval_analyze_run_without_scipy(tmp_path, tight_path):
    # numpy is the only run-time dependency; the fresh interpreter cannot import scipy
    angles = (0, 2 * np.pi / 3, 4 * np.pi / 3)
    parseval = np.sqrt(2 / 3) * np.array([[np.cos(a), np.sin(a)] for a in angles])
    doc = {
        "dim": 2,
        "count": 3,
        "field": "real",
        "vectors": [[[x, 0], [y, 0]] for x, y in parseval],
        "probabilities": [0.2, 0.3, 0.5],
    }
    parseval_path = tmp_path / "parseval.json"
    parseval_path.write_text(json.dumps(doc), encoding="utf-8")
    search = ["search", str(tight_path), "--measure", "both", "--out", str(tmp_path / "s.json")]
    analyze = ["analyze", str(parseval_path), "--out", str(tmp_path / "a.json")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import framelab.cli\n"
        f"print(framelab.cli.main({search!r}), framelab.cli.main({analyze!r}))\n"
    )
    assert framelab_process(code).stdout.decode().split() == ["0", "0"]
    analyze = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
    (equivalence,) = [c for c in analyze["certificates"] if c["condition_id"] == "parseval_equivalence"]
    assert equivalence["conclusion"] is True


def test_search_result_ignores_restarts(capsys, plane_path):
    # the values the benchmark's search jobs pass
    sections, notes = [], []
    for extra in (["--restarts", "4"], ["--restarts", "0"]):
        code, out, err = run(capsys, ["search", plane_path, "--measure", "both", *extra])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["tool", "report", "input", "weights", "searches"]
        sections.append(report_text(doc["searches"]))
        notes.append(err)
    assert sections[0] == sections[1]
    note = "note: --restarts is accepted but no longer changes the result"
    assert all(err.splitlines() == [note] for err in notes)
    _, _, err = run(capsys, ["search", plane_path])
    assert err == ""


@pytest.mark.parametrize("option", [["--seed", "1"], ["--method", "smoothed"]])
def test_search_rejects_options_of_the_earlier_solver(capsys, plane_path, option):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["search", str(plane_path), *option])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("command", ["analyze", "search", "simulate", "examples"])
def test_every_subcommand_has_help(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith(f"usage: framelab {command} ")
    assert "--out OUT" in usage
    reads_a_frame = command != "examples"
    assert ("--probs PROBS" in usage) is reads_a_frame
    assert ("frame file (JSON)" in usage) is reads_a_frame


def test_analyze_report_reemits_byte_identically(capsys, plane_path, tmp_path):
    # the standard encoder, run on the parsed plain document, is the oracle
    cases = [
        (plane_path, []),
        ((61, 16, 40, "complex"), ["--m", "1", "--m", "2", "--m", "3", "--measure", "both"]),
        ((62, 4, 9, "real", 1), ["--m", "4"]),  # a zero-mass index
        ((63, 4, 31, "real"), ["--m", "3"]),  # 4,495 sets: more than one CHUNK_SETS chunk
    ]
    for frame, extra in cases:
        path = frame
        if isinstance(frame, tuple):
            path = tmp_path / "frame.json"
            path.write_text(json.dumps(random_frame_document(*frame)), encoding="utf-8")
        code, out, _ = run(capsys, ["analyze", path, *extra])
        assert code == 0
        doc = json.loads(out)
        reemitted = report_text(doc)
        # compared by hand: pytest's diff of two megabyte strings takes minutes
        if reemitted != out:
            at = len(os.path.commonprefix([reemitted, out]))
            pytest.fail(f"{frame}: differs from the stdlib at {at}: {out[at - 60 : at + 60]!r}")
        for measure in doc["measures"]:
            table = measure["per_set_values"]
            every_set = itertools.combinations(range(1, doc["input"]["count"] + 1), measure["m"])
            assert [e["indices"] for e in table] == [list(s) for s in every_set]
            assert max(e["value"] for e in table) == measure["value"]


def test_report_sections_list_fields_in_declaration_order(capsys, plane_path):
    # the weights, searches and simulation sections are written from the
    # library's dataclasses, so a reordered field reorders the report
    profile_keys = ["dim", "probabilities", "weights"]
    _, out, _ = run(capsys, ["analyze", plane_path, "--m", "1"])
    weights = json.loads(out)["weights"]
    assert list(weights) == [*profile_keys, "properties"]
    properties = weights["properties"]
    assert list(properties) == [
        "min_weight",
        "all_at_least_one",
        "partition_residual",
    ]

    _, out, _ = run(capsys, ["search", plane_path])
    doc = json.loads(out)
    assert list(doc["weights"]) == profile_keys
    result_keys = [
        "best_value",
        "canonical_value",
        "gap",
        "lower_bound",
        "iterations",
        "converged",
        "note",
    ]
    entry_keys = ["kind", *result_keys, "best_dual", "best_dual_measures"]
    assert [list(entry) for entry in doc["searches"]] == [entry_keys] * 2

    _, out, _ = run(capsys, ["simulate", plane_path, "--trials", "100"])
    doc = json.loads(out)
    assert list(doc["weights"]) == profile_keys
    assert list(doc["simulation"]) == [
        "m",
        "trials",
        "seed",
        "rng",
        "max_error",
        "mean_error",
        "histogram_edges",
        "histogram_counts",
    ]


def test_every_complex_report_value_is_a_pair(capsys, plane_path, tmp_path):
    # on a real frame too, where every imaginary part is 0
    frame = random_parseval_frame(np.random.default_rng(5), 3, 6)
    parseval_path = tmp_path / "parseval.json"
    parseval = {
        "dim": 3,
        "count": 6,
        "field": "complex",
        "vectors": [[[z.real, z.imag] for z in column] for column in frame.matrix.T.tolist()],
        "probabilities": [0.1, 0.2, 0.3, 0.15, 0.15, 0.1],
    }
    parseval_path.write_text(json.dumps(parseval), encoding="utf-8")

    def is_pair(value):
        return isinstance(value, list) and len(value) == 2 and all(type(x) is float for x in value)

    for path in (plane_path, parseval_path):
        code, out, _ = run(capsys, ["analyze", path, "--m", "1"])
        assert code == 0
        doc = json.loads(out)
        dual = doc["canonical_dual"]
        assert all(is_pair(entry) for vector in dual["dual_vectors"] for entry in vector)
        assert all(map(is_pair, dual["cross_gram_diagonal"]))
        assert is_pair(dual["cross_gram_trace"])


def test_analyze_orthonormal_basis(capsys, tmp_path):
    doc = {
        "dim": 2,
        "count": 2,
        "field": "real",
        "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "probabilities": [0.5, 0.5],
    }
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    # uniform square profile: q_i = 1 and the per-index table is all ones
    spectral_one = next(
        m for m in report["measures"] if m["kind"] == "spectral" and m["m"] == 1
    )
    assert [e["value"] for e in spectral_one["per_set_values"]] == [1.0, 1.0]
    by_id = {c["condition_id"]: c for c in report["certificates"]}
    assert by_id["uniform_parseval"]["conclusion"] is True
    assert by_id["parseval_equivalence"]["conclusion"] is True


def test_analyze_mercedes_records_prediction_discrepancy(capsys, tmp_path):
    import numpy as np

    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    doc = {
        "dim": 2,
        "count": 3,
        "field": "real",
        "vectors": [[[np.cos(a), 0.0], [np.sin(a), 0.0]] for a in angles],
        "probabilities": [1 / 3, 1 / 3, 1 / 3],
    }
    path = tmp_path / "mercedes.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", path, "--m", "2", "--measure", "spectral"])
    assert code == 0
    report = json.loads(out)
    by_id = {c["condition_id"]: c for c in report["certificates"]}
    prediction = by_id["two_erasure_prediction"]
    assert prediction["conclusion"] == pytest.approx(1.5, abs=1e-9)
    # R1 + 2 sqrt(c), without the final halving, would exceed the value by sqrt(c)
    r1 = by_id["canonical_spectral_one"]["partition"]["threshold"]
    unhalved = r1 + 2.0 * np.sqrt(prediction["details"]["cross_constant"])
    assert unhalved == pytest.approx(2.0, abs=1e-9)
    assert unhalved - prediction["conclusion"] == pytest.approx(0.5, abs=1e-9)
    assert by_id["spectral_two_optimal_pair"]["conclusion"] is True


def test_examples_pass(capsys):
    code, out, err = run(capsys, ["examples"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 17
    assert err.count("PASS") == len(doc["checks"])
    assert "FAIL" not in err


def test_examples_evaluate_each_canonical_measure_once(capsys, monkeypatch):
    # count the m = 1 measures of each example's canonical dual, through the
    # names that the CLI and the certificates call; the search module is
    # loaded first, so its own bindings, and the searches' calls, stay
    # uncounted
    assert fl.search.spectral_measure is fl.erasures.spectral_measure
    calls = []

    def counted(kind, measure):
        def wrapper(pair, profile, m):
            canonical = np.array_equal(pair.dual, fl.canonical_dual(pair.frame).dual)
            if m == 1 and canonical:
                calls.append((pair.count, kind))
            return measure(pair, profile, m)

        return wrapper

    for module in (fl.erasures, fl.optimality):
        monkeypatch.setattr(module, "spectral_measure", counted("spectral", module.spectral_measure))
        monkeypatch.setattr(module, "norm_measure", counted("norm", module.norm_measure))
    assert run(capsys, ["examples"])[0] == 0
    # example A has three vectors, example B four
    assert sorted(calls) == [(3, "norm"), (3, "spectral"), (4, "norm"), (4, "spectral")]


def test_examples_corrupted_table_fails(capsys, monkeypatch):
    frame, _ = cli._example_a()
    wrong = uniform_profile(3, 2)  # weights 1, not the expected (4/3, 4/3, 2)
    monkeypatch.setattr(cli, "_example_a", lambda: (frame, wrong))
    code, out, err = run(capsys, ["examples"])
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert "FAIL" in err


def test_thread_cap_env(monkeypatch):
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "3")
    # numpy is loaded here, so the BLAS variables are left alone
    cli.thread_cap()
    assert [os.environ[name] for name in cli.BLAS_THREAD_VARS] == ["3", "3", "3"]
    # before numpy loads, one thread overrides them
    monkeypatch.delitem(sys.modules, "numpy")
    cli.thread_cap()
    assert [os.environ[name] for name in cli.BLAS_THREAD_VARS] == ["1", "1", "1"]


# The thread count of numpy's OpenBLAS, read as perfbench/run.py's BLAS_PROBE
# reads it: through the library's own get_num_threads symbol.
NUMPY_BLAS_THREADS = """
import ctypes
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "numpy" in line})
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None and threads is None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
print(threads)
"""


def test_thread_cap_reaches_numpy(plane_path, tmp_path):
    code = (
        "import os\n"
        "import framelab.cli\n"
        "print(*(os.environ[name] for name in framelab.cli.BLAS_THREAD_VARS))\n"
    )
    two = dict.fromkeys(cli.BLAS_THREAD_VARS, "2")
    assert framelab_process(code, **two).stdout.split() == [b"1"] * 3
    # a process that loaded numpy first keeps its environment
    assert framelab_process("import numpy\n" + code, **two).stdout.split() == [b"2"] * 3
    # numpy loads only when a subcommand runs, and its BLAS then starts on
    # the one thread that the import of framelab.cli asked for
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find numpy's BLAS in")
    argv = ["analyze", str(plane_path), "--out", str(tmp_path / "report.json")]
    code = f"from framelab.cli import main\nassert main({argv!r}) == 0\n" + NUMPY_BLAS_THREADS
    threads = framelab_process(code, **two).stdout.split()[-1]
    if threads == b"None":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert threads == b"1"
    # the probe sees the two threads of a process that loaded numpy first
    if (os.cpu_count() or 1) >= 2:
        assert framelab_process("import numpy\n" + NUMPY_BLAS_THREADS, **two).stdout.split()[-1] == b"2"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["analyze"])  # missing frame path
    assert excinfo.value.code == 2
