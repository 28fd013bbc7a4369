import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
import framelab.cli as cli
from framelab.reporting import emit_report, parse_report, write_report
from conftest import conditioned_matrix

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
    doc = parse_report(out)
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
    assert "skipped" in by_id["two_erasure_prediction"]
    assert "skipped" in by_id["parseval_equivalence"]


def test_analyze_is_deterministic(capsys, plane_path):
    _, first, _ = run(capsys, ["analyze", plane_path])
    _, second, _ = run(capsys, ["analyze", plane_path])
    assert first == second


def test_analyze_out_file(capsys, plane_path, tmp_path):
    out_path = tmp_path / "report.json"
    argv = ["analyze", plane_path, "--m", "1", "--m", "2", "--m", "3"]
    code, out, _ = run(capsys, [*argv, "--out", out_path])
    assert code == 0
    assert out == ""
    doc = parse_report(out_path.read_text(encoding="utf-8"))
    assert doc["report"] == "analyze"
    assert [m["m"] for m in doc["measures"]] == [1, 1, 2, 2, 3, 3]
    _, stdout, _ = run(capsys, argv)
    assert out_path.read_bytes() == stdout.encode("utf-8")


def test_non_finite_table_value_writes_nothing(capsys, plane_path, tmp_path, monkeypatch):
    spectral_measure = cli.spectral_measure

    def with_nan(*args):
        report = spectral_measure(*args)
        values = report.per_set_values.copy()
        values[-1] = np.nan
        return dataclasses.replace(report, per_set_values=values)

    monkeypatch.setattr(cli, "spectral_measure", with_nan)
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
    doc = parse_report(out)
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
    doc = parse_report(out)
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
    assert parse_report(out)


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


INPUT_ERRORS = (
    "InputError",
    "ParseError",
    "InvalidProbability",
    "DegenerateWeight",
    "DimensionMismatch",
    "NotSpanning",
    "ShapeMismatch",
    "InsufficientSupport",
    "CombinatorialLimit",
)
NUMERIC_ERRORS = (
    "NotDual",
    "IllConditioned",
    "DegenerateDenominator",
    "EigenFailure",
    "SvdFailure",
    "NotOneErasureOptimal",
    "NotParseval",
    "HypothesisFailed",
)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_exit_code_of_every_error_class(capsys, monkeypatch):
    errors = {cls.__name__: cls for cls in subclasses(fl.FrameLabError) if cls.__module__ == "framelab.errors"}
    errors.update(ValueError=ValueError, LinAlgError=np.linalg.LinAlgError)
    codes = {}
    for name, error in errors.items():

        def fail(args, error=error):
            raise error("failed")

        monkeypatch.setattr(cli, "cmd_examples", fail)
        codes[name], _, _ = run(capsys, ["examples"])
    expected = {**dict.fromkeys(INPUT_ERRORS, 2), **dict.fromkeys(NUMERIC_ERRORS, 3)}
    assert codes == {**expected, "ValueError": 2, "LinAlgError": 3}


def test_search_report(capsys, plane_path):
    code, out, _ = run(
        capsys, ["search", plane_path, "--measure", "spectral", "--restarts", "3", "--seed", "1"]
    )
    assert code == 0
    doc = parse_report(out)
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
    doc = parse_report(out)
    for entry in doc["searches"]:
        assert "unique" in entry["note"]
        assert entry["gap"] == 0.0


def test_simulate_report(capsys, plane_path):
    code, out, _ = run(
        capsys, ["simulate", plane_path, "--m", "1", "--trials", "2000", "--seed", "7"]
    )
    assert code == 0
    doc = parse_report(out)
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
    assert parse_report(out)["simulation"]["rng"] == "splitmix64"
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
        reports[argv[0]] = parse_report(outputs[0].decode())
    assert reports["simulate"]["simulation"]["trials"] == 20000
    assert [len(m["per_set_values"]) for m in reports["analyze"]["measures"]] == [40, 40, 780, 780, 9880, 9880]
    assert [entry["converged"] for entry in reports["search"]["searches"]] == [True, True]


def test_import_framelab_loads_no_module():
    probe = "import framelab, sys\nprint(*sorted(m for m in sys.modules if m.startswith(('framelab', 'numpy'))))\n"
    assert framelab_process(probe).stdout.split() == [b"framelab"]


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
        assert parse_report(path.read_text(encoding="utf-8"))["input"]["frame_digest"] == digest


def test_report_write_peak_memory(monkeypatch, tmp_path):
    """Writing a large analyze report holds neither the encoder's chunks of
    its head in one list nor a whole table as Python floats: a seeded real
    8x60 frame at m = 1, 2, 3 has 1,770 two-uniform hypotheses and two
    34,220-row tables, and the write peaked at 2.2 MB when it did."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(random_frame_document(66, 8, 60, "real")), encoding="utf-8")
    documents = []
    monkeypatch.setattr(cli, "write_report", lambda document, path: documents.append(document))
    argv = ["analyze", str(frame), "--m", "1", "--m", "2", "--m", "3", "--measure", "both"]
    assert cli.main(argv) == 0
    (document,) = documents
    assert len(document["certificates"][1]["hypotheses"]) == 1770
    assert [m["per_set_values"].per_set_values.size for m in document["measures"]][-1] == 34220
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(document, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6
    assert out.read_text(encoding="utf-8") == emit_report(document)


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
    analyze = parse_report((tmp_path / "a.json").read_text(encoding="utf-8"))
    (equivalence,) = [c for c in analyze["certificates"] if c["condition_id"] == "parseval_equivalence"]
    assert equivalence["conclusion"] is True


def test_search_result_ignores_restarts_and_seed(capsys, plane_path):
    sections, notes = [], []
    for extra in (["--seed", "0", "--restarts", "20"], ["--seed", "7", "--restarts", "0"]):
        code, out, err = run(capsys, ["search", plane_path, "--measure", "both", *extra])
        assert code == 0
        sections.append(emit_report(parse_report(out)["searches"]))
        notes.append(err)
    assert sections[0] == sections[1]
    assert all("no longer change the result" in err for err in notes)
    _, _, err = run(capsys, ["search", plane_path])
    assert err == ""


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
        doc = parse_report(out)
        reemitted = emit_report(doc)
        # compared by hand: pytest's diff of two megabyte strings takes minutes
        if reemitted != out:
            at = len(os.path.commonprefix([reemitted, out]))
            pytest.fail(f"{frame}: differs from the stdlib at {at}: {out[at - 60 : at + 60]!r}")
        for measure in doc["measures"]:
            table = measure["per_set_values"]
            every_set = itertools.combinations(range(1, doc["input"]["count"] + 1), measure["m"])
            assert [e["indices"] for e in table] == [list(s) for s in every_set]
            assert max(e["value"] for e in table) == measure["value"]


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
    report = parse_report(out)
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
    report = parse_report(out)
    by_id = {c["condition_id"]: c for c in report["certificates"]}
    prediction = by_id["two_erasure_prediction"]
    assert prediction["conclusion"] == pytest.approx(1.5, abs=1e-9)
    assert prediction["details"]["unhalved_variant"] == pytest.approx(2.0, abs=1e-9)
    assert prediction["details"]["unhalved_discrepancy"] == pytest.approx(0.5, abs=1e-9)
    assert by_id["spectral_two_optimal_pair"]["conclusion"] is True


def test_examples_pass(capsys):
    code, out, err = run(capsys, ["examples"])
    assert code == 0
    doc = parse_report(out)
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 17
    assert err.count("PASS") == len(doc["checks"])
    assert "FAIL" not in err


def test_examples_corrupted_table_fails(capsys, monkeypatch):
    frame, _ = cli._example_a()
    wrong = fl.uniform_profile(3, 2)  # weights 1, not the expected (4/3, 4/3, 2)
    monkeypatch.setattr(cli, "_example_a", lambda: (frame, wrong))
    code, out, err = run(capsys, ["examples"])
    assert code == 1
    doc = parse_report(out)
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


def test_thread_cap_reaches_numpy():
    code = (
        "import os\n"
        "import framelab.cli\n"
        "print(*(os.environ[name] for name in framelab.cli.BLAS_THREAD_VARS))\n"
    )
    two = dict.fromkeys(cli.BLAS_THREAD_VARS, "2")
    assert framelab_process(code, **two).stdout.split() == [b"1"] * 3
    # a process that loaded numpy first keeps its environment
    assert framelab_process("import numpy\n" + code, **two).stdout.split() == [b"2"] * 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["analyze"])  # missing frame path
    assert excinfo.value.code == 2
