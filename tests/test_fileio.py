import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import cli
from framelab.fileio import (
    load_frame_file,
    load_probability_file,
    parse_frame_document,
    parse_probability_document,
    resolve_profile,
)
from framelab.erasures import ErasureMeasureReport
from framelab.reporting import frame_to_dict, measure_report_to_dict, vectors_as_rows
from conftest import report_text

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


def test_parse_frame_document():
    content = parse_frame_document(PLANE_DOC)
    assert content.frame.dim == 2
    assert content.frame.count == 3
    assert content.field == "real"
    assert content.probabilities == (0.25, 0.25, 0.5)
    assert len(content.digest) == 64
    # same text, same digest
    assert content.digest == parse_frame_document(PLANE_DOC).digest


def test_parse_complex_frame_document():
    doc = json.dumps(
        {
            "dim": 1,
            "count": 2,
            "field": "complex",
            "vectors": [[[1, 1]], [[0, -1]]],
        }
    )
    content = parse_frame_document(doc)
    assert content.probabilities is None
    assert_allclose(content.frame.matrix, [[1 + 1j, -1j]])


DIM_AND_COUNT = "^<frame>: dim and count must be integers$"

# each defect of the plane document, and the message it raises
DEFECTS = {
    lambda d: d.pop("dim"): "^<frame>: missing required key 'dim'$",
    lambda d: d.update(field="rational"): (
        r"^<frame>: field must be one of \('real', 'complex'\), got 'rational'$"
    ),
    lambda d: d.update(vectors=d["vectors"][:2]): "^<frame>: expected 3 vector rows$",
    lambda d: d["vectors"][0].append([0, 0]): "^<frame>: vector 1 must have 2 entries$",
    lambda d: d.update(probabilities=[0.5, 0.5]): "^<frame>: 2 probabilities for 3 vectors$",
    lambda d: d["vectors"][0].__setitem__(0, [1, 0, 0]): (
        r"^<frame>: vector 1, entry 1: expected an \[re, im\] pair, got \[1, 0, 0\]$"
    ),
    lambda d: d.update(dim="two"): DIM_AND_COUNT,
    # JSON booleans are not integers, although Python counts True as 1
    lambda d: d.update(dim=True, vectors=[row[:1] for row in d["vectors"]]): DIM_AND_COUNT,
    lambda d: d.update(dim=1, count=True, vectors=[[[1, 0]]], probabilities=[1.0]): DIM_AND_COUNT,
    lambda d: d.update(dim=0, count=0, vectors=[], probabilities=None): (
        "^<frame>: dimension must be positive, got 0$"
    ),
    lambda d: d.update(dim=3, count=2, vectors=[[[1, 0]] * 3] * 2, probabilities=None): (
        "^<frame>: 2 vectors cannot span a 3-dimensional space$"
    ),
}


@pytest.mark.parametrize("mutate", list(DEFECTS))
def test_parse_frame_document_rejects_defects(mutate):
    doc = json.loads(PLANE_DOC)
    mutate(doc)
    with pytest.raises(fl.InputError, match=DEFECTS[mutate]):
        parse_frame_document(json.dumps(doc))


def test_parse_frame_document_rejects_imaginary_in_real_field():
    doc = json.loads(PLANE_DOC)
    doc["vectors"][0][0] = [1, 0.5]
    message = "^<frame>: vector 1 has a nonzero imaginary part in a real frame$"
    with pytest.raises(fl.InputError, match=message):
        parse_frame_document(json.dumps(doc))


def test_parse_frame_document_rejects_invalid_json():
    message = r"^<frame>: not valid JSON \(Expecting property name enclosed in double quotes"
    with pytest.raises(fl.InputError, match=message):
        parse_frame_document("{not json")


@pytest.mark.parametrize("text", ["[1, 2]", '"frame"', "null"])
def test_parse_frame_document_rejects_a_non_object(text):
    with pytest.raises(fl.InputError, match="^<frame>: expected a JSON object at the top level$"):
        parse_frame_document(text)


def test_parse_frame_document_rejects_non_spanning():
    doc = json.loads(PLANE_DOC)
    doc["count"] = 2
    doc["vectors"] = [[[1, 0], [0, 0]], [[2, 0], [0, 0]]]
    doc["probabilities"] = [0.5, 0.5]
    message = r"^<frame>: vectors do not span the space \(smallest/largest singular value = "
    with pytest.raises(fl.InputError, match=message):
        parse_frame_document(json.dumps(doc))


def test_load_frame_file(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(PLANE_DOC, encoding="utf-8")
    content = load_frame_file(path)
    assert content.frame.count == 3
    absent = tmp_path / "absent.json"
    message = f"^cannot read frame file {re.escape(str(absent))}: .*No such file or directory"
    with pytest.raises(fl.InputError, match=message):
        load_frame_file(absent)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    message = f"^cannot read frame file {re.escape(str(binary))}: 'utf-8' codec can't decode"
    with pytest.raises(fl.InputError, match=message):
        load_frame_file(binary)


def test_parse_probability_document_forms():
    assert parse_probability_document("[0.5, 0.5]") == (0.5, 0.5)
    assert parse_probability_document('{"probabilities": [1, 0]}') == (1.0, 0.0)
    with pytest.raises(fl.InputError, match="^<probabilities>: missing 'probabilities' key$"):
        parse_probability_document('{"weights": [1, 0]}')
    message = "^<probabilities>: probabilities must be a list of numbers$"
    with pytest.raises(fl.InputError, match=message):
        parse_probability_document('["a", "b"]')
    message = r"^<probabilities>: not valid JSON \(Expecting value: line 1 column 6 \(char 5\)\)$"
    with pytest.raises(fl.InputError, match=message):
        parse_probability_document("[0.5,")


@pytest.mark.parametrize("defect", ["deep-entry", "nan-probability"])
def test_input_errors_name_the_position_and_echo_little(capsys, tmp_path, defect):
    # one bad value in a large structure: the one error line names the file
    # and the value's position, and echoes at most ECHO_CHARS of the value
    frame, probs = tmp_path / "frame.json", tmp_path / "probs.json"
    argv = ["analyze", str(frame)]
    if defect == "deep-entry":
        # the second entry of vector 2 is a list nested 500 deep
        deep = "[" * 500 + "]" * 500
        frame.write_text(PLANE_DOC.replace("[[0, 0], [1, 0]]", f"[[0, 0], {deep}]"), "utf-8")
        where = f"{frame}: vector 2, entry 2: expected an [re, im] pair, got "
        excerpt = "[" * (fl.fileio.ECHO_CHARS - 3) + "..."
        message = where + excerpt
    else:
        frame.write_text(PLANE_DOC, encoding="utf-8")
        values = ["0.0001"] * 10_000
        values[5] = "NaN"
        probs.write_text(f"[{', '.join(values)}]", encoding="utf-8")
        argv += ["--probs", str(probs)]
        message = f"{probs}: probability 6 must be finite"
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_load_probability_file_rejects_an_unreadable_path(tmp_path):
    # a directory cannot be read as a file
    message = f"^cannot read probability file {re.escape(str(tmp_path))}: "
    with pytest.raises(fl.InputError, match=message):
        load_probability_file(tmp_path)


# deeper than the JSON decoder's recursion limit
DEEP_TEXT = "[" * 200_000


@pytest.mark.parametrize(
    "parse, source", [(parse_frame_document, "<frame>"), (parse_probability_document, "<probabilities>")]
)
def test_parse_rejects_deeply_nested_json(parse, source):
    with pytest.raises(fl.InputError, match=f"^{source}: not valid JSON \\(nested too deeply\\)$"):
        parse(DEEP_TEXT)


def test_resolve_profile_sources():
    content = parse_frame_document(PLANE_DOC)
    profile, source, conflict = resolve_profile(content, None)
    assert source == "frame_file" and not conflict
    assert_allclose(profile.weights, [4 / 3, 4 / 3, 2.0])
    profile, source, conflict = resolve_profile(content, (0.5, 0.25, 0.25))
    assert source == "separate_file" and conflict
    assert_allclose(profile.weights, [2.0, 4 / 3, 4 / 3])
    # matching separate file is not a conflict
    _, _, conflict = resolve_profile(content, (0.25, 0.25, 0.5))
    assert not conflict


def test_resolve_profile_requires_probabilities():
    doc = json.loads(PLANE_DOC)
    del doc["probabilities"]
    content = parse_frame_document(json.dumps(doc))
    message = (
        "^no probabilities given: add a 'probabilities' entry to the frame file "
        "or pass a separate probability file$"
    )
    with pytest.raises(fl.InputError, match=message):
        resolve_profile(content, None)


def test_resolve_profile_validates_values():
    content = parse_frame_document(PLANE_DOC)
    message = r"^invalid probabilities: probabilities sum to 1\.0999999999999999, expected 1$"
    with pytest.raises(fl.InputError, match=message):
        resolve_profile(content, (0.7, 0.2, 0.2))


def test_report_round_trip_and_determinism():
    document = {
        "name": "roundtrip",
        "third": 1 / 3,
        "tiny": 5e-324,
        "huge": 1.7976931348623157e308,
        "negative_zero": -0.0,
        "integer": 42,
        "flag": True,
        "nothing": None,
        "nested": {"values": [1.0, 2.5, [0.1, {"deep": 2 / 7}]]},
        "empty_list": [],
        "empty_map": {},
    }
    text = report_text(document)
    parsed = json.loads(text)
    assert parsed == document
    assert report_text(parsed) == text
    # floats take the shortest spelling that parses back to the same double
    assert '"third":0.3333333333333333,' in text


def test_report_rejects_non_finite_and_bad_types():
    with pytest.raises(ValueError):
        report_text({"x": float("inf")})
    with pytest.raises(TypeError):
        report_text({"x": object()})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_rejects_non_finite_per_set_value(bad):
    report = ErasureMeasureReport("norm", 1, 3, 1.0, (), np.array([0.5, bad, 1.0]))
    with pytest.raises(ValueError):
        report_text({"measures": [measure_report_to_dict(report)]})


def test_per_set_table_has_the_stdlib_layout_at_any_depth(plane_frame, plane_profile):
    report = fl.norm_measure(fl.canonical_dual(plane_frame), plane_profile, 2)
    for document in ({"table": report}, {"a": [{"b": [report]}, report]}, report):
        text = report_text(document)
        assert report_text(json.loads(text)) == text
        assert text == json.dumps(json.loads(text), separators=(",", ":"), allow_nan=False) + "\n"
    assert json.loads(report_text(report)) == [
        {"indices": list(s), "value": v}
        for s, v in zip(report.sets(), report.per_set_values.tolist())
    ]


def test_vectors_as_rows_round_trip(plane_frame):
    rows = vectors_as_rows(plane_frame.matrix)
    assert rows[2] == [[1.0, 0.0], [1.0, 0.0]]
    doc = frame_to_dict(plane_frame)
    rebuilt = fl.build_frame(
        doc["dim"], [[complex(re, im) for re, im in row] for row in doc["vectors"]]
    )
    assert_allclose(rebuilt.matrix, plane_frame.matrix)


def test_vectors_as_rows_writes_the_entrywise_pairs():
    """The array form writes the bytes of the per-entry ``[re, im]`` loop,
    signed zeros and real frames included."""
    rng = np.random.default_rng(73)
    signed_zeros = np.array([[0.0, -0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), 1.0, -2.5j]])
    for matrix in (
        rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)),
        rng.standard_normal((3, 7)).astype(np.complex128),
        signed_zeros,
    ):
        loop = [[[float(z.real), float(z.imag)] for z in column] for column in matrix.T]
        assert report_text({"vectors": vectors_as_rows(matrix)}) == report_text({"vectors": loop})


def test_report_floats_parse_back_exactly():
    rng = np.random.default_rng(71)
    values = list(rng.standard_normal(50)) + list(10.0 ** rng.uniform(-300, 300, 20))
    document = {"values": [float(v) for v in values]}
    assert json.loads(report_text(document)) == document
