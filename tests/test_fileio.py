import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab.fileio import (
    load_frame_file,
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


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("dim"),
        lambda d: d.update(field="rational"),
        lambda d: d.update(vectors=d["vectors"][:2]),
        lambda d: d["vectors"][0].append([0, 0]),
        lambda d: d.update(probabilities=[0.5, 0.5]),
        lambda d: d["vectors"][0].__setitem__(0, [1, 0, 0]),
        lambda d: d.update(dim="two"),
        # JSON booleans are not integers, although Python counts True as 1
        lambda d: d.update(dim=True, vectors=[row[:1] for row in d["vectors"]]),
        lambda d: d.update(dim=1, count=True, vectors=[[[1, 0]]], probabilities=[1.0]),
    ],
)
def test_parse_frame_document_rejects_defects(mutate):
    doc = json.loads(PLANE_DOC)
    mutate(doc)
    with pytest.raises(fl.ParseError):
        parse_frame_document(json.dumps(doc))


def test_parse_frame_document_rejects_imaginary_in_real_field():
    doc = json.loads(PLANE_DOC)
    doc["vectors"][0][0] = [1, 0.5]
    with pytest.raises(fl.ParseError):
        parse_frame_document(json.dumps(doc))


def test_parse_frame_document_rejects_invalid_json():
    with pytest.raises(fl.ParseError):
        parse_frame_document("{not json")


def test_parse_frame_document_rejects_non_spanning():
    doc = json.loads(PLANE_DOC)
    doc["count"] = 2
    doc["vectors"] = [[[1, 0], [0, 0]], [[2, 0], [0, 0]]]
    doc["probabilities"] = [0.5, 0.5]
    with pytest.raises(fl.ParseError):
        parse_frame_document(json.dumps(doc))


def test_load_frame_file(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(PLANE_DOC, encoding="utf-8")
    content = load_frame_file(path)
    assert content.frame.count == 3
    with pytest.raises(fl.ParseError):
        load_frame_file(tmp_path / "absent.json")


def test_parse_probability_document_forms():
    assert parse_probability_document("[0.5, 0.5]") == (0.5, 0.5)
    assert parse_probability_document('{"probabilities": [1, 0]}') == (1.0, 0.0)
    with pytest.raises(fl.ParseError):
        parse_probability_document('{"weights": [1, 0]}')
    with pytest.raises(fl.ParseError):
        parse_probability_document('["a", "b"]')


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
    with pytest.raises(fl.ParseError):
        resolve_profile(content, None)


def test_resolve_profile_validates_values():
    content = parse_frame_document(PLANE_DOC)
    with pytest.raises(fl.ParseError):
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
    assert '"third": 0.3333333333333333,' in text


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
