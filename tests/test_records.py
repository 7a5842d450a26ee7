"""The contract of the package's immutable records: frozen fields, _replace,
the Name(field=..., ...) repr, and the cached encoder info of a matrix."""

import pytest

from convcode import (
    build,
    classify,
    code_adjacency,
    controller_form,
    free_distance,
    omega_series,
    phi_series,
    pm,
    polyalg,
)
from convcode.oracle import survey


def _records(g):
    cf = controller_form(g)
    omega = omega_series(phi_series(code_adjacency(g, lumped=True), 12))
    return {
        "PolyMatrix": g,
        "EncoderInfo": g.info,
        "ControllerForm": cf,
        "Classification": classify(cf, [[1, 1]]),
        "StateDiagram": build(cf),
        "FreeDistance": free_distance(omega),
        "OracleSurvey": survey(g, 5),
    }


@pytest.fixture(scope="module")
def records(f2):
    return _records(pm(f2, [[[1, 1, 1, 1], [1, 0, 1, 1]]]))


NAMES = ["PolyMatrix", "EncoderInfo", "ControllerForm", "Classification",
         "StateDiagram", "FreeDistance", "OracleSurvey"]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(records, name):
    rec = records[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


@pytest.mark.parametrize("name", NAMES)
def test_replace_makes_a_new_record(records, name):
    rec = records[name]
    before = repr(rec)
    marker = object()
    for field in rec._fields:
        new = rec._replace(**{field: marker})
        assert type(new) is type(rec) and new is not rec
        assert getattr(new, field) is marker
        assert all(getattr(new, f) is getattr(rec, f) for f in rec._fields if f != field)
    assert repr(rec) == before


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(records, name):
    rec = records[name]
    assert type(rec).__name__ == name
    fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)
    assert repr(rec) == f"{name}({fields})"


def test_polymatrix_equality_hash_and_frozen_attributes(f2, monkeypatch):
    rows = [[[1, 1, 1], [1, 0, 1]]]
    g, h = pm(f2, rows), pm(f2, rows)
    assert g is not h and g == h and hash(g) == hash(h)
    assert g != pm(f2, [[[1, 1, 1], [1, 1]]])
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        g.info = None
    assert not hasattr(g, "extra")
    calls = []
    real = polyalg.encoder_info
    monkeypatch.setattr(polyalg, "encoder_info", lambda m: calls.append(m) or real(m))
    assert g.info is g.info and h.info == g.info
    assert calls == [g, h] and calls[0] is g and calls[1] is h
    fresh = g._replace(rows=g.rows)
    assert "info" not in vars(fresh) and fresh.info == g.info and len(calls) == 3
