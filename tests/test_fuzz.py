"""Fuzz the model loader and `classify` with mutated catalog files.

Each example starts from a catalog model file and changes one or two
places in it: a value replaced by one of the wrong type, a non-finite or
huge number or an unknown label, a key deleted, or a key or list entry
added.  Whatever comes out, no exception may escape, the exit code is 0,
1 or 2, and every error message names where in the file it went wrong by
a JSON pointer.  The runs are derandomized, so tier-1 stays deterministic.
"""

import contextlib
import copy
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from so3five.catalog import entry_json
from so3five.cli import main
from so3five.exterior import CoframeModel, ModelError

POINTER = re.compile(r"\(at (/[^)]*|the document root)\)")

BASES = [
    entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"}),
    entry_json("tor27", {"rho": "1"}),
    entry_json("six-dim-2", {"t1": "1", "t2": "2"}),
    entry_json("flat-char"),
    entry_json("friedrich"),
]

ODD_STRINGS = [
    "nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e-400", "1/0",
    "0/0", "1" + "0" * 400, "1/" + "9" * 400, "1" + "0" * 200,
    "2*sqrt3", "1-1/2*sqrt3", "*sqrt3", "0.5", "e9", "f1", "g1", "zz", "",
    "e1", "e2", "tor23", "rho", "phi",
]

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10 ** 30), 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(ODD_STRINGS),
    st.text(max_size=3),
    st.lists(st.sampled_from(["1", "e1", "e2", 1, None]), max_size=4),
    st.dictionaries(st.sampled_from(["e1", "g1", "entry", "params", "rho"]),
                    st.sampled_from([[], "1", None]), max_size=2),
)

NEW_KEYS = ["e1", "e6", "f1", "g1", "g4", "name", "labels", "d",
            "connection", "catalog", "entry", "params", "rho", "phi", "x"]


def _paths(doc, path=()):
    """Every place in a JSON document, as a tuple of keys and indices."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated_models(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if not path:
            if op == "replace":
                doc = draw(ODD_VALUES)
            continue
        parent, last = _at(doc, path[:-1]), path[-1]
        if op == "replace":
            parent[last] = draw(ODD_VALUES)
        elif op == "delete":
            del parent[last]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(NEW_KEYS))] = draw(ODD_VALUES)
        else:
            parent.insert(draw(st.integers(0, len(parent))), draw(ODD_VALUES))
    return doc


FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(mutated_models())
def test_loader_accepts_or_points_at_the_fault(doc):
    try:
        CoframeModel.from_json(doc)
    except ModelError as e:
        assert POINTER.search(str(e)), str(e)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@settings(FUZZ, max_examples=100)
@given(doc=mutated_models())
def test_classify_exits_cleanly(model_path, doc):
    model_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(model_path)])
    assert code in (0, 1, 2)
    if err.getvalue():
        assert POINTER.search(err.getvalue()), err.getvalue()
    elif code == 1:
        # a well-formed file whose catalog stanza the geometry contradicts
        assert "FAILURES PRESENT" in out.getvalue()


# -- what the fuzzer found, one case each --------------------------------


def _set(path, value):
    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value
        return doc
    return mutate


def _drop(path):
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]
        return doc
    return mutate


TOR23 = ("tor23", {"rho": "1", "eps": "1", "delta": "1"})
TOR27 = ("tor27", {"rho": "1"})
SIX2 = ("six-dim-2", {"t1": "1", "t2": "2"})


@pytest.mark.parametrize("base, mutate, pointer", [
    (TOR23, lambda doc: [doc], "(at the document root)"),
    (TOR23, _drop(("labels", 4)), "(at /labels)"),
    (TOR23, _set(("labels", 4), "e1"), "(at /labels)"),
    (TOR23, _set(("d", "e1", 0, 2), "e2"), "(at /d/e1/0)"),
    (TOR23, _set(("d", "e2", 0, 0), "5"), "(at /d/e"),
    (SIX2, _drop(("connection",)), "(at /connection)"),
    (SIX2, _set(("connection", "g3"), []), "(at /connection)"),
    (TOR23, _set(("catalog",), 1.5), "(at /catalog)"),
    (TOR23, _set(("catalog", "entry"), None), "(at /catalog/entry)"),
    (TOR23, _set(("catalog", "params"), [1]), "(at /catalog/params)"),
    (TOR23, _set(("catalog", "params", "eps"), {}),
     "(at /catalog/params/eps)"),
    (TOR23, _set(("catalog", "params", "eps"), math.inf),
     "(at /catalog/params/eps)"),
    (TOR23, _set(("catalog", "params", "g1"), "1"), "(at /catalog/params)"),
    (TOR23, _set(("catalog", "params", "phi"), math.inf),
     "(at /catalog/params/phi)"),
    (TOR23, _set(("catalog", "params", "phi"), math.nan),
     "(at /catalog/params/phi)"),
    (TOR23, _set(("name",), {"x": [1]}), "(at /name)"),
    # a rho that the catalog builders reject
    (TOR23, _set(("catalog", "params", "rho"), "-1"),
     "(at /catalog/params/rho)"),
    (TOR27, _set(("catalog", "params", "rho"), "0"),
     "(at /catalog/params/rho)"),
], ids=["root-not-object", "four-labels", "repeated-label",
        "d-entry-repeats-label", "d-squared-nonzero",
        "bundle-without-connection", "connection-misses-vertical-part",
        "catalog-not-object", "catalog-entry-not-a-name",
        "catalog-params-not-object", "catalog-param-bad-value",
        "catalog-param-infinite",
        "catalog-param-unknown", "catalog-angle-infinite", "catalog-angle-nan",
        "name-not-a-string", "catalog-rho-negative", "catalog-rho-zero"])
def test_input_error_points_at_the_fault(capsys, model_path, base, mutate,
                                         pointer):
    model_path.write_text(json.dumps(mutate(entry_json(*base))))
    assert main(["classify", str(model_path)]) == 1
    assert pointer in capsys.readouterr().err


def test_coefficient_beyond_double_range_is_classified(capsys, model_path):
    # an exact coefficient of 10^400 used to escape as OverflowError when
    # a residual was converted to float
    doc = entry_json("tor27", {"rho": "1"})
    doc["d"]["e3"][1][0] = "1" + "0" * 400
    model_path.write_text(json.dumps(doc))
    assert main(["classify", str(model_path)]) == 2
    assert "residual inf" in capsys.readouterr().out
