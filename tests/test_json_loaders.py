"""Both JSON loaders take untrusted text: whatever the document, a call
returns or raises ValueError."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qgw.algebras import fa_presentation, uq_presentation
from qgw.ncalg import presentation_from_json, presentation_to_json
from qgw.rmatlab import catalog, rmatrix_from_json, rmatrix_to_json, superize_r

LOADERS = [presentation_from_json, rmatrix_from_json]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12)


def _valid_documents():
    pres = [json.loads(presentation_to_json(p))
            for p in (fa_presentation("ac"), uq_presentation(graded=True))]
    rmat = [json.loads(rmatrix_to_json(catalog(*spec))) for spec in (("ac",), ("super_ac",))]
    return pres, rmat


PRES_DOCS, RMAT_DOCS = _valid_documents()
NAMES = sorted({g["name"] for d in PRES_DOCS for g in d["generators"]})
COEFFS = ["q", "-1/q", "q - 1/q", "0", "1/0", "q/(q - q)", "i", "lam1*q^2", "2", "q +", "x"]

# values a mutation may put in place of any node: fuzz, and pieces that
# look like the real thing (generator names, words, indices, coefficients)
mutants = (json_values | st.sampled_from(NAMES + COEFFS)
           | st.lists(st.sampled_from(NAMES), max_size=4)
           | st.integers(-1, 70) | st.sampled_from([0, 1, True, None, [], {}]))


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


def _mutate(doc, data):
    """doc with one to three nodes replaced, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return data.draw(mutants)
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        how = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if how == "replace":
            parent[path[-1]] = data.draw(mutants)
        elif how == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
    return doc


def _returns_or_value_error(loader, text):
    try:
        loader(text)
    except ValueError:
        pass


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values)
def test_loader_on_fuzzed_json(loader, doc, restore_field):
    _returns_or_value_error(loader, json.dumps(doc))


@pytest.mark.parametrize("loader,docs", [(presentation_from_json, PRES_DOCS),
                                         (rmatrix_from_json, RMAT_DOCS)],
                         ids=["presentation", "rmatrix"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_on_mutated_valid_json(loader, docs, data, restore_field):
    doc = _mutate(data.draw(st.sampled_from(docs)), data)
    _returns_or_value_error(loader, json.dumps(doc))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
def test_loader_rejects_deeply_nested_json(loader):
    with pytest.raises(ValueError):
        loader("[" * 100000 + "]" * 100000)


def test_presentation_loader_rejects_a_rule_that_is_not_order_decreasing():
    doc = {"generators": [{"name": "x"}, {"name": "y"}],
           "rules": [{"lhs": ["x", "y"], "rhs": [{"word": ["y", "y", "x"], "coeff": "1"}]}]}
    with pytest.raises(ValueError, match="not order-decreasing"):
        presentation_from_json(json.dumps(doc))


@pytest.mark.parametrize("name", [5, ["x"], None])
def test_rmatrix_loader_rejects_a_name_that_is_not_a_string(name):
    doc = {"n": 1, "entries": [[0, 0, "q"]], "name": name}
    with pytest.raises(ValueError, match="name must be a string"):
        rmatrix_from_json(json.dumps(doc))
    # a string name reaches superize_r's derived name
    R = rmatrix_from_json(json.dumps({**doc, "name": "x"}))
    assert superize_r(R, (1,)).name == "x-super"
