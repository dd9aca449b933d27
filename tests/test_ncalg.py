import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qgw import frt
from qgw.algebras import fa_presentation, uq_presentation
from qgw.ncalg import (STATS, ConfluenceFailure, Element, GeneratorSymbol,
                       Presentation, StepCapExceeded, compile_relations, overlap_check,
                       presentation_from_json, presentation_to_json, tensor)
from qgw.rmatlab import catalog
from qgw.scalars import ONE, ZERO, qvar


from functools import lru_cache


@lru_cache(maxsize=None)
def quantum_plane():
    """yx = q xy, the simplest interesting rewrite system."""
    q = qvar()
    gens = [GeneratorSymbol("x"), GeneratorSymbol("y")]
    p = compile_relations(gens, [({("y", "x"): ONE}, {("x", "y"): q})], name="qplane")
    assert overlap_check(p, sample_budget=20).ok
    return p


def test_normal_form_ordering():
    p = quantum_plane()
    q = qvar()
    e = p.word("y", "x")
    assert e.terms == {("x", "y"): q}
    e2 = p.word("y", "y", "x")
    assert e2.terms == {("x", "y", "y"): q * q}


def test_element_algebra():
    p = quantum_plane()
    x, y = p.gen("x"), p.gen("y")
    assert (x + y) - x == y
    assert x * 0 == p.zero()
    assert (x + 1) * (x - 1) == x * x - 1
    assert 2 * x == x + x


def test_grading():
    gens = [GeneratorSymbol("a"), GeneratorSymbol("b", degree=1)]
    p = Presentation(gens)
    assert p.degree(("a", "b")) == 1
    assert p.degree(("b", "b")) == 0


def test_nilpotent_square_rule():
    gens = [GeneratorSymbol("x", nilpotent=True)]
    p = Presentation(gens)
    assert not p.word("x", "x")


def test_inverse_pair():
    gens = [GeneratorSymbol("k", inverse="ki"),
            GeneratorSymbol("ki", inverse="k")]
    p = Presentation(gens)
    assert p.word("k", "ki") == p.one()
    assert p.word("ki", "k", "k") == p.word("k")


def test_missing_inverse_partner():
    with pytest.raises(ValueError):
        Presentation([GeneratorSymbol("k", inverse="ki")])


def test_rule_lhs_must_be_quadratic():
    p = Presentation([GeneratorSymbol("x"), GeneratorSymbol("y")])
    with pytest.raises(ValueError):
        p.add_rule(("x", "y", "x"), {})


def test_overlap_check_confluent():
    q = qvar()
    gens = [GeneratorSymbol("x"), GeneratorSymbol("y"), GeneratorSymbol("z")]
    p = compile_relations(gens, [({("y", "x"): ONE}, {("x", "y"): q}),
                                 ({("z", "y"): ONE}, {("y", "z"): q}),
                                 ({("z", "x"): ONE}, {("x", "z"): q})])
    rep = overlap_check(p, sample_budget=25, rng=random.Random(3))
    assert rep.ok
    assert rep.overlaps_checked >= 1
    assert rep.probes == 25


def test_overlap_check_catches_bad_system():
    # ba = 1 together with ab = 2 is inconsistent: the word aba reduces to
    # both 2a and a depending on which side fires first.
    p = Presentation([GeneratorSymbol("a"), GeneratorSymbol("b")])
    p.add_rule(("b", "a"), {(): ONE})
    p.add_rule(("a", "b"), {(): 2 * ONE})
    rep = overlap_check(p)
    assert not rep.ok


def test_compile_relations_refuses_a_non_confluent_system():
    """yx = q xy, zx = xz, zy = yz + xx: the overlap zyx reduces to
    q xyz + xxx one way and q xyz + q xxx the other."""
    q = qvar()
    gens = [GeneratorSymbol("x"), GeneratorSymbol("y"), GeneratorSymbol("z")]
    with pytest.raises(ConfluenceFailure, match="zyx|'z', 'y', 'x'"):
        compile_relations(gens, [({("y", "x"): ONE}, {("x", "y"): q}),
                                 ({("z", "x"): ONE}, {("x", "z"): ONE}),
                                 ({("z", "y"): ONE}, {("y", "z"): ONE, ("x", "x"): ONE})])


@pytest.mark.parametrize("weight", [0, -1])
def test_generator_weight_must_be_positive(weight):
    with pytest.raises(ValueError, match="weight"):
        GeneratorSymbol("x", weight=weight)


def _xy(step_cap):
    return Presentation([GeneratorSymbol("x"), GeneratorSymbol("y")], step_cap=step_cap)


def test_non_terminating_systems_hit_the_step_cap():
    """An unoriented cycle and a growing rule are refused, not recursed
    into: rewriting ends in StepCapExceeded."""
    cycle = _xy(1000)
    cycle.add_rule(("x", "y"), {("y", "x"): ONE}, unoriented=True)
    cycle.add_rule(("y", "x"), {("x", "y"): ONE}, unoriented=True)
    growing = _xy(1000)
    growing.add_rule(("x", "x"), {("x", "x", "x"): ONE}, unoriented=True)
    for p, word in ((cycle, ("x", "y")), (growing, ("x", "x"))):
        with pytest.raises(StepCapExceeded):
            p.reduce_terms({word: ONE})


def test_deep_reduction_needs_no_recursion():
    """y^40 x^40 on the quantum plane is a chain of 1,600 rewrites."""
    before = STATS["steps"]
    nf = quantum_plane().reduce_terms({("y",) * 40 + ("x",) * 40: ONE})
    assert nf == {("x",) * 40 + ("y",) * 40: qvar() ** 1600}
    assert STATS["steps"] - before == 1600


def test_steps_counter_moves():
    before = STATS["steps"]
    quantum_plane().word("y", "y", "x", "x")
    assert STATS["steps"] > before


def test_serialization_roundtrip():
    p = quantum_plane()
    p2 = presentation_from_json(presentation_to_json(p))
    assert p2.rules == p.rules
    assert [g.name for g in p2.gens] == [g.name for g in p.gens]
    assert p2.word("y", "x") == p2.word("x", "y") * qvar()


def _same_presentation(p, p2):
    assert p2.gens == p.gens and p2.name == p.name
    assert p2.rules == p.rules and p2.unoriented == p.unoriented


def _renamed(p, tag):
    return p.derive(rename={g.name: g.name + tag for g in p.gens})


def test_serialization_roundtrip_keeps_unoriented_rules_and_tensor_products():
    fa = fa_presentation("ac")
    assert fa.unoriented
    for p in (fa, tensor(_renamed(fa, "1"), _renamed(fa_presentation("gl11"), "2"), "x2")):
        _same_presentation(p, presentation_from_json(presentation_to_json(p)))


def test_tensor_sign_is_odd_times_odd():
    def pair(tag):
        return Presentation([GeneratorSymbol("e" + tag), GeneratorSymbol("o" + tag, degree=1)],
                            name=tag)

    p1, p2 = pair("1"), pair("2")
    t = tensor(p1, p2, "t")
    assert [g.name for g in t.gens] == ["e1", "o1", "e2", "o2"] and t.name == "t"
    for y in p2.gens:
        for u in p1.gens:
            sign = -ONE if y.degree and u.degree else ONE
            assert t.rules[(y.name, u.name)] == {(u.name, y.name): sign}
            assert t.word(y.name, u.name) == t.monomial((u.name, y.name), sign)


def test_derive_renames_inverse_partners():
    p = Presentation([GeneratorSymbol("k", inverse="ki"), GeneratorSymbol("ki", inverse="k"),
                      GeneratorSymbol("x", nilpotent=True)], name="p", step_cap=500)
    d = p.derive(rename={"k": "K"})
    assert [(g.name, g.inverse) for g in d.gens] == [("K", "ki"), ("ki", "K"), ("x", None)]
    assert d.word("K", "ki") == d.one() == d.word("ki", "K")
    assert not d.word("x", "x")
    assert d.name == "p" and d.step_cap == 500


def test_derive_keeps_unoriented_flags():
    def prime(w):
        return tuple(x + "'" for x in w)

    p = fa_presentation("ac")
    d = _renamed(p, "'")
    assert d.unoriented == {prime(lhs) for lhs in p.unoriented}
    assert d.rules == {prime(lhs): {prime(w): c for w, c in rhs.items()} for lhs, rhs in p.rules.items()}
    assert tensor(p, d, "pd").unoriented == p.unoriented | d.unoriented


def _qplane_json(**change):
    data = json.loads(presentation_to_json(quantum_plane()))
    data.update(change)
    return json.dumps(data)


_RHS = [{"word": ["x", "y"], "coeff": "q"}]


@pytest.mark.parametrize("text", [
    "{}", "[]", "3", "not json",
    _qplane_json(generators=[{"bogus": 1}], rules=[]),
    _qplane_json(rules=[{"lhs": ["y", "x"]}]),
    _qplane_json(generators=None), _qplane_json(rules={"lhs": ["y", "x"]}),
    _qplane_json(name=3), _qplane_json(generators=["x", "y"]),
    _qplane_json(generators=[{"name": "x", "degree": 2}, {"name": "y"}]),
    _qplane_json(generators=[{"name": "x", "degree": "1"}, {"name": "y"}]),
    _qplane_json(generators=[{"name": "x", "weight": 0}, {"name": "y"}]),
    _qplane_json(generators=[{"name": "x", "nilpotent": 1}, {"name": "y"}]),
    _qplane_json(generators=[{"name": "x", "inverse": 7}, {"name": "y"}]),
    _qplane_json(generators=[{"name": "x"}, {"name": "x"}]),
    _qplane_json(rules=[{"lhs": ["y", "z"], "rhs": _RHS}]),
    _qplane_json(rules=[{"lhs": "yx", "rhs": _RHS}]),
    _qplane_json(rules=[{"lhs": ["y", "x", "x"], "rhs": _RHS}]),
    _qplane_json(rules=[{"lhs": ["y", "x"], "rhs": [{"word": ["x", "y"], "coeff": 2}]}]),
    _qplane_json(rules=[{"lhs": ["y", "x"], "rhs": [{"word": ["x", "w"], "coeff": "q"}]}]),
    _qplane_json(rules=[{"lhs": ["y", "x"], "rhs": [{"word": ["x", "y"], "coeff": "q +"}]}]),
    _qplane_json(rules=[{"lhs": ["y", "x"], "rhs": _RHS, "unoriented": "yes"}]),
    # a rule may not change an inverse-pair or nilpotent rule
    _qplane_json(generators=[{"name": "x", "inverse": "y"}, {"name": "y", "inverse": "x"}],
                 rules=[{"lhs": ["x", "y"], "rhs": [{"word": [], "coeff": "2"}]}]),
    _qplane_json(generators=[{"name": "x", "nilpotent": True}, {"name": "y"}],
                 rules=[{"lhs": ["x", "x"], "rhs": [{"word": ["y", "y"], "coeff": "1"}],
                         "unoriented": True}]),
], ids=repr)
def test_json_loader_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        presentation_from_json(text)


words = st.lists(st.sampled_from(["x", "y"]), min_size=0, max_size=5)


@settings(max_examples=40, deadline=None)
@given(words, words, words)
def test_associativity_property(w1, w2, w3):
    p = quantum_plane()
    a, b, c = p.monomial(w1), p.monomial(w2), p.monomial(w3)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(words, words)
def test_normal_form_is_stable(w1, w2):
    p = quantum_plane()
    e = p.monomial(w1) + p.monomial(w2)
    renorm = Element(p, e.terms)
    assert renorm == e


def tree_rewrite(p, terms):
    """Reference normal form: leftmost-redex rewriting of the whole rewrite
    tree, each branch followed on its own (no word is shared)."""
    out = {}
    stack = [(tuple(w), c) for w, c in terms.items()]
    while stack:
        word, coeff = stack.pop()
        hit = next((i for i in range(len(word) - 1) if word[i:i + 2] in p.rules), None)
        if hit is None:
            s = out.get(word, ZERO) + coeff
            if s:
                out[word] = s
            else:
                out.pop(word, None)
            continue
        for w2, c2 in p.rules[word[hit:hit + 2]].items():
            stack.append((word[:hit] + w2 + word[hit + 2:], coeff * c2))
    return out


def reducible_words(p, terms):
    """The distinct words with a redex that leftmost-redex rewriting of the
    words of ``terms`` with a nonzero coefficient reaches, one word at a
    time."""
    seen, stack = set(), [tuple(w) for w, c in terms.items() if c]
    while stack:
        word = stack.pop()
        hit = next((i for i in range(len(word) - 1) if word[i:i + 2] in p.rules), None)
        if hit is not None and word not in seen:
            seen.add(word)
            stack.extend(word[:hit] + w2 + word[hit + 2:] for w2 in p.rules[word[hit:hit + 2]])
    return seen


@lru_cache(maxsize=None)
def rewriting_presentation(key):
    if key == "fa-ac-inv":
        return fa_presentation("ac")
    if key == "uq":
        return uq_presentation()
    if key == "uq-graded":
        return uq_presentation(graded=True)
    return frt.build_ar(catalog("glnm", 2, 1))


@pytest.mark.parametrize("key", ["fa-ac-inv", "uq-graded", "ar-gl(2|1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoized_normal_form_equals_tree_rewriting(key, data):
    p = rewriting_presentation(key)
    names = st.sampled_from([g.name for g in p.gens])
    terms = data.draw(st.dictionaries(st.lists(names, max_size=6).map(tuple),
                                      st.integers(-3, 3).map(lambda n: n * ONE),
                                      min_size=1, max_size=3))
    assert p.reduce_terms(terms) == tree_rewrite(p, terms)


@pytest.mark.parametrize("key", ["uq", "fa-ac-inv", "ar-gl(2|1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_terms_rewrites_each_reached_word_once(key, data):
    """reduce_terms gives the one-word-at-a-time normal form with one step per
    distinct reducible word reached, and Element gives the same terms from a
    list of pairs with list words, int coefficients and zeros."""
    p = rewriting_presentation(key)
    names = st.sampled_from([g.name for g in p.gens])
    pairs = data.draw(st.lists(st.tuples(st.lists(names, max_size=6),
                                         st.integers(-2, 2) | st.integers(-2, 2).map(lambda n: n * qvar())),
                               max_size=4))
    terms = {tuple(w): ONE * c for w, c in pairs}
    want = tree_rewrite(p, {w: c for w, c in terms.items() if c})
    before = STATS["steps"]
    assert p.reduce_terms(terms) == want
    assert STATS["steps"] - before == len(reducible_words(p, terms))
    assert p.reduce_terms({tuple(w): c for w, c in pairs}) == Element(p, terms).terms == want
    # a zero pair is dropped before a later pair of the same word is read
    assert Element(p, pairs).terms == tree_rewrite(p, {tuple(w): ONE * c for w, c in pairs if c})


def test_shared_words_are_rewritten_once():
    """di^4 ai^4 on fa-ac-inv: tree rewriting takes 29,812 steps to reach
    the 2-term normal form, rewriting each distinct word once 3,657."""
    p = fa_presentation("ac")
    before = STATS["steps"]
    nf = p.reduce_terms({("di",) * 4 + ("ai",) * 4: ONE})
    assert len(nf) == 2
    assert STATS["steps"] - before == 3657
