import json
import random
from functools import lru_cache
from unittest import mock

import pytest
from conftest import twisted_r
from hypothesis import given, settings, strategies as st

from qgw import algebras, exterior, frt, ncalg
from qgw.algebras import fa_presentation, uq_presentation
from qgw.gtensor import TensorElement
from qgw.ncalg import (STATS, ConfluenceFailure, Element, GeneratorSymbol, NotSolvable,
                       Presentation, StepCapExceeded, compile_relations,
                       overlap_check, presentation_from_json, presentation_to_json, tensor)
from qgw.report import CheckReport
from qgw.rmatlab import catalog, hecke_check
from qgw.scalars import ONE, ZERO, Scalar, qvar


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


@pytest.mark.parametrize("degree", [2, -1, 3, True, 1.0, "1"], ids=repr)
def test_a_degree_other_than_the_ints_0_and_1_is_refused(degree):
    # Presentation.degree reads a degree mod 2 and the Koszul sign of a
    # tensor product by truth value, so a degree 2 would be read two ways
    with pytest.raises(ValueError, match="degree of x must be 0 or 1"):
        GeneratorSymbol("x", degree=degree)


def test_graded_is_derived_from_the_generators():
    """A presentation is graded exactly when some generator is odd; the flag
    follows a regrading through derive and cannot be set by hand."""
    p = Presentation([GeneratorSymbol("a"), GeneratorSymbol("b", degree=1)])
    assert p.graded and not quantum_plane().graded
    assert uq_presentation(graded=True).graded and not uq_presentation().graded
    even = p.derive(gens=[GeneratorSymbol("a"), GeneratorSymbol("b")])
    assert not even.graded
    with pytest.raises(AttributeError):
        even.graded = True


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
    assert rep.checked == 1 + 25  # the one overlap zyx and the probes


def test_overlap_check_catches_bad_system():
    # ba = 1 together with ab = 2 is inconsistent: the word aba reduces to
    # both 2a and a depending on which side fires first.
    p = Presentation([GeneratorSymbol("a"), GeneratorSymbol("b")])
    p.add_rule(("b", "a"), {(): ONE})
    p.add_rule(("a", "b"), {(): 2 * ONE})
    rep = overlap_check(p)
    assert not rep.ok


def reference_overlap_check(p):
    """overlap_check without probes, over every pair of rules (x, y),
    (y2, z) with y2 = y."""
    rep = CheckReport(p.name)
    for (x, y) in p.rules:
        for (y2, z) in p.rules:
            if y2 != y:
                continue
            left = {w + (z,): c for w, c in p.rules[(x, y)].items()}
            right = {(x,) + w: c for w, c in p.rules[(y, z)].items()}
            try:
                rep.record(p.reduce_terms(left) == p.reduce_terms(right), ("overlap", (x, y, z)))
            except StepCapExceeded:
                rep.record(False, ("stepcap", (x, y, z)))
    return rep


def test_overlap_check_reports_what_the_double_loop_reports():
    """The same overlaps in the same order, on every compiled presentation
    of the catalog, the function algebras with their inverses, a system that
    is not confluent and one that hits the step cap."""
    # b a = 1, a b = 2 and a a = 0: the overlaps b a b and b a a both fail
    bad = Presentation([GeneratorSymbol("a"), GeneratorSymbol("b")], name="bad")
    bad.add_rule(("b", "a"), {(): ONE})
    bad.add_rule(("a", "b"), {(): 2 * ONE})
    bad.add_rule(("a", "a"), {})
    presentations = [c[3] for c in compiled_relation_sets()]
    presentations += [fa_presentation(k) for k in ("ac", "gl11", "omega", "gl11omega")]
    presentations += [uq_presentation(), planted_uq(), bad, _cycle(50)]
    for p in presentations:
        got, want = overlap_check(p), reference_overlap_check(p)
        assert (got.checked, got.failures) == (want.checked, want.failures), p.name
    assert overlap_check(bad).failures[:2] == [("overlap", ("b", "a", "b")), ("overlap", ("b", "a", "a"))]
    assert overlap_check(_cycle(50)).failures[0][0] == "stepcap"


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


def _cycle(step_cap):
    """x y -> y x and y x -> x y, which never terminates."""
    cycle = _xy(step_cap)
    cycle.add_rule(("x", "y"), {("y", "x"): ONE}, unoriented=True)
    cycle.add_rule(("y", "x"), {("x", "y"): ONE}, unoriented=True)
    return cycle


def test_non_terminating_systems_hit_the_step_cap():
    """An unoriented cycle and a growing rule are refused, not recursed
    into: rewriting ends in StepCapExceeded, naming an unnamed presentation
    so, and the steps it performed are counted."""
    growing = _xy(1000)
    growing.add_rule(("x", "x"), {("x", "x", "x"): ONE}, unoriented=True)
    for p, word in ((_cycle(1000), ("x", "y")), (growing, ("x", "x"))):
        before = STATS["steps"]
        with pytest.raises(StepCapExceeded, match="exceeded 1000 steps in unnamed$"):
            p.reduce_terms({word: ONE})
        assert STATS["steps"] - before == 1000


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


def test_json_loader_refuses_a_repeated_lhs():
    """A second rule for d c would replace the first, d c -> -1/q c d; the
    structural rules a ai -> 1, ..., written once each, still load."""
    data = json.loads(presentation_to_json(fa_presentation("ac")))
    assert any(r["lhs"] == ["ai", "a"] for r in data["rules"])
    presentation_from_json(json.dumps(data))
    data["rules"].append({"lhs": ["d", "c"], "rhs": [{"word": ["c", "d"], "coeff": "7"}]})
    with pytest.raises(ValueError, match=r"rule lhs \['d', 'c'\] is given twice"):
        presentation_from_json(json.dumps(data))


def test_json_loader_refuses_a_repeated_rhs_word():
    data = json.loads(presentation_to_json(fa_presentation("ac")))
    rule = next(r for r in data["rules"] if r["lhs"] == ["d", "c"])
    rule["rhs"].append({"word": ["c", "d"], "coeff": "7"})
    with pytest.raises(ValueError, match=r"word \['c', 'd'\] is given twice in the rhs of rule \['d', 'c'\]"):
        presentation_from_json(json.dumps(data))


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
    if key == "fa-gl11-inv":  # graded, with unoriented inverse rules
        return fa_presentation("gl11")
    if key == "uq":
        return uq_presentation()
    if key == "uq-graded":
        return uq_presentation(graded=True)
    if key == "omega(std_gl(2))":
        return exterior.omega_build(catalog("std_gl", 2)).pres
    if key == "fa-ac-inv x fa-gl11-inv":
        return tensor(_renamed(fa_presentation("ac"), "1"), _renamed(fa_presentation("gl11"), "2"), "x2")
    return frt.build_ar(catalog("glnm", 2, 1))


def reference_reduce_terms(p, terms):
    """Reference for Presentation.reduce_terms, the same memoized
    leftmost-redex rewriting written plainly: a popped word is scanned for
    its redex by slicing its two-letter windows into ``p.rules``, every
    child is pushed, irreducible or not, and a word's children are combined
    only when their combine entry is popped."""
    memo, steps, out = {}, 0, {}
    for word, coeff in reversed(list(terms.items())):
        coeff, word = Scalar(coeff), tuple(word)
        if not coeff:
            continue
        todo = [] if word in memo else [(word, 0, None)]
        while todo:
            w, start, children = todo.pop()
            if children is not None:
                if len(children) == 1 and children[0][1] is ONE:
                    memo[w] = memo[children[0][0]]
                else:
                    memo[w] = {}
                    for u, c in reversed(children):
                        ncalg._add_scaled(memo[w], c, memo[u])
                continue
            if w in memo:
                continue
            hit = next((i for i in range(start, len(w) - 1) if w[i:i + 2] in p.rules), None)
            if hit is None:
                memo[w] = {w: ONE}
                continue
            steps += 1
            pre, post, start = w[:hit], w[hit + 2:], max(hit - 1, 0)
            children = [(pre + w2 + post, c2) for w2, c2 in p.rules[w[hit:hit + 2]].items()]
            todo.append((w, start, children))
            todo.extend((u, start, None) for u, _ in children if u not in memo)
        ncalg._add_scaled(out, coeff, memo[word])
    STATS["steps"] += steps
    return out


_REFERENCE_KEYS = ["uq", "uq-graded", "fa-ac-inv", "fa-gl11-inv", "ar-gl(2|1)", "omega(std_gl(2))",
                   "fa-ac-inv x fa-gl11-inv"]


@pytest.mark.parametrize("key", _REFERENCE_KEYS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_terms_equals_the_reference(key, data):
    """The same normal form, in the same dict order, for the same number of
    steps, on words of up to six letters with coefficients ONE, -ONE, ints
    (0 included) and q-multiples."""
    p = rewriting_presentation(key)
    names = st.sampled_from([g.name for g in p.gens])
    coeffs = (st.sampled_from([ONE, -ONE]) | st.integers(-2, 2)
              | st.integers(-2, 2).map(lambda n: n * qvar()))
    terms = data.draw(st.dictionaries(st.lists(names, max_size=6).map(tuple), coeffs, max_size=4))
    before = STATS["steps"]
    want = reference_reduce_terms(p, terms)
    middle = STATS["steps"]
    got = p.reduce_terms(terms)
    assert list(got.items()) == list(want.items())
    assert STATS["steps"] - middle == middle - before


@pytest.mark.parametrize("key", _REFERENCE_KEYS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_shared_memo_gives_fresh_normal_forms(key, data):
    """Term dicts reduced one after another against one memo give what each
    fresh reduce_terms call gives, in the same dict order and as a dict of
    its own, for one step per distinct reducible word that the whole list
    reaches."""
    p = rewriting_presentation(key)
    names = st.sampled_from([g.name for g in p.gens])
    coeffs = st.sampled_from([ONE, -ONE]) | st.integers(-2, 2).map(lambda n: n * qvar())
    batch = data.draw(st.lists(st.dictionaries(st.lists(names, max_size=5).map(tuple), coeffs,
                                               max_size=3), max_size=5))
    memo, shared, steps, reached = {}, [], 0, set()
    for terms in batch:
        before = STATS["steps"]
        shared.append(p.reduce_terms(terms, memo))
        steps += STATS["steps"] - before
        reached |= reducible_words(p, terms)
    for terms, got in zip(batch, shared):
        assert list(got.items()) == list(p.reduce_terms(terms).items())
        assert all(got is not nf for nf in memo.values())
    assert steps == len(reached)


def test_overlap_check_steps_do_not_depend_on_history():
    """The memo of one overlap_check call is dropped on return: a second
    call on the same presentation with the same probes counts the same
    steps and gives the same report."""
    p = fa_presentation("omega")
    counts, reports = [], []
    for _ in range(2):
        before = STATS["steps"]
        rep = overlap_check(p, 60, random.Random(0))
        counts.append(STATS["steps"] - before)
        reports.append((rep.ok, rep.checked, rep.failures))
    assert counts[0] == counts[1] > 0 and reports[0] == reports[1] == (True, 104, [])


def planted_uq():
    """U_q with X+ K1 -> q K1 X+ in place of 1/q, which no longer resolves
    against the rules of K1^-1 and X-."""
    return uq_presentation().derive(rules=[(("Xp", "K1"), {("K1", "Xp"): qvar()}, False)],
                                    name="uq-planted")


def test_the_planted_uq_defect_fails_the_same_overlaps():
    """The four overlaps that fresh reduction of each side fails, in the
    same order."""
    rep = overlap_check(planted_uq())
    assert rep.checked == 70
    assert rep.failures == [("overlap", ("Xm", "Xp", "Xp")), ("overlap", ("Xm", "Xp", "K1")),
                            ("overlap", ("Xp", "K1", "K1i")), ("overlap", ("Xp", "K1i", "K1"))]


def assert_rule_index(p):
    """p._follow[x][y] is the rhs dict of the rule (x, y), for exactly the
    rules of p, each follow[x] in rule order."""
    assert sum(map(len, p._follow.values())) == len(p.rules)
    for (x, y), rhs in p.rules.items():
        assert p._follow[x][y] is rhs
    for x, f in p._follow.items():
        assert list(f) == [y for (x2, y) in p.rules if x2 == x]


def test_the_rule_index_is_written_with_its_rule():
    """After the constructor's structural rules, add_rule (a changed rule
    included), derive, tensor, compile_relations and presentation_from_json."""
    p = Presentation([GeneratorSymbol("k", inverse="ki"), GeneratorSymbol("ki", inverse="k"),
                      GeneratorSymbol("x", nilpotent=True), GeneratorSymbol("y")])
    assert_rule_index(p)
    p.add_rule(("y", "x"), {("x", "y"): qvar()})
    p.add_rule(("y", "k"), {("k", "y"): ONE})
    p.add_rule(("y", "x"), {("x", "y"): 2})
    assert p._follow["y"]["x"] == {("x", "y"): Scalar(2)}
    fa = fa_presentation("ac")
    built = [p, p.derive(rename={"y": "z"}), quantum_plane(), fa, _renamed(fa, "'"),
             tensor(_renamed(fa, "1"), _renamed(fa_presentation("gl11"), "2"), "x2"),
             presentation_from_json(presentation_to_json(fa))]
    built += [c[3] for c in compiled_relation_sets()]
    for q in built:
        assert_rule_index(q)


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
    list of pairs with list words, int coefficients, zeros and repeated
    words."""
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
    # the coefficients of a repeated word add up, and a sum of 0 drops the word
    summed = {}
    for w, c in pairs:
        summed[tuple(w)] = summed.get(tuple(w), ZERO) + c
    assert Element(p, pairs).terms == tree_rewrite(p, {w: c for w, c in summed.items() if c})


def test_element_sums_repeated_words():
    p = uq_presentation()
    assert Element(p, [(("K1",), 1), (("K1",), 2)]) == 3 * p.gen("K1")
    assert Element(p, [(("K1",), 1), (["K1"], -1)]) == p.zero()
    assert Element(p, [(("Xm", "Xp"), ONE), (("Xm", "Xp"), -ONE), (("K1",), 2)]).terms \
        == {("K1",): Scalar(2)}


def assert_trusted(p, e):
    """``e`` is over ``p`` and holds what Element(p, ...) would: tuple words
    in normal form with nonzero Scalar coefficients."""
    assert e.pres is p
    for w, c in e.terms.items():
        assert type(w) is tuple
        assert isinstance(c, Scalar) and c
    assert Element(p, e.terms).terms == e.terms


def element_terms(p):
    """Raw terms of up to three words of up to three letters of ``p``, with
    int or q-monomial coefficients."""
    names = st.sampled_from([g.name for g in p.gens])
    coeffs = st.integers(-2, 2) | st.tuples(st.integers(-2, 2).filter(bool), st.integers(-2, 2)).map(
        lambda ck: ck[0] * qvar() ** ck[1])
    return st.dictionaries(st.lists(names, max_size=3).map(tuple), coeffs, max_size=3)


@pytest.mark.parametrize("key", ["uq", "uq-graded", "fa-ac-inv", "ar-gl(2|1)"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arithmetic_builds_trusted_elements(key, data):
    """Sums, differences, negation, scalar multiples (by 0, ZERO, ONE, an int
    and a Scalar) and products come out in the form Element would give them,
    over uq, its graded form uq-super, fa-ac-inv and ar-gl(2|1)."""
    p = rewriting_presentation(key)
    a, b = (Element(p, data.draw(element_terms(p))) for _ in range(2))
    c = data.draw(st.integers(-3, 3)) * qvar() ** data.draw(st.integers(-2, 2))
    results = [a + b, a - b, -a, a * b, b * a, a + 2, 3 - a]
    results += [a * x for x in (0, ZERO, ONE, -2, c)] + [x * a for x in (0, ONE, 5, c)]
    for r in results:
        assert_trusted(p, r)
    assert not a * 0 and not a * ZERO and a * ONE == a and (a - a).terms == {}


@pytest.mark.parametrize("key", ["uq", "uq-graded", "fa-ac-inv", "ar-gl(2|1)"])
def test_constructors_build_trusted_elements(key):
    """one, zero, gen, and monomial and word on every letter, nilpotent and
    invertible ones included, and on their squares and inverse pairs."""
    p = rewriting_presentation(key)
    q = qvar()
    built = [p.one(), p.zero(), p.word(), p.monomial(()), p.monomial((), 0), p.monomial((), q)]
    for g in p.gens:
        x = g.name
        built += [p.gen(x), p.word(x), p.monomial([x], 2), p.monomial((x,), ZERO),
                  p.word(x, x), p.monomial((x, x), -q)]
        if g.inverse:
            built += [p.word(x, g.inverse), p.monomial((g.inverse, x), q)]
            assert p.word(x, g.inverse) == p.one()
        if g.nilpotent:
            assert not p.word(x, x)
        assert p.gen(x).terms == p.word(x).terms == {(x,): ONE}
    for e in built:
        assert_trusted(p, e)


def test_a_letter_that_is_no_generator_is_refused():
    """Element, monomial and word name the word and the letter; gen keeps
    its KeyError."""
    p = quantum_plane()
    for make in (lambda: Element(p, {("z", "x"): 1}), lambda: Element(p, [(["x", "z"], 0)]),
                 lambda: p.monomial(("z", "x")),
                 lambda: p.monomial(("z",), 2), lambda: p.word("z", "x"), lambda: p.word("z")):
        with pytest.raises(ValueError, match=r"word \(.*'z'.*\) has the letter 'z'"):
            make()
    with pytest.raises(KeyError):
        p.gen("z")


def test_shared_words_are_rewritten_once():
    """di^4 ai^4 on fa-ac-inv: tree rewriting takes 29,812 steps to reach
    the 2-term normal form, rewriting each distinct word once 3,657."""
    p = fa_presentation("ac")
    before = STATS["steps"]
    nf = p.reduce_terms({("di",) * 4 + ("ai",) * 4: ONE})
    assert len(nf) == 2
    assert STATS["steps"] - before == 3657


@pytest.mark.parametrize("key", ["uq", "uq-graded", "fa-ac-inv", "ar-gl(2|1)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_irreducible_is_a_normal_form_at_no_step(key, data):
    """irreducible(w), of a tuple or a list, holds exactly when reduce_terms
    gives {w: ONE} at no step, on words of up to six letters; monomial and
    a tensor leg then take w as it stands, without a call into the
    rewriter."""
    p = rewriting_presentation(key)
    w = data.draw(st.lists(st.sampled_from([g.name for g in p.gens]), max_size=6).map(tuple))
    before = STATS["steps"]
    nf = p.reduce_terms({w: ONE})
    normal = nf == {w: ONE} and STATS["steps"] == before
    assert p.irreducible(w) == p.irreducible(list(w)) == normal
    if normal:
        with mock.patch.object(Presentation, "reduce_terms", side_effect=AssertionError):
            assert p.monomial(w, 3).terms == {w: Scalar(3)}
            assert TensorElement(p, 2, {(w, ()): ONE}).terms == {(w, ()): ONE}


@pytest.mark.parametrize("key", ["ac", "gl11", "omega", "gl11omega"])
def test_inverse_rules_grow_a_word_forever(key):
    """The inverse rules of fa-*-inv fit no reduction order: from di di ai,
    rewriting the rightmost di ai by its correction term ai ai b c di di,
    whose coefficient is nonzero, gives a longer word at every step, with
    one more b (20 steps checked)."""
    p = fa_presentation(key)
    rhs, term = p.rules[("di", "ai")], ("ai", "ai", "b", "c", "di", "di")
    assert rhs[term]
    w = ("di", "di", "ai")
    for step in range(1, 21):
        hit = max(i for i in range(len(w) - 1) if w[i:i + 2] == ("di", "ai"))
        u = w[:hit] + term + w[hit + 2:]
        assert len(u) == len(w) + 4 and u.count("b") == step
        w = u


# -- relation compilation ---------------------------------------------------

def sorted_elimination(gens, relations, name=""):
    """Reference for compile_relations without its overlap check: the
    elimination that sorts the remaining rows by their leading word before
    each pivot and clears the pivot from every other row at once."""
    pres = Presentation(gens, name=name)

    def as_terms(x):
        if isinstance(x, Element):
            return dict(x.terms)
        return {tuple(w): Scalar(c) for w, c in x.items()}

    rows = []
    for lhs, rhs in relations:
        row = as_terms(lhs)
        for w, c in as_terms(rhs).items():
            s = row.get(w, ZERO) - c
            if s:
                row[w] = s
            else:
                row.pop(w, None)
        row = pres.reduce_terms(row)
        if row:
            rows.append(row)

    key = pres.order_key
    solved = []
    while rows:
        rows.sort(key=lambda r: key(max(r, key=key)))
        row = rows.pop()
        pivot = max(row, key=key)
        pc = row[pivot]
        row = {w: c / pc for w, c in row.items()}

        def elim(r):
            if pivot in r:
                c = r.pop(pivot)
                for w, cw in row.items():
                    if w == pivot:
                        continue
                    s = r.get(w, ZERO) - c * cw
                    if s:
                        r[w] = s
                    else:
                        r.pop(w, None)
            return r
        rows = [r for r in (elim(r) for r in rows) if r]
        solved = [(p, elim(r)) for p, r in solved]
        solved.append((pivot, row))

    for pivot, row in solved:
        if len(pivot) != 2:
            raise NotSolvable(f"relation pivot {pivot} is not a quadratic word")
        pres.add_rule(pivot, {w: -c for w, c in row.items() if w != pivot})
    return pres


def _same_rules(p, ref):
    """The same rules in the same order, rhs compared as dicts."""
    assert list(p.rules) == list(ref.rules)
    assert p.rules == ref.rules


def _catalog_rs():
    """Catalog R-matrices, and gl(n|m) with n + m <= 3, plain and super,
    under two seeded twists each."""
    rs = [catalog(*spec) for spec in (
        ("ac",), ("super_ac",), ("omega",), ("super_omega",), ("std_gl", 2),
        ("std_gl", 3), ("identity", 2), ("glnm", 2, 1), ("super_glnm", 1, 2))]
    for n, m in ((1, 1), (2, 1), (1, 2), (2, 0), (3, 0)):
        for kind in ("glnm", "super_glnm") if m else ("glnm",):
            rs += [twisted_r(catalog(kind, n, m), seed) for seed in (0, 1)]
    return rs


@lru_cache(maxsize=None)
def compiled_relation_sets():
    """(gens, relations, name, presentation) of every compile_relations call
    made by the enveloping and function algebras of ``algebras``, and by
    build_ar and omega_build on the R-matrices of _catalog_rs (omega_build
    on the Hecke ones)."""
    calls = []

    def record(gens, relations, name=""):
        gens, relations = list(gens), list(relations)
        calls.append((gens, relations, name, compile_relations(gens, relations, name)))
        return calls[-1][3]

    with mock.patch.object(algebras, "compile_relations", record), \
            mock.patch.object(frt, "compile_relations", record), \
            mock.patch.object(exterior, "compile_relations", record):
        for graded in (False, True):
            algebras._uq_presentation.__wrapped__(graded)
        for key in ("ac", "gl11", "omega", "gl11omega"):
            fa_presentation.__wrapped__(key, inverses=False)
        for R in _catalog_rs():
            frt.build_ar(R)
            if hecke_check(R):
                exterior.omega_build(R)
    return calls


def test_echelon_pass_equals_sorted_elimination_on_compiled_relations():
    calls = compiled_relation_sets()
    assert {"uq", "uq-super", "fa-gl11", "ar-ac-super", "omega(std_gl(2))"} <= {c[2] for c in calls}
    for gens, relations, name, p in calls:
        _same_rules(p, sorted_elimination(gens, relations, name))


def test_compiled_rules_decrease_in_the_term_order():
    """compile_relations adds its rules in decreasing pivot order, which is
    the order overlap_check and rule_residuals report in."""
    for gens, _, name, p in compiled_relation_sets():
        structural = set(Presentation(gens).rules)
        keys = [p.order_key(lhs) for lhs in p.rules if lhs not in structural]
        assert keys, name
        assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:])), name


# zero too: a zero coefficient in a relation is no term of it
_LAURENT = st.builds(lambda c, e: c * qvar() ** e, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def relation_sets(draw):
    """Generators a, b, c (and d), the first one maybe nilpotent and with
    weights 1 or 2, and quadratic relations with Laurent coefficients, to
    which duplicate, proportional and linearly dependent relations are
    added before the whole list is shuffled."""
    names = "abcd"[:draw(st.integers(3, 4))]
    nil = draw(st.booleans())
    gens = [GeneratorSymbol(x, nilpotent=nil and x == "a", weight=draw(st.integers(1, 2)))
            for x in names]
    words = st.tuples(st.sampled_from(names), st.sampled_from(names))
    sides = st.dictionaries(words, _LAURENT, max_size=4)
    rels = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=6))

    def combine(u, v, c):
        out = dict(u)
        for w, x in v.items():
            out[w] = out.get(w, ZERO) + c * x
        return out

    for _ in range(draw(st.integers(0, 4))):
        i, j = (draw(st.integers(0, len(rels) - 1)) for _ in range(2))
        c = draw(_LAURENT)
        (l1, r1), (l2, r2) = rels[i], rels[j]
        rels.append(draw(st.sampled_from([
            (l1, r1),                                                  # duplicate
            ({w: c * x for w, x in l1.items()}, {w: c * x for w, x in r1.items()}),
            (combine(l1, l2, c), combine(r1, r2, c)),                  # dependent
        ])))
    return gens, draw(st.permutations(rels))


@settings(max_examples=60, deadline=None)
@given(relation_sets())
def test_echelon_pass_equals_sorted_elimination_on_random_relations(case):
    """Same rules, rule order and coefficients, whatever the order of the
    relations; the overlap check is left out, since random relations are
    seldom confluent."""
    gens, rels = case
    with mock.patch.object(ncalg, "overlap_check", lambda p: CheckReport(p.name)):
        want = sorted_elimination(gens, rels)
        for order in (rels, rels[::-1]):
            _same_rules(compile_relations(gens, order), want)


@pytest.mark.parametrize("relation, pivot", [
    (({("x",): ONE}, {("y",): ONE}), "('y',)"),
    (({("x", "y", "x"): ONE}, {}), "('x', 'y', 'x')"),
])
def test_compile_relations_refuses_a_pivot_that_is_not_quadratic(relation, pivot):
    gens = [GeneratorSymbol("x"), GeneratorSymbol("y")]
    with pytest.raises(NotSolvable) as info:
        compile_relations(gens, [relation])
    assert pivot in str(info.value)


def test_compile_relations_refuses_a_letter_that_is_no_generator():
    gens = [GeneratorSymbol("x"), GeneratorSymbol("y")]
    with pytest.raises(ValueError, match=r"\('x', 'z'\).*'z'"):
        compile_relations(gens, [({("x", "z"): 1}, {})])
    # a word that cancels is refused too
    with pytest.raises(ValueError, match=r"\('z', 'y'\).*'z'"):
        compile_relations(gens, [({("y", "x"): 1, ("z", "y"): 1}, {("z", "y"): 1})])
