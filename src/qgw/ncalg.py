"""Finitely presented Z2-graded associative algebras with rewriting.

A Presentation is an ordered list of generators plus oriented rewrite rules,
each mapping a two-letter word to a linear combination of strictly smaller
words.  Presentation.reduce_terms repeatedly applies the leftmost
applicable rule until a fixed point; Elements store only normal-form words.

The term order is weighted deg-lex: total generator weight, then length,
then the index tuple.  Rules produced by compile_relations are always
order-decreasing.  Rules adjoined for inverses of non-q-commuting generators
(the d/a corrections in the 2x2 function algebras) may grow the word length;
they are admitted with ``unoriented=True`` and termination for them is
enforced empirically by the step cap and certified by the overlap/
associativity battery.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .scalars import ONE, ZERO, Scalar, parse, render


class NcalgError(Exception):
    pass


class NotSolvable(NcalgError):
    pass


class NonTerminatingOrder(NcalgError):
    pass


class ConfluenceFailure(NcalgError):
    pass


class StepCapExceeded(NcalgError):
    pass


#: engine statistics, read/reset by the CLI runner
STATS = {"steps": 0}


@dataclass(frozen=True)
class GeneratorSymbol:
    name: str
    degree: int = 0
    nilpotent: bool = False
    inverse: str | None = None  # name of inverse partner (may be self)
    weight: int = 1

    def __post_init__(self):
        if self.nilpotent and self.inverse is not None:
            raise ValueError(f"nilpotent generator {self.name} cannot be invertible")


class Presentation:
    """Ordered generators + compiled rewrite rules."""

    def __init__(self, gens, rules=None, name="", step_cap=10**6, unoriented=()):
        self.gens = tuple(gens)
        self.name = name
        self.step_cap = step_cap
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise ValueError("duplicate generator names")
        self.by_name = {g.name: g for g in self.gens}
        self.unoriented = frozenset(unoriented)
        self.rules: dict[tuple, dict[tuple, Scalar]] = {}
        # structural rules first: inverse pairs and nilpotent squares
        for g in self.gens:
            if g.inverse is not None:
                partner = self.by_name.get(g.inverse)
                if partner is None:
                    raise ValueError(f"missing inverse partner {g.inverse} of {g.name}")
                if partner.inverse != g.name:
                    raise ValueError(f"inverse partners {g.name}/{partner.name} not mutual")
                if g.degree != 0 or partner.degree != 0:
                    raise ValueError("invertible generators must be even")
                self.rules[(g.name, partner.name)] = {(): ONE}
            if g.nilpotent:
                self.rules[(g.name, g.name)] = {}
        if rules:
            for lhs, rhs in rules.items():
                self.add_rule(lhs, rhs)

    # -- term order -------------------------------------------------------
    def order_key(self, word):
        return (
            sum(self.by_name[x].weight for x in word),
            len(word),
            tuple(self.index[x] for x in word),
        )

    def degree(self, word) -> int:
        return sum(self.by_name[x].degree for x in word) % 2

    # -- rule management --------------------------------------------------
    def add_rule(self, lhs, rhs, unoriented=False):
        lhs = tuple(lhs)
        if len(lhs) != 2:
            raise ValueError(f"rule LHS must be a two-letter word, got {lhs}")
        rhs = {tuple(w): Scalar(c) for w, c in rhs.items() if Scalar(c)}
        if not (unoriented or lhs in self.unoriented):
            key = self.order_key(lhs)
            for w in rhs:
                if self.order_key(w) >= key:
                    raise NonTerminatingOrder(f"rule {lhs} -> {w} is not order-decreasing")
        else:
            self.unoriented = self.unoriented | {lhs}
        # Z2-degree compatibility, rule by rule
        d = self.degree(lhs)
        for w in rhs:
            if self.degree(w) != d:
                raise ValueError(f"rule {lhs} -> {w} changes Z2-degree")
        self.rules[lhs] = rhs

    # -- element constructors --------------------------------------------
    def element(self, terms) -> "Element":
        return Element(self, terms)

    def monomial(self, word, coeff=ONE) -> "Element":
        return Element(self, {tuple(word): Scalar(coeff)})

    def gen(self, name) -> "Element":
        if name not in self.index:
            raise KeyError(name)
        return Element(self, {(name,): ONE})

    def one(self) -> "Element":
        return Element(self, {(): ONE})

    def zero(self) -> "Element":
        return Element(self, {})

    def word(self, *names) -> "Element":
        return Element(self, {tuple(names): ONE})

    # -- rewriting --------------------------------------------------------
    def reduce_terms(self, terms) -> dict:
        """Rewrite a word->coeff map to its normal form."""
        out: dict[tuple, Scalar] = {}
        stack = [(tuple(w), Scalar(c)) for w, c in terms.items()]
        steps = 0
        rules = self.rules
        while stack:
            word, coeff = stack.pop()
            if not coeff:
                continue
            hit = None
            for i in range(len(word) - 1):
                pair = word[i : i + 2]
                if pair in rules:
                    hit = i
                    break
            if hit is None:
                acc = out.get(word)
                s = coeff if acc is None else acc + coeff
                if s:
                    out[word] = s
                elif acc is not None:
                    del out[word]
                continue
            pre, post = word[:hit], word[hit + 2 :]
            for w2, c2 in rules[word[hit : hit + 2]].items():
                stack.append((pre + w2 + post, coeff * c2))
            steps += 1
            if steps > self.step_cap:
                raise StepCapExceeded(f"rewriting exceeded {self.step_cap} steps in {self.name}")
        STATS["steps"] += steps
        return out

    def __repr__(self):
        return f"Presentation({self.name or 'anon'}, {len(self.gens)} gens, {len(self.rules)} rules)"


class Element:
    """Normal-form linear combination of generator words."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: Presentation, terms, normalize=True):
        self.pres = pres
        t = {tuple(w): Scalar(c) for w, c in (terms.items() if isinstance(terms, dict) else terms) if Scalar(c)}
        self.terms = pres.reduce_terms(t) if normalize else t

    def _check(self, other):
        if self.pres is not other.pres:
            raise ValueError("elements over different presentations")

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.element({(): Scalar(other)})
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, ZERO) + c
            if s:
                t[w] = s
            else:
                t.pop(w, None)
        return Element(self.pres, t, normalize=False)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Element) else -Scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Element(self.pres, {w: -c for w, c in self.terms.items()}, normalize=False)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c0 = Scalar(other)
            return Element(self.pres, {w: c * c0 for w, c in self.terms.items()}, normalize=False)
        self._check(other)
        prod: dict[tuple, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = prod.get(w, ZERO) + c
                if s:
                    prod[w] = s
                else:
                    prod.pop(w, None)
        return Element(self.pres, prod)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.element({(): Scalar(other)})
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def degree(self):
        """0/1 when all words agree in Z2-degree, 'mixed' otherwise, None for 0."""
        if not self.terms:
            return None
        degs = {self.pres.degree(w) for w in self.terms}
        return degs.pop() if len(degs) == 1 else "mixed"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=self.pres.order_key):
            c = self.terms[w]
            mono = "*".join(w) if w else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Element[{self}]"


# -- relation compilation -------------------------------------------------

def compile_relations(gens, relations, name="", step_cap=10**6, check_confluence=True,
                      extra_rules=None, sample_budget=200, rng=None):
    """Turn homogeneous quadratic relations into an oriented rewrite system.

    ``relations`` is a list of (lhs, rhs) pairs of Elements (over any
    presentation on the same generators) or raw word->coeff dicts.  The
    relation set is row-reduced over the word basis, pivoting on the
    order-leading word of each row; each reduced row becomes one rule.
    """
    pres = Presentation(gens, name=name, step_cap=step_cap)

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
        # reduce modulo the structural rules (inverse pairs, nilpotents)
        row = pres.reduce_terms(row)
        if row:
            rows.append(row)

    key = pres.order_key
    solved = []  # (pivot_word, row) with row[pivot] == 1
    while rows:
        rows.sort(key=lambda r: key(max(r, key=key)))
        row = rows.pop()
        pivot = max(row, key=key)
        pc = row[pivot]
        row = {w: c / pc for w, c in row.items()}
        # eliminate the pivot from everything else
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
        rhs = {w: -c for w, c in row.items() if w != pivot}
        pres.add_rule(pivot, rhs)

    if extra_rules:
        for lhs, rhs, unoriented in extra_rules:
            pres.add_rule(lhs, rhs, unoriented=unoriented)

    if check_confluence:
        rep = overlap_check(pres, sample_budget=sample_budget, rng=rng)
        if not rep.ok:
            raise ConfluenceFailure(f"{name}: {rep.failures[:3]}")
    return pres


# -- confluence certification --------------------------------------------

@dataclass
class OverlapReport:
    presentation: str
    overlaps_checked: int = 0
    probes: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def overlap_check(p: Presentation, sample_budget: int = 0, rng=None) -> OverlapReport:
    """Exhaustive 3-letter overlap resolution plus random associativity probes."""
    rep = OverlapReport(presentation=p.name)
    rules = p.rules
    for (x, y) in rules:
        for (y2, z) in rules:
            if y2 != y:
                continue
            rep.overlaps_checked += 1
            left = {}
            for w, c in rules[(x, y)].items():
                left[w + (z,)] = left.get(w + (z,), ZERO) + c
            right = {}
            for w, c in rules[(y, z)].items():
                right[(x,) + w] = right.get((x,) + w, ZERO) + c
            try:
                if p.reduce_terms(left) != p.reduce_terms(right):
                    rep.failures.append(("overlap", (x, y, z)))
            except StepCapExceeded:
                rep.failures.append(("stepcap", (x, y, z)))
    if sample_budget:
        rng = rng or random.Random(0)
        names = [g.name for g in p.gens]
        def rand_elem():
            t = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
                t[w] = Scalar(rng.randint(-3, 3))
            return Element(p, t)
        for _ in range(sample_budget):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            rep.probes += 1
            if (a * b) * c != a * (b * c):
                rep.failures.append(("assoc", (str(a), str(b), str(c))))
    return rep


# -- serialization --------------------------------------------------------

def presentation_to_json(p: Presentation) -> str:
    data = {
        "name": p.name,
        "generators": [
            {"name": g.name, "degree": g.degree, "nilpotent": g.nilpotent,
             "inverse": g.inverse, "weight": g.weight}
            for g in p.gens
        ],
        "rules": [
            {"lhs": list(lhs),
             "rhs": [{"word": list(w), "coeff": render(c)} for w, c in rhs.items()],
             "unoriented": lhs in p.unoriented}
            for lhs, rhs in p.rules.items()
        ],
    }
    return json.dumps(data, indent=1)


def presentation_from_json(text: str) -> Presentation:
    data = json.loads(text)
    gens = [GeneratorSymbol(**g) for g in data["generators"]]
    pres = Presentation(gens, name=data.get("name", ""))
    for r in data["rules"]:
        lhs = tuple(r["lhs"])
        if lhs in pres.rules and not r.get("unoriented"):
            continue  # structural rule already present
        rhs = {tuple(t["word"]): parse(t["coeff"]) for t in r["rhs"]}
        pres.add_rule(lhs, rhs, unoriented=r.get("unoriented", False))
    return pres
