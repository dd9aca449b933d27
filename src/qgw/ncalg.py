"""Finitely presented Z2-graded associative algebras with rewriting.

A Presentation is an ordered list of generators plus oriented rewrite rules,
each mapping a two-letter word to a linear combination of strictly smaller
words.  Presentation.reduce_terms rewrites the leftmost redex of a word
until none is left; Elements store only normal-form words.

The normal form nf(w) of each distinct word, with coefficient 1, is
computed once per memo, bottom-up on an explicit work stack (no
recursion).  The memo is local to one reduce_terms call unless the caller
passes its own: resolve_overlaps makes one per call and reduces both sides
of every overlap against it, associativity_probes every probe element and
product, and each drops it on return.  An input word already in the memo
starts no stack.  A word's leftmost redex is found when the word is made
(a child's scan starts at the redex of its parent minus one, since the
prefix before it is irreducible), through the private rule index
_follow[x][y], which is the rhs dict of the rule (x, y): a reducible word
is pushed with its redex and rule, an irreducible one goes straight into
the memo.  A Scalar coefficient and a tuple word are taken as they are.

Element(pres, terms) is the one public constructor: it coerces each
coefficient to a Scalar and each word to a tuple, refuses a letter that is
no generator with ValueError, sums repeated words and reduces.  Everything
else builds its Element with the trusted _element(pres, terms), whose terms
are already tuple-keyed, nonzero, Scalar-valued and in normal form: +, - and
scalar * combine normal forms, a product hands its dict of concatenated
words straight to reduce_terms (a unit factor, exactly {(): ONE}, returns
the other factor itself), and one, zero and gen skip rewriting.  So do
monomial and word on a word with no redex: Presentation.irreducible(word)
runs the scan that reduce_terms makes of each new word, on throwaway
containers, so there is one redex finder.
The rule index is written with its rule (by the constructor's structural
rules and add_rule), and no normal form outlives the call that owns its
memo, during which the rules do not change; so step counts do not depend
on what ran before.  STATS["steps"] counts the rule applications actually
performed: one per distinct reducible word per memo, counted also when a
call ends in StepCapExceeded.  The step cap bounds each reduce_terms call,
and a word already in a shared memo costs it nothing.

The term order is weighted deg-lex (total weight, every weight at least 1,
then length, then the index tuple), a monomial order: add_rule makes every
rule decrease in it, so rewriting terminates.  Left-hand sides have two
letters, so by Bergman's diamond lemma (Adv. Math. 29, 1978) the exhaustive
3-letter overlap_check is a complete confluence test, and only that: it
passes every overlap of overlaps(p), a rule (x, y) and a rule (y, z) found
through the index, to resolve_overlaps(p, triples), the one resolver, to
which z2_extend passes those that contain its new letter.
compile_relations and algebras.adjoin_inverses run it on each presentation
they build, and a failed overlap raises ConfluenceFailure.  Rules adjoined for
inverses of non-q-commuting generators (the d/a corrections in the 2x2
function algebras) may grow the word length and are admitted with
``unoriented=True``.  Such rules need not terminate under every strategy:
in the fa-*-inv algebras, rewriting di di ai at its rightmost di ai by the
correction term ai ai b c di di, again and again, gives words of 7, 11,
15, ... letters, so no reduction order fits them.  Whether leftmost
rewriting terminates on every word is not proved; the step cap bounds it
(StepCapExceeded), so overlap_check proves confluence only up to that cap,
and associativity_probes(p, n, rng), n random checks (a b) c = a (b c),
is the cross-check there.

Presentation.derive builds a presentation from another: it renames or
regrades the generators, adds generators and rules, and carries each rule's
unoriented flag and the step cap.  tensor(p1, p2, name) is the graded tensor
product, with the Koszul sign in its cross rules.  Presentation.graded, fixed
at construction, says whether some generator is odd: tensors and Hopf data
over the presentation are super exactly then.

A map given on generators extends to words by multiplicative(images, one)
and to combinations by linear(word_map, terms, zero), which takes no
product with a coefficient that is ONE; rule_residuals(pres,
word_map, zero) applies it to both sides of every rule, the left-hand-side
word unreduced, and the map is well defined exactly when all are zero.

echelon(rows, key) is the one exact elimination: compile_relations solves
relations for their rules with it, and smat.inv inverts matrices with it.

Element and gtensor.TensorElement share one arithmetic, the private base
_Terms: +, -, negation, scalar *, == and truth, each subclass giving its
space test, trusted constructor, unit and product; mixing the two raises
TypeError.  _add_scaled(acc, c, nf), acc += c * nf, is the one accumulate
of linear combinations: rewriting, the elimination, the relation rows,
gtensor's constructor and products and the rows of smat.lincomb, the sum of
scaled matrices, go through it.  Only _product and smat.products keep an
inline loop, which is faster on those hot paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .report import CheckReport
from .scalars import NUMBERS, ONE, Scalar, parse, render


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
        if type(self.degree) is not int or self.degree not in (0, 1):
            raise ValueError(f"degree of {self.name} must be 0 or 1, got {self.degree!r}")
        if self.nilpotent and self.inverse is not None:
            raise ValueError(f"nilpotent generator {self.name} cannot be invertible")
        if self.weight < 1:
            raise ValueError(f"weight of {self.name} must be at least 1, got {self.weight}")


class Presentation:
    """Ordered generators + compiled rewrite rules."""

    def __init__(self, gens, name="", step_cap=10**6):
        self.gens = tuple(gens)
        self.name = name
        self.step_cap = step_cap
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise ValueError("duplicate generator names")
        self.by_name = {g.name: g for g in self.gens}
        self._graded = any(g.degree for g in self.gens)
        self.unoriented = frozenset()
        self.rules: dict[tuple, dict[tuple, Scalar]] = {}
        # _follow[x][y] is rules[(x, y)], the same dict: written only with it
        self._follow: dict[str, dict[str, dict]] = {}
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
                self._set_rule((g.name, partner.name), {(): ONE})
            if g.nilpotent:
                self._set_rule((g.name, g.name), {})
        # these may be re-added unchanged, as derive does, but not changed
        self._structural = frozenset(self.rules)

    # -- term order -------------------------------------------------------
    def order_key(self, word):
        return (
            sum(self.by_name[x].weight for x in word),
            len(word),
            tuple(self.index[x] for x in word),
        )

    def degree(self, word) -> int:
        return sum(self.by_name[x].degree for x in word) % 2

    @property
    def graded(self) -> bool:
        return self._graded

    # -- rule management --------------------------------------------------
    def add_rule(self, lhs, rhs, unoriented=False):
        lhs = tuple(lhs)
        if len(lhs) != 2:
            raise ValueError(f"rule LHS must be a two-letter word, got {lhs}")
        # a coefficient equal to 1 is ONE itself, which rewriting skips multiplying by
        rhs = {tuple(w): ONE if c == ONE else c for w, c in
               ((w, Scalar(c)) for w, c in rhs.items()) if c}
        if lhs in self._structural and rhs != self.rules[lhs]:
            raise ValueError(f"rule {lhs} contradicts an inverse-pair or nilpotent rule")
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
        self._set_rule(lhs, rhs)

    def _set_rule(self, lhs, rhs):
        self.rules[lhs] = rhs
        self._follow.setdefault(lhs[0], {})[lhs[1]] = rhs

    def derive(self, gens=None, rename=None, rules=(), name=None) -> "Presentation":
        """A presentation on ``gens`` (default: these generators and their
        inverse partners renamed by the name map ``rename``) with every rule
        of this one carried through ``rename``, unoriented flags included,
        and then the extra ``(lhs, rhs, unoriented)`` rules."""
        rename = rename or {}

        def ren(w):
            return tuple(rename.get(x, x) for x in w)

        if gens is None:
            gens = [replace(g, name=rename.get(g.name, g.name),
                            inverse=g.inverse and rename.get(g.inverse, g.inverse))
                    for g in self.gens]
        out = Presentation(gens, name=self.name if name is None else name, step_cap=self.step_cap)
        for lhs, rhs in self.rules.items():
            out.add_rule(ren(lhs), {ren(w): c for w, c in rhs.items()}, lhs in self.unoriented)
        for lhs, rhs, unoriented in rules:
            out.add_rule(lhs, rhs, unoriented)
        return out

    # -- element constructors --------------------------------------------
    def monomial(self, word, coeff=ONE) -> "Element":
        word, coeff = self._checked_word(word), Scalar(coeff)
        if not coeff:
            return _element(self, {})
        return _element(self, {word: coeff} if self.irreducible(word)
                        else self.reduce_terms({word: coeff}))

    def gen(self, name) -> "Element":
        if name not in self.index:
            raise KeyError(name)
        return _element(self, {(name,): ONE})

    def one(self) -> "Element":
        return _element(self, {(): ONE})

    def zero(self) -> "Element":
        return _element(self, {})

    def word(self, *names) -> "Element":
        return self.monomial(names)

    def _checked_word(self, word) -> tuple:
        """``word`` as a tuple; ValueError names a letter that is no generator."""
        word = tuple(word)
        for x in word:
            if x not in self.index:
                raise ValueError(f"word {word} has the letter {x!r}, which is no "
                                 f"generator of {self.name or 'the presentation'}")
        return word

    # -- rewriting --------------------------------------------------------
    def irreducible(self, word) -> bool:
        """Whether ``word`` has no redex: the scan of reduce_terms, on
        throwaway containers, pushes nothing."""
        todo = []
        _scan(self._follow, tuple(word), 0, todo, {})
        return not todo

    def reduce_terms(self, terms, memo=None) -> dict:
        """Rewrite a word->coeff map to its normal form, as a fresh dict.

        The normal form nf(w) of each distinct word, with coefficient 1, is
        computed once and kept in ``memo``: a dict local to this call by
        default, or one the caller owns and passes to several calls on this
        presentation while its rules stay the same, so that a word reached
        in an earlier call is not rewritten again.  The memo holds finished
        normal forms only, also after StepCapExceeded, and none is mutated
        once stored.  The result is the sum of c * nf(w) over the input
        terms.  A word's leftmost redex is found when the word is made, so a
        word on the work stack is rewritten without a second scan, and an
        irreducible one goes straight into the memo.  The step cap bounds
        the steps of this call, which a word already in the memo costs none.
        """
        follow, cap = self._follow, self.step_cap
        if memo is None:
            memo = {}
        steps = 0
        out: dict[tuple, Scalar] = {}
        for word, coeff in reversed(terms.items()):
            if not isinstance(coeff, Scalar):
                coeff = Scalar(coeff)
            if not coeff:
                continue
            if type(word) is not tuple:
                word = tuple(word)
            # work stack: (w, hit, rhs) rewrites w at its leftmost redex hit by
            # rhs; (w, None, children) combines the children's normal forms
            # once they are all known
            todo = []
            if word not in memo:
                _scan(follow, word, 0, todo, memo)
            while todo:
                w, hit, rhs = todo.pop()
                if hit is None:
                    memo[w] = _combine(memo, rhs)
                    continue
                if w in memo:
                    continue
                if steps >= cap:
                    STATS["steps"] += steps
                    raise StepCapExceeded(f"rewriting exceeded {cap} steps in {self.name or 'unnamed'}")
                steps += 1
                # the prefix is irreducible: the children's scans start at hit - 1
                pre, post, start = w[:hit], w[hit + 2 :], hit - 1 if hit else 0
                children = []
                todo.append((w, None, children))
                for w2, c2 in rhs.items():
                    u = pre + w2 + post
                    children.append((u, c2))
                    if u not in memo:
                        _scan(follow, u, start, todo, memo)
            _add_scaled(out, coeff, memo[word])
        STATS["steps"] += steps
        return out

    def __repr__(self):
        return f"Presentation({self.name or 'anon'}, {len(self.gens)} gens, {len(self.rules)} rules)"


def tensor(p1: Presentation, p2: Presentation, name: str) -> Presentation:
    """Graded tensor product: both rule sets, and y u -> (-1)^{|y||u|} u y
    for each generator y of p2 and u of p1."""
    cross = [((y.name, u.name), {(u.name, y.name): -ONE if y.degree and u.degree else ONE}, False)
             for y in p2.gens for u in p1.gens]
    own = [(lhs, rhs, lhs in p2.unoriented) for lhs, rhs in p2.rules.items()]
    return p1.derive(gens=p1.gens + p2.gens, rules=own + cross, name=name)


def _scan(follow, w, start, todo, memo):
    """Push (w, hit, rhs) for the leftmost redex of ``w`` at or after
    ``start``, or put the irreducible ``w`` into the memo as its own normal
    form."""
    f, hit = None, start - 1
    for y in w[start:]:
        if f and y in f:  # (w[hit], y) is a left-hand side
            todo.append((w, hit, f[y]))
            return
        f, hit = follow.get(y), hit + 1
    memo[w] = {w: ONE}


def _add_scaled(acc, c, nf):
    """acc += c * nf, dropping words whose sum is zero.  The ONE of an
    irreducible word's normal form or of a rule is not multiplied by."""
    for w, cw in nf.items():
        if cw is ONE:
            cw = c
        elif c is not ONE:
            cw = c * cw
        a = acc.get(w)
        if a is None:
            acc[w] = cw
        else:
            a = a + cw
            if a:
                acc[w] = a
            else:
                del acc[w]


def echelon(rows, key):
    """The reduced row-echelon form of ``rows``, each a dict {column: value}
    of nonzero values that stands for the relation sum value * column = 0,
    pivoting on the column of largest ``key``; the rows are consumed.
    Returns (solved, pivots): solved[p] is the rhs of p -> rhs, the row
    solved for its pivot p, and pivots lists the pivots in increasing key.

    - forward: a row's leading column is replaced by the solved row of that
      pivot, if there is one, until the leading column is new (the row is
      solved for it) or the row is zero;
    - back-substitution: smallest pivot first, each pivot is cleared from
      the solved rows of larger pivots.

    The reduced row-echelon basis of a row space for a fixed column order is
    unique, and a Scalar has one representation per value, so the result
    does not depend on the order of the rows."""
    solved = {}
    for row in rows:
        while row:
            lead = max(row, key=key)
            rhs = solved.get(lead)
            if rhs is None:
                c = -row.pop(lead)
                solved[lead] = {w: cw / c for w, cw in row.items()}
                break
            _add_scaled(row, row.pop(lead), rhs)
    pivots = sorted(solved, key=key)
    for p in pivots:
        rhs = solved[p]
        # the pivots in rhs are smaller than p, and their rows are already cleared
        for w in [w for w in rhs if w in solved]:
            _add_scaled(rhs, rhs.pop(w), solved[w])
    return solved, pivots


def _combine(memo, children):
    """Sum of c * nf(u) over the (u, c) children, last child first as the
    tree rewriting visited them."""
    if len(children) == 1 and children[0][1] is ONE:
        return memo[children[0][0]]
    acc: dict[tuple, Scalar] = {}
    for u, c in reversed(children):
        _add_scaled(acc, c, memo[u])
    return acc


def _is_unit(terms) -> bool:
    """Whether ``terms`` are exactly {(): ONE}, the module's own ONE."""
    return len(terms) == 1 and terms.get(()) is ONE


def _product(a: Element, b: Element, memo=None) -> Element:
    """a * b over one presentation: the concatenated words reduced against
    ``memo`` (see Presentation.reduce_terms).  A unit factor, whose terms
    are exactly {(): ONE}, returns the other factor itself, since no code
    mutates an Element's terms."""
    if _is_unit(a.terms):
        return b
    if _is_unit(b.terms):
        return a
    prod: dict[tuple, Scalar] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            c = c1 * c2
            s = prod.get(w)
            if s is None:
                prod[w] = c
            else:
                s = s + c
                if s:
                    prod[w] = s
                else:
                    del prod[w]
    return _element(a.pres, a.pres.reduce_terms(prod, memo))


class _Terms:
    """The arithmetic of Element and TensorElement: +, -, negation, scalar
    *, == and truth of the ``terms`` dict, normal-form keys with nonzero
    Scalar coefficients, over ``pres``.  A number acts as that multiple of
    the unit; any other operand not of the same type gives NotImplemented,
    so mixing an Element with a TensorElement raises TypeError.  A subclass
    supplies _check (raise unless other lies in the same space), _same (the
    same test as a bool, for ==), _new (the trusted constructor on this
    space), _unit_key and _mul (its product, after _check)."""

    __slots__ = ("pres", "terms")

    def _constant(self, c):
        c = Scalar(c)
        return self._new({self._unit_key(): c} if c else {})

    # ``type(other) is not type(self)`` first: isinstance(other, NUMBERS)
    # asks Fraction's ABC, which is slow for an Element
    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, NUMBERS):
                return NotImplemented
            other = self._constant(other)
        self._check(other)
        t = dict(self.terms)
        _add_scaled(t, ONE, other.terms)
        return self._new(t)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(other, NUMBERS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, NUMBERS):
            return NotImplemented
        return (-self) + other

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, NUMBERS):
                return NotImplemented
            c0 = Scalar(other)
            return self._new({k: c * c0 for k, c in self.terms.items()} if c0 else {})
        self._check(other)
        return self._mul(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, NUMBERS):
                return NotImplemented
            other = self._constant(other)
        return self._same(other) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)


class Element(_Terms):
    """Normal-form linear combination of generator words.

    ``Element(pres, terms)`` takes a dict or pairs of words and coefficients:
    it coerces each coefficient to a Scalar and each word to a tuple, refuses
    a letter that is no generator with ValueError, sums the coefficients of
    a repeated word, drops zeros and reduces.
    Arithmetic, whose terms are already in that form, builds its result with
    ``_element`` and coerces nothing again.
    """

    __slots__ = ()

    def __init__(self, pres: Presentation, terms):
        self.pres = pres
        t = {}
        for w, c in terms.items() if isinstance(terms, dict) else terms:
            w, c = pres._checked_word(w), Scalar(c)
            if c:
                _add_scaled(t, c, {w: ONE})
        self.terms = pres.reduce_terms(t)

    def _check(self, other):
        if self.pres is not other.pres:
            raise ValueError("elements over different presentations")

    def _same(self, other):
        return self.pres is other.pres

    def _new(self, terms):
        return _element(self.pres, terms)

    def _unit_key(self):
        return ()

    _mul = _product

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms.items())))

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


def _element(pres: Presentation, terms: dict) -> Element:
    """The Element with exactly ``terms``, which the caller guarantees are
    tuple words in normal form with nonzero Scalar coefficients."""
    e = object.__new__(Element)
    e.pres, e.terms = pres, terms
    return e


# -- maps given on generators --------------------------------------------

def multiplicative(images, one):
    """The word map w -> one * images[w0] * images[w1] * ..., folded left to
    right; a zero product ends the fold."""
    def word_map(word):
        out = one
        for x in word:
            out = out * images[x]
            if not out:
                break
        return out
    return word_map


def linear(word_map, terms, zero):
    """The sum of word_map(w) * c over the (w, c) items of ``terms``; a
    coefficient that is ONE is not multiplied by."""
    out = zero
    for w, c in terms.items():
        out = out + (word_map(w) if c is ONE else word_map(w) * c)
    return out


def rule_residuals(pres: Presentation, word_map, zero):
    """(lhs, word_map(lhs) - linear(word_map, rhs, zero)) for each rule of
    ``pres``.  The map sees the left-hand-side word itself, never its normal
    form, so zero residuals prove that it respects the rule."""
    for lhs, rhs in pres.rules.items():
        yield lhs, word_map(lhs) - linear(word_map, rhs, zero)


# -- relation compilation -------------------------------------------------

def compile_relations(gens, relations, name=""):
    """Turn homogeneous quadratic relations into an oriented rewrite system.

    ``relations`` is a list of (lhs, rhs) pairs of dicts from words to
    coefficients (Scalars or numbers); a word with a letter that is no
    generator is refused with ValueError.  Each
    relation lhs - rhs, reduced modulo the inverse-pair and nilpotent rules,
    is one row over the word basis, and :func:`echelon` brings the rows to
    reduced row-echelon form, pivoting on the order-leading word.  Each
    word's order_key is computed once per call, in a dict local to it.  Each
    solved row becomes one rule, added in decreasing pivot order, so the
    rules and their coefficients do not depend on the order of the
    relations.  NotSolvable when
    a pivot is not a two-letter word; ConfluenceFailure when overlap_check
    finds an unresolved overlap.
    """
    pres = Presentation(gens, name=name)
    index = pres.index
    keys: dict[tuple, tuple] = {}

    def as_terms(x):
        return {tuple(w): c for w, c in ((w, Scalar(c)) for w, c in x.items()) if c}

    def add_keys(row):
        for w in row:
            if w not in keys:
                for x in w:
                    if x not in index:
                        raise ValueError(f"relation word {w} of {name or 'a presentation'} "
                                         f"has the letter {x!r}, which is no generator")
                keys[w] = pres.order_key(w)

    rows = []
    for lhs, rhs in relations:
        row, rhs = as_terms(lhs), as_terms(rhs)
        add_keys(row)
        add_keys(rhs)
        _add_scaled(row, -ONE, rhs)
        # reduce modulo the structural rules (inverse pairs, nilpotents), if any
        if pres.rules:
            row = pres.reduce_terms(row)
            add_keys(row)
        if row:
            rows.append(row)

    solved, pivots = echelon(rows, keys.__getitem__)
    for pivot in reversed(pivots):
        if len(pivot) != 2:
            raise NotSolvable(f"relation pivot {pivot} is not a quadratic word")
        pres.add_rule(pivot, solved[pivot])

    rep = overlap_check(pres)
    if not rep.ok:
        raise ConfluenceFailure(f"{name}: {rep.failures[:3]}")
    return pres


# -- confluence certification --------------------------------------------

def overlaps(p: Presentation):
    """The overlaps x y z of ``p``, a rule (x, y) and a rule (y, z): the
    rules (y, z) in rule order, found through the rule index, for each rule
    (x, y) in rule order."""
    for x, y in p.rules:
        for z in p._follow.get(y, ()):
            yield x, y, z


def resolve_overlaps(p: Presentation, triples) -> CheckReport:
    """One check per overlap x y z of ``triples``: rewriting it by (x, y)
    first and by (y, z) first gives the same normal form.

    Both sides of every overlap are reduced against one normal-form memo
    made by this call and dropped on return: the rules do not change
    meanwhile, so each distinct reducible word costs one step per call, and
    the steps of a call do not depend on what ran before it."""
    rep = CheckReport(p.name)
    memo: dict[tuple, dict] = {}
    rules = p.rules
    for x, y, z in triples:
        left = {w + (z,): c for w, c in rules[(x, y)].items()}
        right = {(x,) + w: c for w, c in rules[(y, z)].items()}
        try:
            rep.record(p.reduce_terms(left, memo) == p.reduce_terms(right, memo),
                       ("overlap", (x, y, z)))
        except StepCapExceeded:
            rep.record(False, ("stepcap", (x, y, z)))
    return rep


def overlap_check(p: Presentation) -> CheckReport:
    """Every overlap of ``p`` resolved, one check per overlap: a confluence
    proof when every rule is oriented, and with unoriented rules one only up
    to the step cap."""
    return resolve_overlaps(p, overlaps(p))


def associativity_probes(p: Presentation, n: int, rng) -> CheckReport:
    """n random associativity probes (a b) c == a (b c), one check per
    probe, each of a, b and c one to three random words of up to four
    letters with integer coefficients from -3 to 3 drawn from ``rng``: the
    cross-check for unoriented rules, where overlap_check proves confluence
    only up to the step cap.

    Every element and product is reduced against one normal-form memo made
    by this call and dropped on return, so the steps of a call depend only
    on the draws."""
    rep = CheckReport(p.name)
    memo: dict[tuple, dict] = {}
    names = [g.name for g in p.gens]

    def rand_elem():
        t = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
            t[w] = Scalar(rng.randint(-3, 3))
        # Element(p, t) without the checks: every word is of generators
        return _element(p, p.reduce_terms(t, memo))

    for _ in range(n):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        ok = _product(_product(a, b, memo), c, memo) == _product(a, _product(b, c, memo), memo)
        # str loads sympy, so a probe is printed only when it fails
        rep.record(ok, None if ok else ("assoc", (str(a), str(b), str(c))))
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


_GENERATOR_KEYS = frozenset(("name", "degree", "nilpotent", "inverse", "weight"))


def _json_generator(g) -> GeneratorSymbol:
    if not (isinstance(g, dict) and isinstance(g.get("name"), str) and set(g) <= _GENERATOR_KEYS):
        raise ValueError(f"generator {g!r} is not an object with a string name "
                         f"and keys from {sorted(_GENERATOR_KEYS)}")
    degree, weight = g.get("degree", 0), g.get("weight", 1)
    nilpotent, inverse = g.get("nilpotent", False), g.get("inverse")
    if type(weight) is not int or weight < 1:
        raise ValueError(f"weight of {g['name']} must be a positive integer, got {weight!r}")
    if not isinstance(nilpotent, bool) or not (inverse is None or isinstance(inverse, str)):
        raise ValueError(f"generator {g['name']}: nilpotent must be a boolean, inverse a name or null")
    return GeneratorSymbol(g["name"], degree, nilpotent, inverse, weight)


def _json_word(w, names) -> tuple:
    if not (isinstance(w, list) and all(isinstance(x, str) and x in names for x in w)):
        raise ValueError(f"word {w!r} is not a list of generator names")
    return tuple(w)


def _json_rule(r, names):
    """(lhs, rhs, unoriented) of one rule object."""
    if not (isinstance(r, dict) and isinstance(r.get("rhs"), list)
            and isinstance(r.get("unoriented", False), bool)):
        raise ValueError(f"rule {r!r} is not an object with lhs, an rhs list and a boolean unoriented")
    rhs = {}
    for t in r["rhs"]:
        if not (isinstance(t, dict) and isinstance(t.get("coeff"), str)):
            raise ValueError(f"rhs term {t!r} is not an object with a word and a string coeff")
        w = _json_word(t.get("word"), names)
        if w in rhs:
            raise ValueError(f"word {list(w)} is given twice in the rhs of rule {r.get('lhs')!r}")
        rhs[w] = parse(t["coeff"])
    return _json_word(r.get("lhs"), names), rhs, r.get("unoriented", False)


def presentation_from_json(text: str) -> Presentation:
    """Read what :func:`presentation_to_json` writes; ValueError on malformed data,
    including a rule lhs given twice or a word given twice in one rhs."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not (isinstance(data, dict) and isinstance(data.get("generators"), list)
            and isinstance(data.get("rules"), list) and isinstance(data.get("name", ""), str)):
        raise ValueError("expected a JSON object with generators and rules lists and a string name")
    pres = Presentation([_json_generator(g) for g in data["generators"]], name=data.get("name", ""))
    seen = set()
    for r in data["rules"]:
        lhs, rhs, unoriented = _json_rule(r, pres.index)
        if lhs in seen:
            raise ValueError(f"rule lhs {list(lhs)} is given twice")
        seen.add(lhs)
        try:
            pres.add_rule(lhs, rhs, unoriented)
        except NonTerminatingOrder as exc:
            raise ValueError(str(exc)) from None
    return pres
