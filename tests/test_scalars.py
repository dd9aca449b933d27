import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import add, mul, sub, truediv
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

from qgw import scalars
from qgw.scalars import ONE, ZERO, Scalar, imag_unit, indet, parse, qvar, render, sign_pow


def test_basic_arithmetic():
    q = qvar()
    assert q * (ONE / q) == ONE
    assert q - q == ZERO
    assert (q + ONE) * (q - ONE) == q * q - ONE
    assert not ZERO
    assert ONE


def test_negative_powers():
    q = qvar()
    assert q ** -2 == ONE / (q * q)
    assert q ** 0 == ONE
    assert (q ** -3) * (q ** 3) == ONE
    # inverting a negative leading coefficient keeps the denominator canonical
    assert (-q) ** -3 == -ONE / q ** 3
    assert (ONE - q) ** -1 == ONE / (ONE - q)
    assert (-q) ** -1 + ONE / q == ZERO


def test_sign_pow():
    assert sign_pow(0) == ONE
    assert sign_pow(1) == -ONE
    assert sign_pow(-3) == -ONE
    assert sign_pow(4) == ONE


def test_imag_unit(restore_field):
    i = imag_unit()
    assert i * i == -ONE


def test_label_indeterminates():
    l1, m1 = indet("lam1"), indet("mu1")
    assert l1 != m1
    assert l1 * m1 == m1 * l1


def test_parse_render_roundtrip():
    q = qvar()
    a = (q * q - ONE) / (q ** 3) + indet("lam1")
    assert parse(render(a)) == a


@pytest.mark.parametrize("text", ['__import__("os").getpid() + q', "Q + 1", "1.5",
                                  "q.conjugate()", "2q", "q^^2", "1/0", ""])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize("text", ["-q**2", "q**-2", "2**-1", "-2^2", "2*-3+4", "2^3^2",
                                  "q/q/q*q", "--q", "-(q+1)^2/3 - +lam1", "q^-(1+1)",
                                  "0^2", "(q-q)^3"])
def test_parse_has_python_precedence(text):
    want = sympy.sympify(text.replace("^", "**"))
    assert parse(text).f == scalars._REG.field.from_expr(want)


def test_parse_takes_long_sums():
    q = qvar()
    assert parse("+".join(["q"] * 3000)) == 3000 * q
    x = sum((k * q ** (k - 100) for k in range(1, 3201)), ZERO)
    # the shape of render(x), which sympy's printer takes seconds to build
    text = "(" + " + ".join(f"{k}*q**{k - 1}" for k in range(3200, 0, -1)) + ")/q**99"
    assert parse(text) == x


def test_parse_runs_no_code(tmp_path):
    target = tmp_path / "written"
    with pytest.raises(ValueError):
        parse(f"open({str(target)!r}, 'w').write('x') + q")
    assert not target.exists()


_HOSTILE = ["9^9^9", "((2^100)^1000)^1000", "((2^10)^1000)^1000", "1" + "0" * 200,
            "(q+lam1+lam2+mu1+mu2)^30", "(q+lam1+lam2+mu1+mu2)^12*(q+lam1+lam2+mu1+mu2)^12",
            "(" * 1000 + "q" + ")" * 1000, "-" * 1000 + "q", "q^(1/2)", "2^q",
            "(" + "+".join(f"q^{k}" for k in range(100)) + ")^1000000"]


# binomials of huge degree that stay sparse: Phi_d(q) for every d | 2^29,
# and a divisor q^(10^9) - 1 with the factor Phi_5(q), which sympy keeps
_SPARSE = ["1/(q^(2^29)-1) - 1/(q^(2^29)+1)", "(q^(2^29)+1)/(q^(2^28)+1)", "1/(q^(10^9)-1)"]
# values whose canonical denominator, or a sum's common one, is dense: of
# degree about 2^30 (q^(2^29) - 1 squared, over q + 1), and a numerator of
# 2^20 terms, (q^(2^20) - 1)/(q - 1) + 1; exact quotients of 2^22 and 2^29
# terms; and gcds in sympy's field of degree 2^22 (the divisor has the
# factor q^2 + q + 1) and 10^6 (q^(10^6) - 1 has the factor Phi_5(q)); and
# a sum and a difference of seven fractions that sympy's field holds, of
# degree 4 only, refused at the fourth, whose common denominator with the
# first three would have 455 x 35 terms
_FRACTIONS = [f"((q + {j}*lam1 + lam2 + 1)^4 + 1)/((q + lam1 + {j + 1}*lam2 + 2)^4 + 3)"
              for j in range(1, 8)]
_DENSE = ["1/(q^(2^29)-1)^2 * (q+1)", "1/(q^(2^20)-1) + 1/(q-1)",
          "(q^(2^22)-1)/(q-1)", "(q^(2^29)-1)/(q-1)", "(q^(2^22)-1)/(q^3-1)",
          "q + 1/(q^(10^6)-1)", " + ".join(_FRACTIONS), " - ".join(_FRACTIONS)]


def _in_subprocess(code, args, timeout):
    """The output lines of ``code`` run on ``args`` in a subprocess with a
    timeout, so that a regression fails instead of hanging."""
    src = str(Path(scalars.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=timeout,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def _parse_in_subprocess(texts, timeout):
    """'ValueError' or 'parsed' for each text."""
    code = ("import sys\nfrom qgw.scalars import parse\n"
            "for t in sys.argv[1:]:\n"
            "    try:\n        parse(t)\n    except ValueError:\n        print('ValueError')\n"
            "    else:\n        print('parsed')\n")
    return _in_subprocess(code, texts, timeout)


def test_native_values_compare_and_hash_without_sympy():
    """Equality, hashing and products with ONE of native values, constants
    among them, and the native arithmetic of Laurent polynomials with an
    int on either side, negative powers and division by binomials, never
    load sympy."""
    code = ("import sys\nfrom qgw.scalars import ONE, Scalar, indet, parse, qvar\n"
            "q = qvar()\nx = q + 1\n"
            "print(Scalar(1) == ONE, hash(Scalar(1)) == hash(1), x == parse('q + 1'),"
            " x * ONE is x, ONE * indet('mu2') == indet('mu2'), Scalar(2) != ONE)\n"
            "print(q - 3 == parse('q - 3'), 3 - q == parse('3 - q'), 3 / q == parse('3/q'),"
            " ONE / (q**2 - 1) == parse('1/(q^2 - 1)'), q ** -2 == parse('q^-2'),"
            " x ** -1 == parse('1/(q + 1)'))\n"
            "print('sympy' in sys.modules)\n")
    assert _in_subprocess(code, [], 60) == ["True"] * 12 + ["False"]


def test_parse_refuses_huge_work_in_time():
    assert (_parse_in_subprocess(_HOSTILE + _SPARSE, 60)
            == ["ValueError"] * len(_HOSTILE) + ["parsed"] * len(_SPARSE))


def test_parse_bounds_denominators_in_time():
    assert _parse_in_subprocess(_DENSE, 10) == ["ValueError"] * len(_DENSE)


def test_parse_bounds_the_degree_of_a_gcd():
    # at the bound sympy takes the gcd q - 1; past it the gcd is refused
    # before it is taken, unless a monomial makes it trivial
    n = scalars._MAX_DEGREE
    assert parse(f"(q^{n}-1)/(q^3-1)") * parse("q^3-1") == parse(f"q^{n}-1")
    for text in (f"(q^{n + 1}-1)/(q^3-1)", f"(q^3-1)/(q^{n + 1}-1)",
                 f"1/(q^{n + 1}-1) * (q+2)", f"q + 1/(q^{n + 1}-1)"):
        with pytest.raises(ValueError, match="gcd of degree"):
            parse(text)
    assert parse(f"2/(q^{n + 1}-1) * q^3") * parse(f"q^{n + 1}-1") == 2 * qvar() ** 3


def test_parse_refuses_a_native_sum_before_it_is_computed():
    # over the lcm q^(2^20) - 1, 1/(q - 1) is multiplied by the 2^20 terms
    # of (q^(2^20) - 1)/(q - 1), though its own denominator has two
    with pytest.raises(ValueError, match="sum too large"):
        parse("1/(q^(2^20)-1) + 1/(q-1)")


def test_exact_quotient_costs_its_terms():
    # the quotient q^(2^28 + 1) - q^(2^28) + q - 1 skips a stretch of 2^28 - 2
    # zero terms; (q^(2^28) - 1)/(q - 1), of 2^28 terms, is refused unbuilt
    code = ("from qgw.scalars import ONE, qvar\nq = qvar()\nn = 2 ** 28\n"
            "x = (q ** n + ONE) * (q ** 2 - ONE) / (q + ONE)\n"
            "print(x == q ** (n + 1) - q ** n + q - ONE, len(x._d), x._b)\n"
            "try:\n    (q ** n - ONE) / (q - ONE)\nexcept ValueError:\n"
            "    print('ValueError')\n")
    assert _in_subprocess(code, [], 10) == ["True", "4", "()", "ValueError"]


def test_coercions():
    assert Scalar(3) + 2 == Scalar(5)
    assert 2 * qvar() == qvar() + qvar()


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_ring_axioms_on_small_polynomials(a, b, c):
    q = qvar()
    x, y, z = q + a, q * q + b, ONE / q + c
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(st.integers(-4, 4))
def test_power_consistency(k):
    q = qvar()
    lhs = q ** k
    rhs = ONE
    for _ in range(abs(k)):
        rhs = rhs * (q if k >= 0 else ONE / q)
    assert lhs == rhs


# binomial factors Phi_d(m) of the native tier, and products of them
_BINOMIALS = ["q - 1", "q + 1", "q^2 + 1", "q^4 + 1", "q - 1/q", "q^2 - 1", "lam1*q - 1",
              "q - lam1", "lam1*lam2*mu1*mu2 - 1"]
# divisors that have another irreducible factor, so that sympy keeps them
_GENERAL = ["q^2 + 2", "q^2 + q + 1", "2*q - 1", "q^3 - 1"]


def _laurent_texts():
    """Text of Laurent polynomials in q and lam1."""
    small = st.integers(-3, 3)
    return st.builds(
        lambda cs, s, c: "+".join([f"({k})*q^({i - s})" for i, k in enumerate(cs)] + [f"({c})*lam1"]),
        st.lists(small, max_size=4), st.integers(0, 3), small)


def _over_binomials(laurent, binomials, max_size):
    """Text of Laurent polynomials over products of 1 to ``max_size`` powers
    of the ``binomials``."""
    power = st.builds(lambda b, e: f"({b})^{e}", st.sampled_from(binomials), st.integers(1, 2))
    return st.builds(lambda x, ps: f"({x})/({'*'.join(ps)})", laurent,
                     st.lists(power, min_size=1, max_size=max_size))


def _texts():
    """Text of 0, 1, -1, fractions, Laurent polynomials in q and lam1, such
    polynomials over products of binomial factors, and over divisors that
    stay general."""
    const = st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 3), st.integers(1, 4))
    laurent = _laurent_texts()
    binomial = _over_binomials(laurent, _BINOMIALS, 2)
    general = st.builds(lambda x, g, e: f"({x})/({g})^{e}", laurent | binomial,
                        st.sampled_from(_GENERAL), st.integers(1, 2))
    return st.sampled_from(["0", "1", "-1"]) | const | laurent | binomial | general


def _scalars():
    return _texts().map(parse)


def _unit_fractions():
    """One-term Laurent numerators c q^i lam1^j over products of binomial
    factors, which no factor divides."""
    unit = st.builds(lambda n, d, i, j: f"({n}/{d})*q^({i})*lam1^({j})",
                     st.integers(-3, 3).filter(bool), st.integers(1, 3),
                     st.integers(-3, 3), st.integers(-1, 1))
    return _over_binomials(unit, _BINOMIALS, 2).map(parse)


@settings(deadline=None)
@given(_texts())
def test_parse_matches_sympify(text):
    _same(parse(text).f, scalars._REG.field.from_expr(sympy.sympify(text.replace("^", "**"))))


def _canonical_residue(a, point):
    """The canonical sympy fraction ``a.f`` at ``point`` modulo MODULUS, its
    numerator and denominator summed term by term; None where the
    denominator vanishes."""
    def value(p):
        return sum(int(c.numerator) * pow(int(c.denominator), -1, scalars.MODULUS)
                   * math.prod(pow(x, e, scalars.MODULUS) for x, e in zip(point, k))
                   for k, c in p.items()) % scalars.MODULUS

    num, den = value(a.f.numer), value(a.f.denom)
    return num * pow(den, -1, scalars.MODULUS) % scalars.MODULUS if den else None


# q at poles of the texts' binomial factors modulo MODULUS: q + 1 at q = -1,
# q - lam1 at q = 3 and lam1 q - 1 at q = 1/3 (lam1 = 3 at the prime point)
_POLES = [scalars.MODULUS - 1, 3, pow(3, -1, scalars.MODULUS)]


@settings(deadline=None)
@given(_scalars(), st.integers(2, scalars.MODULUS - 2) | st.sampled_from(_POLES))
def test_prime_point_residue_is_exact(a, q):
    """At the prime point, exactly the value substituted by sympy; with q
    moved to a drawn value, the canonical fraction's residue (None where the
    denominator vanishes); for a native and a general value alike."""
    at = {sympy.Symbol(n): p for n, p in zip(scalars._NAMES, scalars.prime_point())}
    moved = (q, *scalars.prime_point()[1:])
    got = scalars.prime_point_residue(a), scalars.prime_point_residue(a, moved)
    want = sympy.Rational(a.as_expr().subs(at))
    assert got[0] == int(want.p) * pow(int(want.q), -1, scalars.MODULUS) % scalars.MODULUS
    assert got[1] == _canonical_residue(a, moved)


@pytest.mark.parametrize("text", ["1/(q^2-1)", "(q+1)/(q^2-1)^2", "q/(q^4+1)/(q-1)"])
def test_residue_at_a_pole_of_a_binomial_is_none(text):
    a = parse(text)
    assert a._b  # native, over binomial factors
    assert scalars.prime_point_residue(a, (1, *scalars.prime_point()[1:])) is None
    assert _canonical_residue(a, (1, *scalars.prime_point()[1:])) is None


def test_prime_point_residue_refuses_a_short_point():
    """A point must give every indeterminate of the value a value: zip would
    drop the ones past its end."""
    a = qvar() + indet("mu2")
    assert scalars.prime_point_residue(a, (2, 3, 5, 7, 11)) == 13
    with pytest.raises(ValueError, match="4 values for 5 indeterminates"):
        scalars.prime_point_residue(a, (2, 3, 5, 7))


def test_prime_point_residue_refuses_a_short_point_for_a_general_value():
    """A general value has the residue of the value substituted, 1/6 for
    1/(q^2 + 2) at q = 2, and a short point is refused for it too."""
    a = ONE / (qvar() ** 2 + 2)
    assert a._d is None
    assert scalars.prime_point_residue(a, (2, 3, 5, 7, 11)) == pow(6, -1, scalars.MODULUS)
    with pytest.raises(ValueError, match="2 values for 5 indeterminates"):
        scalars.prime_point_residue(a, (2, 3))


def test_prime_point_residue_of_a_general_value_is_none_at_a_pole_or_off_the_reals(
        restore_field):
    """1/(q + 2) has a pole at q = -2 modulo MODULUS, over Q and over Q(i)
    alike, and a general value with an imaginary part has no residue."""
    a = ONE / (qvar() + 2)
    assert a._d is None
    for _ in range(2):
        assert scalars.prime_point_residue(a, (scalars.MODULUS - 2, 3, 5, 7, 11)) is None
        assert scalars.prime_point_residue(a, (3, 3, 5, 7, 11)) == pow(5, -1, scalars.MODULUS)
        b = imag_unit() / (qvar() ** 2 + 2)
        assert b._d is None and scalars.prime_point_residue(b) is None


def test_prime_point_residue_refuses_a_coordinate_at_zero():
    """A coordinate that is 0 modulo MODULUS has no inverse for a negative
    exponent: the point is refused before anything is computed, for any
    value, naming the coordinate."""
    for a in (ONE / qvar(), qvar(), ONE):
        with pytest.raises(ValueError, match=r"coordinate 0 \(q\)"):
            scalars.prime_point_residue(a, (0, 3, 5, 7, 11))
    with pytest.raises(ValueError, match=r"coordinate 2 \(lam2\)"):
        scalars.prime_point_residue(qvar(), (2, 3, scalars.MODULUS, 7, 11))


def test_prime_point_residue_of_huge_degree():
    # 2^(10^9) and 3^(2^29) are never built; q^(2^29) + 1 over q^(2^28) + 1
    # is a value over a binomial factor
    a = parse("q^1000000000 - lam1^(2^29)")
    assert scalars.prime_point_residue(a) == (pow(2, 10 ** 9, scalars.MODULUS)
                                              - pow(3, 2 ** 29, scalars.MODULUS)) % scalars.MODULUS
    b = parse("(q^(2^29)+1)/(q^(2^28)+1)")
    assert b._b
    num, den = (pow(2, 2 ** k, scalars.MODULUS) + 1 for k in (29, 28))
    assert scalars.prime_point_residue(b) == num * pow(den, -1, scalars.MODULUS) % scalars.MODULUS


def test_prime_point_residue_of_a_coefficient_over_the_modulus_is_none():
    # its coefficient's denominator is 0 modulo MODULUS: no residue, and no
    # modular inverse is attempted
    assert scalars.prime_point_residue(Fraction(1, scalars.MODULUS) * qvar()) is None
    assert scalars.prime_point_residue(Fraction(1, 3 * scalars.MODULUS) + qvar()) is None
    assert scalars.prime_point_residue(Fraction(1, scalars.MODULUS + 2) * qvar()) == \
        2 * pow(scalars.MODULUS + 2, -1, scalars.MODULUS) % scalars.MODULUS


def test_scalar_operand_of_another_type_is_not_printed():
    class Probe:
        def __repr__(self):
            raise AssertionError("printed")

        def __rmul__(self, other):
            return "rmul"

    assert qvar() * Probe() == "rmul"
    with pytest.raises(TypeError, match="cannot coerce"):
        Scalar(1.5)


def _want_pow(f, k):
    """f**k in sympy's field, canonical: / normalises the unit that a
    negative power of sympy's fraction keeps."""
    if k == 0:
        return f.field.one  # 0**0 is 1, as for int and Fraction
    return f ** k if k > 0 else f.field.one / f ** -k


def _native_value(x):
    """Whether x is native, read off sympy's fraction: its coefficients are
    rational and each irreducible factor of its denominator over Q is a
    monomial or has two terms with equal or opposite coefficients (m - 1,
    or m^(2^j) + 1, since m^g + 1 is reducible for other g)."""
    f = x.f
    if f.field.domain is QQ_I and any(c.y for p in (f.numer, f.denom) for c in p.values()):
        return False
    for p, _ in sympy.factor_list(f.denom.as_expr())[1]:
        cs = sympy.Poly(p).coeffs()
        if len(cs) > 2 or len(cs) == 2 and abs(cs[0]) != abs(cs[1]):
            return False
    return True


def _primitive(e):
    g = math.gcd(*e)
    e = tuple(x // g for x in e)
    return e if next(x for x in e if x) > 0 else tuple(-x for x in e)


_factor = st.builds(lambda e, d, k: ((_primitive(e), d), k),
                    st.tuples(*[st.integers(-2, 2)] * 5).filter(any),
                    st.sampled_from([1, 2, 4, 8]), st.integers(1, 2))


@settings(deadline=None)
@given(st.lists(_factor, max_size=3), st.sampled_from([None] + _GENERAL),
       st.tuples(*[st.integers(-2, 2)] * 5), st.sampled_from([1, -3, Fraction(2, 5)]))
def test_peel_finds_every_binomial_factor(fs, other, e, c):
    want = {}
    for f, k in fs:
        want[f] = want.get(f, 0) + k
    want = tuple(sorted(want.items()))
    p = scalars._nmul(scalars._expand(want), {e: c})
    if other is not None:
        p = scalars._nmul(p, parse(other)._d)
    got = scalars._peel(p)
    if other is not None:
        assert got is None
    else:
        assert got == ({e: c}, want)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, -1, 0, 0, 0)]),
                          st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 3)), max_size=7))
def test_den_terms_bounds_the_expansion(fs):
    b = tuple(sorted({(m, d): k for m, d, k in fs}.items()))
    assert len(scalars._expand(b)) <= scalars._den_terms(b)


def test_den_terms_of_cyclotomic_chains():
    q = (1, 0, 0, 0, 0)
    chain = tuple(((q, 2 ** t if t else 1), 1) for t in range(30))  # q^(2^29) - 1
    assert scalars._den_terms(chain) == 2
    assert scalars._den_terms(tuple((f, 2) for f, _ in chain)) == 4
    assert scalars._den_terms(chain[1:]) == 2 ** 29  # (q^(2^29) - 1)/(q - 1)


def _same_scalar(x, want):
    """x has sympy's canonical fraction ``want`` and the one representation
    of that value: the one its classification gives, with the same hash."""
    _same(x.f, want)
    y = scalars._from_field(want)
    assert (x._d, x._b) == (y._d, y._b) and x == y and hash(x) == hash(y)


@settings(deadline=None)
@given(_scalars() | _unit_fractions(), _scalars() | _unit_fractions(), st.integers(-3, 3))
@example(parse("q/(q^2 - 1)"), parse("3/2*q"), 2)
@example(parse("q/(q^2 - 1)"), parse("lam1/(q + 1)^2"), -2)
@example(parse("q/(q^2 - 1)"), parse("q^2 - 1"), -1)
@example(parse("1/(q - 1)"), parse("1/(q + 1)"), 3)
@example(parse("q"), parse("q"), -2)
@example(parse("q^2 + 1"), parse("3/2*q"), -1)
@example(parse("q + 1"), parse("0"), -1)
def test_arithmetic_matches_field(a, b, k):
    """+, -, * and / of two Scalars, or of a Scalar and an int on either
    side, and ** match sympy's field."""
    fa, fb = a.f, b.f
    three = fa.field(3)
    _same_scalar(a + b, fa + fb)
    _same_scalar(a - b, fa - fb)
    _same_scalar(a * b, fa * fb)
    _same_scalar(a + 3, fa + three)
    _same_scalar(a - 3, fa - three)
    _same_scalar(3 - a, three - fa)
    if b:
        _same_scalar(a / b, fa / fb)
        _same_scalar(3 / b, three / fb)
    if a or k >= 0:
        _same_scalar(a ** k, _want_pow(fa, k))
    assert a * ONE == a and -(a * -ONE) == a and (-ONE) * b == -b


def _five_wide(x):
    """Whether every exponent tuple of ``x`` (none for a general value) and
    the monomial of every binomial factor has one entry per indeterminate."""
    return x._d is None or all(len(k) == 5 for k in x._d) and all(len(m) == 5 for (m, _), _ in x._b)


@settings(deadline=None)
@given(_scalars(), _scalars(), st.integers(-3, 3))
def test_native_exponents_have_five_entries(a, b, k):
    values = [a, b, parse(render(a)), a + b, a * b, scalars._from_field(a.f * b.f)]
    if b:
        values.append(a / b)
    if a or k >= 0:
        values.append(a ** k)
    assert all(map(_five_wide, values))


def test_indet_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="'nu'.*q, lam1, lam2, mu1, mu2"):
        indet("nu")


@settings(deadline=None)
@given(_scalars(), _scalars(), st.sampled_from(_GENERAL + _BINOMIALS))
def test_one_representation_per_value(a, b, g):
    g = parse(g)  # a general divisor goes to sympy, a binomial one does not
    for x in (a, b, a + b, a * b, (a * g) / g, (a * g + b * g) / g,
              a / (b * g + 1) if b * g + 1 else a):
        assert (x._d is not None) == _native_value(x)
    back = (a * g) / g
    assert back == a and hash(back) == hash(a) and (back._d, back._b) == (a._d, a._b)


@settings(deadline=None)
@given((_laurent_texts() | _over_binomials(_laurent_texts(), ["q^2 - 1", "q + 1",
                                                             "lam1*lam2*mu1*mu2 - 1"], 3))
       .map(parse))
def test_identity_operands_match_field(x):
    f, zero, one = x.f, ZERO.f, ONE.f
    for got, want in [(x + ZERO, f + zero), (ZERO + x, zero + f), (x - ZERO, f - zero),
                      (ZERO - x, zero - f), (x * ONE, f * one), (ONE * x, one * f),
                      (x * -ONE, f * -one), (-ONE * x, -one * f)]:
        _same_scalar(got, want)


def _fmul_trying_every_factor(x, bx, y, by):
    """scalars._fmul without its skip: each numerator is tried against every
    factor of the other denominator."""
    if not by and len(y) == 1:
        return scalars._nmul(x, y), bx
    if not bx and len(x) == 1:
        return scalars._nmul(x, y), by
    x, left_y = scalars._reduce(x, by)
    y, left_x = scalars._reduce(y, bx)
    if not x or not y:
        return {}, ()
    return scalars._nmul(x, y), scalars._combine_factors(left_x, left_y, add)


@settings(deadline=None)
@given(st.data())
def test_products_over_shared_binomials_equal_the_unskipped_path(data):
    """Fractions over powers of a few shared binomials, one of them times a
    power of one of those binomials, multiply to the representation that
    trying every factor gives, and to sympy's product."""
    pool = data.draw(st.lists(st.sampled_from(_BINOMIALS), min_size=1, max_size=3, unique=True))
    texts = _over_binomials(_laurent_texts(), pool, 3)
    a, b = parse(data.draw(texts)), parse(data.draw(texts))
    b = b * parse(data.draw(st.sampled_from(pool))) ** data.draw(st.integers(0, 2))
    for x, y in ((a, b), (b, a), (a, a)):
        got = x * y
        with mock.patch.object(scalars, "_fmul", _fmul_trying_every_factor):
            want = x * y
        assert (got._d, got._b) == (want._d, want._b)
        _same_scalar(got, x.f * y.f)


@settings(deadline=None)
@given(_scalars(), _scalars())
def test_every_zero_has_no_factors(a, b):
    zeros = [a - a, a + -a, (a + b) - (b + a), a * ZERO, ZERO * b, (a - a) * b, a * b - b * a,
             ZERO - ZERO, Scalar(0), parse("0"), parse("(q - 1)/(q^2 - 1) - 1/(q + 1)")]
    if b:
        zeros += [ZERO / b, (a - a) / b, (a / b) * b - a]
    for z in zeros:
        assert not z and z == 0 and (z._d, z._b) == ({}, ())


def test_identity_operands_need_no_division(monkeypatch):
    x = parse("(q^3 + lam1)/(q^2 - 1)")
    calls = []
    bdiv = scalars._bdiv

    def counted(*args):
        calls.append(args)
        return bdiv(*args)

    monkeypatch.setattr(scalars, "_bdiv", counted)
    got = [ZERO + x, x + ZERO, ZERO - x, Scalar(-1) * x, x * Scalar(-1), ONE * x]
    assert calls == []
    monkeypatch.undo()
    assert got == [x, x, -x, -x, -x, x] and all(g._b == x._b for g in got)


def _values_for_hash():
    q, l1 = qvar(), indet("lam1")
    g = q * q - 1
    return [ZERO, ONE, -ONE, Scalar(Fraction(1, 2)), q + 1, q ** -2 * l1 / 3,
            (q * q - ONE) / q ** 3 + l1, ONE / g, (g * (l1 - q)) / g, (q - 1) / g,
            l1 / (q * q + 1) ** 2, ONE / (q * q + 2), (q * q + 2) / g]


def test_equal_values_hash_alike(restore_field):
    before = _values_for_hash()
    for x, y in zip(before, _values_for_hash()):
        assert x == y and hash(x) == hash(y)
    imag_unit()
    for x, y in zip(before, _values_for_hash()):
        assert x == y and hash(x) == hash(y)
        assert x + ONE - ONE == y and hash(x * ONE) == hash(y)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2)) and hash(ZERO) == hash(0)


@settings(deadline=None)
@given(_scalars())
def test_str_is_the_field_expression(a):
    assert str(a) == str(a.f.as_expr()).replace("I", "i")


def test_str_is_the_field_expression_over_qi(restore_field):
    i, q = imag_unit(), qvar()
    for a in (i, i * q, q - i / (2 * q), ONE / (q * q - i), (q * q - 1) / q):
        assert str(a) == str(a.f.as_expr()).replace("I", "i")


@settings(deadline=None)
@given(_scalars())
def test_parse_render_roundtrip_on_strategy(a):
    assert parse(render(a)) == a


def _same(got, want):
    assert (got.numer, got.denom) == (want.numer, want.denom)


def test_laurent_path_needs_no_cancel(monkeypatch):
    q, l1 = qvar(), indet("lam1")
    a, b = (q ** 2 - 1) / q ** 3, l1 / (2 * q)
    c = 2 * q / 3
    # binomial denominators: q^2 - 1 = Phi_1(q) Phi_2(q), (q + 1)^2, Phi_1(lam1 lam2 mu1 mu2)
    x, y, w = (l1 - q) / (q * q - 1), q / (q + 1) ** 2, q - ONE / q
    z = (l1 * indet("lam2") * indet("mu1") * indet("mu2") - 1) / (q * q + 1)
    pairs = [(x, y), (y, x), (a, x), (x, z), (z, w)]
    want = [a.f + b.f, a.f - b.f, a.f * b.f, a.f / b.f, a.f * 4 / 3,
            _want_pow(b.f, -3), _want_pow(c.f, -2), a.f ** 2, -a.f]
    want += [g(u.f, v.f) for u, v in pairs for g in (add, sub, mul, truediv)]
    want += [x.f / w.f ** 2, _want_pow(x.f, -2), _want_pow(z.f, -1), x.f ** 3, -x.f,
             x.f * y.f / y.f]

    def refuse(*args, **kwargs):
        raise AssertionError("a Laurent or binomial operation used sympy")

    monkeypatch.setattr(PolyElement, "cancel", refuse)
    monkeypatch.setattr(PolyElement, "__init__", refuse)
    monkeypatch.setattr(FracElement, "__init__", refuse)
    got = [a + b, a - b, a * b, a / b, a / Fraction(3, 4), b ** -3, c ** -2, a ** 2, -a]
    got += [g(u, v) for u, v in pairs for g in (add, sub, mul, truediv)]
    got += [x / w ** 2, x ** -2, z ** -1, x ** 3, -x, x * y / y, 3 * a - Fraction(1, 2)]
    consts = [Scalar(3) == 3, Scalar(Fraction(-1, 2)) == Fraction(-1, 2), a != 3,
              bool(a), not ZERO, Scalar(0) == 0, Scalar(a) == a, x != y, x * y / y == x,
              hash(x * y / y) == hash(x), x - x == 0, (x - x)._b == ()]
    monkeypatch.undo()
    for u, v in zip(got, want):
        _same_scalar(u, v)
    assert got[-1] == 3 * a - parse("1/2")
    assert all(consts)


def test_qi_results_match_field(restore_field):
    i = imag_unit()
    q, l1 = qvar(), indet("lam1")
    values = [ZERO, ONE, -ONE, i, (q * q - 1) / q ** 3 + l1, q - i / (2 * q),
              ONE / (q * q - i), Scalar(Fraction(-3, 4)), ONE / (q * q + 1), (l1 - i) / (q + 1) ** 2,
              (q + i) / (q * q + 1)]
    for a in values:
        for b in values:
            _same_scalar(a + b, a.f + b.f)
            _same_scalar(a - b, a.f - b.f)
            _same_scalar(a * b, a.f * b.f)
            if b:
                _same_scalar(a / b, a.f / b.f)
    # Phi_4(q) = q^2 + 1 splits over Q(i); a value with a non-rational
    # coefficient stays general
    assert values[-1] == ONE / (q - i) and values[-1]._d is None and values[-3]._b


@pytest.mark.parametrize("qi", [False, True], ids=["Q", "Q(i)"])
def test_int_coercion_is_canonical(restore_field, qi):
    if qi:
        imag_unit()
    reg = scalars._REG
    for x in (Fraction(-3, 4), 0, -7, 1, Fraction(5, 1)):
        _same(Scalar(x).f, reg.field.ground_new(reg.domain.convert(x)))


@pytest.mark.parametrize("make_i", [imag_unit, lambda: parse("i*q") / qvar()],
                         ids=["imag_unit", "parse"])
def test_values_survive_switch_to_qi(restore_field, make_i):
    def values():
        q, l1 = qvar(), indet("lam1")
        return [(q * q - ONE) / q ** 3 + l1, q + 1, ONE / (q * q - 1),
                Scalar(Fraction(1, 2)), Scalar(1), Scalar(-1), Scalar(0)]

    assert scalars._REG.domain is QQ
    before = values()
    texts = [render(x) for x in before]
    fields = [x.f.field for x in before]
    index = {x: k for k, x in enumerate(before)}
    i = make_i()
    assert scalars._REG.domain is QQ_I
    assert i * i == -ONE
    after = values()
    for k, (x, y) in enumerate(zip(before, after)):
        assert x == y and hash(x) == hash(y)
        assert index[y] == k
        assert render(x) == render(y) == texts[k]
        assert x + i - i == y and x * y == y * y
        assert render(x * i) == render(y * i)
        f = x.f
        assert f.field is y.f.field is not fields[k]  # re-embedded into Q(i)
        assert x * i * y == y * i * x and x.f is f  # once, not on every operation


def test_plain_parse_stays_over_q(restore_field):
    assert parse("(q^2 - 1)/q + lam1*mu1") == (qvar() ** 2 - 1) / qvar() \
        + indet("lam1") * indet("mu1")
    assert scalars._REG.domain is QQ


def _fresh(text):
    """The value of ``text`` parsed with no store: the reference for parse."""
    return scalars._parse(text, scalars._NAME.findall(text))


def test_parse_returns_the_stored_value_of_a_repeated_text():
    text = "(q^2 - 1)/q + lam1*mu1 - 3/(q^4 - 1)"
    x = parse(text)
    assert parse(text) is x
    assert x == _fresh(text)


def test_parse_switches_to_qi_on_every_text_with_i(restore_field):
    reg = scalars._REG
    over_q = dict(vars(reg), qi=False, _field=None)
    for _ in range(2):
        vars(reg).clear()  # back to Q, as restore_field does
        vars(reg).update(over_q)
        x = parse("q + i")
        assert reg.qi and x == qvar() + imag_unit()
    assert not any(text == "q + i" for text, _ in scalars._PARSED)


def test_parse_refuses_a_refused_text_every_time():
    for text in ("q +", "nu", "2^q", "1/(q - q)"):
        for _ in range(2):
            with pytest.raises(ValueError, match="cannot parse|unexpected"):
                parse(text)
        assert not any(key[0] == text for key in scalars._PARSED)


def test_parse_store_keeps_the_latest_values(monkeypatch):
    monkeypatch.setattr(scalars, "_PARSED", {})
    monkeypatch.setattr(scalars, "_MAX_PARSED", 4)
    texts = [f"{k}*q" for k in range(1, 8)]
    for text in texts:
        parse(text)
    assert [key[0] for key in scalars._PARSED] == texts[-4:]
    assert parse("1*q") == qvar() and len(scalars._PARSED) == 4


def test_hash_agrees_with_eq_for_constants():
    v = object()
    assert {ONE: v}.get(1) is v
    assert {Scalar(Fraction(1, 2)): v}.get(Fraction(1, 2)) is v
    assert {Fraction(-3): v}.get(Scalar(-3)) is v
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


_monomials = st.tuples(st.tuples(*[st.integers(-3, 3)] * 5),
                       st.integers(-9, 9).filter(bool)
                       | st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))


@settings(deadline=None)
@given(_monomials, _monomials)
def test_monomial_products_match_a_dict_reference(a, b):
    """c q^e times c' q^e' is c c' q^(e + e'), exponents negative and zero
    included; a product whose exponents cancel is the constant c c', with
    its hash."""
    (ea, ca), (eb, cb) = a, b
    names = scalars._NAMES

    def mono(e, c):
        x = Scalar(c)
        for name, k in zip(names, e):
            x = x * indet(name) ** k
        return x

    got = mono(ea, ca) * mono(eb, cb)
    e, c = tuple(map(add, ea, eb)), ca * cb
    assert got._d == {e: c} and got._b == ()
    want = scalars._native({e: c})
    assert got == want and hash(got) == hash(want)
    if not any(e):
        assert got == c and hash(got) == hash(c)


# a Laurent polynomial, a value over binomial factors, a general value, a
# constant and ONE itself
_ONE_OPERANDS = ["q^2 - 3/q + lam1", "(q^3 + lam1)/(q^2 - 1)^2", "q/(q^2 + 2)", "-7/2", "1"]


@pytest.mark.parametrize("text", _ONE_OPERANDS)
def test_product_with_one_is_the_other_operand(text):
    x = ONE if text == "1" else parse(text)
    assert x * ONE is x and ONE * x is x
    assert (parse(text)._d is None) == (text == "q/(q^2 + 2)")


def test_product_of_one_with_a_number_is_a_scalar():
    for got in (ONE * 3, 3 * ONE, ONE * Fraction(3), Fraction(3) * ONE):
        assert type(got) is Scalar and got == 3 and hash(got) == hash(3)
    assert ONE * sympy.Integer(3) == 3 and type(sympy.Integer(3) * ONE) is Scalar


@settings(deadline=None)
@given(_scalars())
def test_products_with_one_match_the_arithmetic_reference(a):
    """a * ONE and ONE * a, which take no arithmetic, equal what the
    arithmetic of ``_bin`` makes of them, in value, representation and hash."""
    for got, want in ((a * ONE, a._bin(ONE, scalars._fmul, mul)),
                      (ONE * a, ONE._bin(a, scalars._fmul, mul))):
        assert got is a
        assert got == want and hash(got) == hash(want)
        assert (got._d, got._b) == (want._d, want._b)


# native monomials, Laurent polynomials, native values over binomial
# factors and general values
_DIRECT_PATH_TEXTS = ["q", "-3*q^-2", "2/3*lam1*q", "-1", "0", "q^2 - 3/q + lam1", "q - 1/q",
                      "(q^3 + lam1)/(q^2 - 1)^2", "1/(q - 1/q)", "q/(q^2 + 2)", "1/(q^2 + q + 1)"]


def _assert_direct_path(xs, ys):
    """x * y and x + y have the representation that ``_bin`` gives, and
    x == y is equality of values in the field."""
    for x in xs:
        assert x * ONE is x and ONE * x is x
        for y in ys:
            for op, frac in ((mul, scalars._fmul), (add, scalars._fadd)):
                got, want = op(x, y), x._bin(y, frac, op)
                assert (got._d, got._b) == (want._d, want._b), (x, y, op)
                assert got == want and hash(got) == hash(want)
            assert (x == y) == (scalars._lift(x) == scalars._lift(y)), (x, y)


def test_direct_path_matches_bin():
    xs = [ONE] + [parse(t) for t in _DIRECT_PATH_TEXTS]
    _assert_direct_path(xs, xs)
    assert ONE * 3 == Scalar(3) and type(ONE * 3) is Scalar


def test_direct_path_matches_bin_over_qi(restore_field):
    i = imag_unit()
    xs = [i, i * qvar() + 1] + [parse(t) for t in _DIRECT_PATH_TEXTS[::3]]
    _assert_direct_path(xs, xs)
