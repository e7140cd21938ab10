"""Polynomial kernel checks: gcd, resultants, elimination, linear algebra."""

import random
from fractions import Fraction

import pytest

from commdyn.errors import ConductorCapError, PreconditionError
from commdyn.exactfield import FieldElement, euler_phi, rational, zeta
from commdyn.polynomial import (
    BiPolynomial,
    Polynomial,
    gcd_bivariate,
    gcd_univariate,
    lagrange_interpolate,
    nullspace,
    resultant,
    resultant_eliminate,
    squarefree_part,
    squarefree_part_bivariate,
    strip_contents,
)


def P(*ints):
    return Polynomial.from_ints(list(ints))


def as_fracs(p):
    return [c.as_fraction() for c in p.coeffs]


def test_divmod_and_exact_div():
    p = P(-1, 0, 1)          # z^2 - 1
    q, r = p.divmod(P(-1, 1))  # z - 1
    assert as_fracs(q) == [1, 1]
    assert r.is_zero()
    assert as_fracs(p.exact_div(P(1, 1))) == [-1, 1]
    with pytest.raises(PreconditionError):
        P(1, 0, 1).exact_div(P(-1, 1))


def test_gcd_basic():
    g = gcd_univariate(P(-1, 0, 1), P(-1, 1))
    assert as_fracs(g) == [-1, 1]
    # coprime inputs give 1
    assert gcd_univariate(P(1, 1), P(2, 1)).degree == 0


def test_gcd_matches_sympy_over_q():
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(7)
    for _ in range(25):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)]
        b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)]
        common = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1]
        pa = Polynomial.from_ints(a) * Polynomial.from_ints(common)
        pb = Polynomial.from_ints(b) * Polynomial.from_ints(common)
        ours = gcd_univariate(pa, pb)
        sa = sympy.Poly(list(reversed([c.as_fraction() for c in pa.coeffs])), x)
        sb = sympy.Poly(list(reversed([c.as_fraction() for c in pb.coeffs])), x)
        theirs = sympy.gcd(sa, sb).monic()
        assert as_fracs(ours) == [Fraction(str(c)) for c in theirs.all_coeffs()[::-1]]


def test_gcd_over_cyclotomic_field():
    z3 = zeta(3)
    # (z - zeta3)(z + 1) and (z - zeta3)(z - 2) share exactly one root
    a = Polynomial([-z3, FieldElement.one()]) * P(1, 1)
    b = Polynomial([-z3, FieldElement.one()]) * P(-2, 1)
    g = gcd_univariate(a, b)
    assert g.degree == 1
    assert g.evaluate(z3).is_zero()


def test_resultant_closed_form_and_oracle():
    # res(z - a, z - b) = a - b under our sign convention
    a, b = rational(3), rational(5)
    r = resultant(Polynomial([-a, FieldElement.one()]), Polynomial([-b, FieldElement.one()]))
    assert r == a - b

    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(20):
        pa = Polynomial.from_ints(
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)])
        pb = Polynomial.from_ints(
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)])
        ours = resultant(pa, pb).as_fraction()
        sa = sympy.Poly(list(reversed([c.as_fraction() for c in pa.coeffs])), x)
        sb = sympy.Poly(list(reversed([c.as_fraction() for c in pb.coeffs])), x)
        assert ours == Fraction(str(sympy.resultant(sa, sb)))


def _euclid_resultant(p, q):
    """Res(p, q) by Euclid's algorithm over the field: the oracle for `resultant`."""
    if p.is_zero() or q.is_zero():
        return rational(0)
    sign, acc, a, b = 1, rational(1), p, q
    while True:
        if b.is_constant():
            return acc * b.leading() ** a.degree * rational(sign)
        r = a % b
        if r.is_zero():
            return rational(0)
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        acc = acc * b.leading() ** (a.degree - r.degree)
        a, b = b, r


def _in_square(p):
    """p(z^2): every remainder of two such polynomials drops the degree by two."""
    coeffs = []
    for c in p.coeffs:
        coeffs += [c, rational(0)]
    return Polynomial(coeffs[:-1])


@pytest.mark.parametrize("k", [1, 3, 12])
def test_resultant_matches_euclid(k):
    rng = random.Random(1200 + k)
    high = 7 if k < 12 else 5
    pairs = [(_dense(rng, k, 0), _dense(rng, k, 0)),   # degree-0 operands
             (_dense(rng, k, 0), _dense(rng, k, 4)),
             (_dense(rng, k, 3), _dense(rng, k, 0))]
    pairs += [(_dense(rng, k, d), _dense(rng, k, d)) for d in (1, 2, high)]  # delta = 0
    pairs += [(_dense(rng, k, d + gap), _dense(rng, k, d))                   # gaps >= 2
              for d, gap in ((0, 2), (1, 3), (2, 2), (3, high - 3))]
    pairs += [(_in_square(_dense(rng, k, 3)), _in_square(_dense(rng, k, 2))),
              (_in_square(_dense(rng, k, 2)), _in_square(_dense(rng, k, 2)))]
    pairs += [(_dense(rng, k, 4).monic(), _dense(rng, k, 3)),
              (_dense(rng, k, 2), _dense(rng, k, 5).monic())]
    for _ in range(4):
        pairs.append((_dense(rng, k, rng.randint(0, high)), _dense(rng, k, rng.randint(0, high))))
    shared = []
    for d in (1, 2):
        common = _dense(rng, k, d)
        shared.append((common * _dense(rng, k, 2), common * _dense(rng, k, 3)))
    square = _in_square(_dense(rng, k, 1))
    shared.append((square * _dense(rng, k, 1), square))
    for p, q in pairs + shared:
        value = resultant(p, q)
        assert value == _euclid_resultant(p, q)
        assert resultant(q, p) == value * (-1) ** (p.degree * q.degree)
    for p, q in shared:
        assert resultant(p, q).is_zero()
    for other in (square, _dense(rng, k, 0), Polynomial.zero()):   # zero operands
        assert resultant(Polynomial.zero(), other).is_zero()
        assert resultant(other, Polynomial.zero()).is_zero()


def test_squarefree_part():
    p = P(-1, 1) * P(-1, 1) * P(2, 1)
    sf = squarefree_part(p)
    assert sf == (P(-1, 1) * P(2, 1)).monic()
    assert squarefree_part(P(0, 0, 0, 1)).degree == 1


def test_nullspace():
    one = FieldElement.one()
    basis = nullspace([[one, one]])
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]).is_zero()
    assert not all(c.is_zero() for c in v)


def test_interpolation_roundtrip():
    p = P(1, -2, 0, 3)
    xs = [rational(i) for i in range(5)]
    ys = [p.evaluate(x) for x in xs]
    assert lagrange_interpolate(xs, ys) == p


def _bi(entries, var1="x", var2="y"):
    return BiPolynomial(entries, var1, var2)


def test_bivariate_arith_and_exact_div():
    x_plus_y = _bi([[0, 1], [1, 0]])       # y + x
    x_minus_y = _bi([[0, -1], [1, 0]])     # -y + x
    prod = x_plus_y * x_minus_y            # x^2 - y^2
    assert prod == _bi([[0, 0, -1], [0, 0], [1, 0]])
    assert prod.exact_div(x_plus_y) == x_minus_y
    with pytest.raises(PreconditionError):
        prod.exact_div(_bi([[1, 1], [1, 0]]))


def test_bivariate_gcd():
    y_minus_x = _bi([[0, 1], [-1, 0]])
    a = y_minus_x * _bi([[0, 1], [1, 0]])
    b = y_minus_x * _bi([[0, 1], [-2, 0]])
    g = gcd_bivariate(a, b)
    assert g == y_minus_x.normalized()


def test_bivariate_squarefree_and_content():
    y_minus_x = _bi([[0, 1], [-1, 0]])
    doubled = y_minus_x * y_minus_x
    assert squarefree_part_bivariate(doubled) == y_minus_x.normalized()
    # content x^2 in every y coefficient is stripped
    with_content = _bi([[0, 0], [0, 0], [1, 1]])  # x^2 * (1 + y)
    stripped = strip_contents(with_content)
    assert stripped.degrees == (0, 1)
    # a polynomial in one variable only is left untouched
    pure = _bi([[1], [0], [3]])  # 3x^2 + 1
    assert strip_contents(pure) == pure


def test_resultant_eliminate_parabola():
    # y = x and w = y^2 gives w = x^2
    p = BiPolynomial([[0, 1], [-1, 0]], "x", "y")     # y - x
    q = BiPolynomial([[0, -1], [0, 0], [1, 0]], "y", "w")  # y^2 - w
    r = resultant_eliminate(p, q)
    assert (r.var1, r.var2) == ("x", "w")
    expected = BiPolynomial([[0, -1], [0, 0], [1, 0]], "x", "w").normalized()
    assert r.normalized() == expected or r.normalized() == (-expected).normalized()


def test_resultant_eliminate_degree_two_inner():
    # y = x^2 composed with w = y^2 gives w = x^4
    p = BiPolynomial([[0, 1], [0, 0], [-1, 0]], "x", "y")   # y - x^2
    q = BiPolynomial([[0, -1], [0, 0], [1, 0]], "y", "w")   # y^2 - w
    r = resultant_eliminate(p, q).normalized()
    target = BiPolynomial(
        [[0, Fraction(-1)]] + [[0, 0]] * 3 + [[1, 0]], "x", "w").normalized()
    assert r == target


def test_resultant_eliminate_vanishing_locus_numeric():
    # sample points from the parametrization (t, t^2+1) -> (t^3, t^2+1) style
    rng = random.Random(3)
    p = BiPolynomial([[0, 1], [-2, 0], [-1, 0]], "x", "y")  # y - 2x - x^2... rows
    q = BiPolynomial([[1, -1], [3, 0]], "y", "w")            # 1 - w + 3y
    r = resultant_eliminate(p, q)
    for _ in range(10):
        x0 = rational(rng.randint(-5, 5))
        # y determined by p: y = x^2 + 2x
        y0 = x0 * x0 + rational(2) * x0
        # w determined by q: w = 3y + 1
        w0 = rational(3) * y0 + rational(1)
        assert r.evaluate(x0, w0).is_zero()


def test_resultant_eliminate_shared_component_returns_zero():
    p = BiPolynomial([[0, 1], [-1, 0]], "x", "y")  # y - x
    q = BiPolynomial([[0, 1], [-1, 0]], "y", "w")  # w - y ... shares nothing
    # make a genuinely shared y component: q2 = (y - 3) and p2 = (y - 3)
    p2 = BiPolynomial([[-3, 1]], "x", "y")
    q2 = BiPolynomial([[-3], [1]], "y", "w")
    assert resultant_eliminate(p2, q2).is_zero()
    assert not resultant_eliminate(p, q).is_zero()


def test_resultant_eliminate_matches_sympy():
    """Equal, up to a scalar, to the product of the distinct factors of
    Res_y(p, q) that involve both x and w, factored by sympy over Q."""
    import sympy

    x, y, w = sympy.symbols("x y w")
    rng = random.Random(20261021)

    def draw(var1, var2):
        rows = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(2, 3))]
        rows[-1][0] = rows[-1][0] or 1
        rows[0] += [0] * (2 - len(rows[0])) + [rng.choice((-2, -1, 1, 2))]
        return BiPolynomial(rows, var1, var2)

    def expr(p, s1, s2):
        return sum(sympy.Rational(str(c.as_fraction())) * s1 ** i * s2 ** j
                   for i, row in enumerate(p.rows) for j, c in enumerate(row))

    for _ in range(8):
        p, q = draw("x", "y"), draw("y", "w")
        full = sympy.resultant(expr(p, x, y), expr(q, y, w), y)
        ours = resultant_eliminate(p, q)
        assert (ours.var1, ours.var2) == ("x", "w")
        factors = [f for f, _ in sympy.factor_list(full)[1] if f.free_symbols == {x, w}]
        expected = sympy.Poly(sympy.Mul(*factors), x, w).monic()
        assert sympy.Poly(expr(ours, x, w), x, w).monic() == expected


def test_sparse_evaluate_and_power_match_repeated_multiplication():
    # runs of zero coefficients are jumped with one power of x; the
    # reference multiplies x in one factor at a time
    rng = random.Random(11)
    for x in (rational(-3, 2), zeta(3) + 2, zeta(12) * rational(5)):
        powers = [rational(1)]
        for _ in range(40):
            powers.append(powers[-1] * x)
        assert all(x ** e == powers[e] for e in range(41))
        for _ in range(15):
            coeffs = [rational(rng.randint(-4, 4)) if rng.random() < 0.3
                      else rational(0) for _ in range(rng.randint(1, 40))]
            expected = sum((c * powers[i] for i, c in enumerate(coeffs)),
                           rational(0))
            assert Polynomial(coeffs).evaluate(x) == expected
    # Polynomial powers n = 0..9, sparse and dense, against repeated products
    for p in (Polynomial([rational(2), rational(0), rational(0), rational(-1)]),
              Polynomial([zeta(3), rational(-1, 2), rational(3), zeta(12)])):
        expected = Polynomial.one()
        for n in range(10):
            assert p ** n == expected
            expected = expected * p


# ---------------------------------------------------------------------------
# the packed product against the term-by-term product and against sympy
# ---------------------------------------------------------------------------

def _schoolbook(a, b):
    """a*b one pair of terms at a time: the oracle for the packed product."""
    out = [rational(0)] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(out)


def _assert_product_matches(a, b):
    got, want = a * b, _schoolbook(a, b)
    assert got.coeffs == want.coeffs
    assert [c.conductor for c in got.coeffs] == [c.conductor for c in want.coeffs]
    assert hash(got) == hash(want)


def _element(rng, k, bits=4, sign=None):
    """A seeded element of Q(zeta_k); sign -1 or 1 fixes the sign of every entry."""
    def entry():
        n = rng.randint(1, 1 << bits)
        n = n * sign if sign else rng.choice((-1, 0, 1)) * n
        return Fraction(n, rng.choice((1, 1, 2, 3, 5)))
    return FieldElement(k, [entry() for _ in range(euler_phi(k))])


def _dense(rng, k, degree, **kw):
    coeffs = [_element(rng, k, **kw) for _ in range(degree + 1)]
    while coeffs[-1].is_zero():
        coeffs[-1] = _element(rng, k, **kw)
    return Polynomial(coeffs)


@pytest.mark.parametrize("k", [1, 3, 4, 12, 21])
def test_packed_product_matches_schoolbook(k):
    rng = random.Random(600 + k)
    for _ in range(12):
        _assert_product_matches(_dense(rng, k, rng.randint(0, 9)),
                                _dense(rng, k, rng.randint(0, 9)))
    # numerators of 2^200 and more
    _assert_product_matches(_dense(rng, k, 5, bits=210), _dense(rng, k, 4, bits=230))
    # negative entries in every slot, times mixed and times positive entries
    negative = _dense(rng, k, 6, sign=-1)
    _assert_product_matches(negative, _dense(rng, k, 5))
    _assert_product_matches(negative, _dense(rng, k, 3, sign=1))
    _assert_product_matches(negative, negative)
    # zero and constant operands
    for other in (Polynomial.zero(), Polynomial.one(), Polynomial([_element(rng, k)])):
        _assert_product_matches(negative, other)
        _assert_product_matches(other, negative)
    big = 64 if k <= 3 else 16
    _assert_product_matches(_dense(rng, k, big), _dense(rng, k, big))


@pytest.mark.parametrize("k", [1, 3])
def test_packed_product_at_its_size_bound(k):
    # every entry at one extreme, so the middle slot of the product holds
    # exactly min(len a, len b) * phi(k) products of the largest entries;
    # that bound, 64 * phi(k) * top^2, has 96 bits, a whole number of bytes,
    # so the slot needs its sign bit as well
    top = {1: (1 << 45) - 1, 3: (1 << 44) + 1}[k]
    assert (64 * euler_phi(k) * top ** 2).bit_length() == 96
    for sign in (1, -1):
        a = Polynomial([FieldElement(k, [sign * top] * euler_phi(k))] * 64)
        b = Polynomial([FieldElement(k, [top] * euler_phi(k))] * 64)
        _assert_product_matches(a, b)


def test_packed_product_mixed_conductors_and_subfields():
    rng = random.Random(31)
    for ka, kb in ((1, 3), (3, 4), (4, 12), (3, 21)):
        for _ in range(6):
            _assert_product_matches(_dense(rng, ka, rng.randint(1, 7)),
                                    _dense(rng, kb, rng.randint(1, 7)))
    # conductors mixed inside one polynomial
    mixed = Polynomial([rational(2), zeta(3), zeta(4) - 1, rational(-1, 3), zeta(12)])
    _assert_product_matches(mixed, mixed)
    _assert_product_matches(mixed, _dense(rng, 3, 4))
    # products that fall back into a subfield
    z12 = zeta(12)
    for u, v in ((z12, z12 ** 11), (z12, z12 ** 5), (zeta(3), zeta(3) ** 2),
                 (z12, -z12)):
        a, b = Polynomial([u, rational(1)]), Polynomial([v, rational(1)])
        _assert_product_matches(a, b)
    product = Polynomial([zeta(3), rational(1)]) * Polynomial([zeta(3) ** 2, rational(1)])
    assert [c.conductor for c in product.coeffs] == [1, 1, 1]
    product = Polynomial([z12, rational(1)]) * Polynomial([z12 ** 5, rational(1)])
    assert [c.conductor for c in product.coeffs] == [1, 4, 1]


def test_packed_product_sparse_twists():
    # z^13 and its zeta12 twists, the chains of the twisted power maps
    z13 = Polynomial.variable() ** 13
    for j in (1, 5, 7):
        twist = Polynomial([rational(0)] * 13 + [zeta(12) ** j])
        _assert_product_matches(z13, twist)
        _assert_product_matches(twist, twist)
        _assert_product_matches(twist + Polynomial([rational(1)]), z13 + twist)
    rng = random.Random(5)
    sparse = Polynomial([rational(0)] * 20 + [zeta(12) ** 5] + [rational(0)] * 20 + [rational(3)])
    _assert_product_matches(sparse, _dense(rng, 12, 6))


def test_packed_product_conductor_cap():
    a = Polynomial([zeta(5), zeta(16)])
    assert a * Polynomial.one() == a
    assert Polynomial.one() * a == a
    with pytest.raises(ConductorCapError):
        Polynomial([zeta(5), rational(1)]) * Polynomial([zeta(16), rational(1)])


def _lift(c, k):
    """The residue of c in the zeta_k basis, by sympy from its own residue."""
    import sympy

    x = sympy.Symbol("x")
    d = c.conductor
    lifted = sum(sympy.Rational(r.numerator, r.denominator) * x ** (j * (k // d))
                 for j, r in enumerate(c.residue))
    phi = sympy.cyclotomic_poly(k, x)
    rem = sympy.Poly(sympy.rem(sympy.expand(lifted), phi, x), x)
    return [Fraction(str(rem.coeff_monomial(x ** j))) for j in range(euler_phi(k))]


@pytest.mark.parametrize("k", [3, 12, 21])
def test_packed_product_matches_sympy(k):
    import sympy

    x, z = sympy.symbols("x z")
    phi = sympy.cyclotomic_poly(k, x)
    rng = random.Random(900 + k)

    def as_sympy(p):
        return sum(sympy.Rational(r.numerator, r.denominator) * x ** j * z ** i
                   for i, c in enumerate(p.coeffs) for j, r in enumerate(_lift(c, k)))

    for _ in range(4):
        a, b = _dense(rng, k, rng.randint(1, 5)), _dense(rng, k, rng.randint(1, 5))
        product = sympy.Poly(sympy.rem(sympy.expand(as_sympy(a) * as_sympy(b)), phi, x), z, x)
        got = a * b
        assert got.degree == a.degree + b.degree
        for i, c in enumerate(got.coeffs):
            residue = [Fraction(str(product.coeff_monomial(z ** i * x ** j)))
                       for j in range(euler_phi(k))]
            assert c == FieldElement(k, residue)



def _schoolbook_bivariate(p, q):
    """p*q one pair of terms at a time: the oracle for the bivariate product."""
    if p.is_zero() or q.is_zero():
        return BiPolynomial.zero(p.var1, p.var2)
    a, b = p.rows, q.rows
    out = [[rational(0)] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, arow in enumerate(a):
        for j, x in enumerate(arow):
            for k, brow in enumerate(b):
                for l, y in enumerate(brow):
                    out[i + k][j + l] = out[i + k][j + l] + x * y
    return BiPolynomial(out, p.var1, p.var2)


@pytest.mark.parametrize("k", [1, 3, 12])
def test_bivariate_product_matches_schoolbook(k):
    rng = random.Random(700 + k)

    def entry():
        c = _element(rng, k)
        return c if not c.is_zero() else entry()

    def grid(n1, n2, ragged=False, zero_rows=()):
        rows = [[entry() for _ in range(rng.randint(1, n2) if ragged else n2)]
                for _ in range(n1)]
        for i in zero_rows:
            rows[i] = [rational(0)] * len(rows[i])
        return BiPolynomial(rows)

    operands = [grid(1, 5), grid(5, 1), grid(1, 1), grid(3, 4),
                grid(4, 5, ragged=True), grid(4, 3, zero_rows=(0, 2)),
                grid(3, 4, ragged=True, zero_rows=(2,)), BiPolynomial.zero()]
    assert [p.degrees for p in operands[:3]] == [(0, 4), (4, 0), (0, 0)]
    for p in operands:
        for q in operands:
            got, want = p * q, _schoolbook_bivariate(p, q)
            assert got.rows == want.rows
            assert [c.conductor for row in got.rows for c in row] == \
                [c.conductor for row in want.rows for c in row]
            assert hash(got) == hash(want)
