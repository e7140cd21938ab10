"""Dense polynomials over cyclotomic fields, in one and two variables.

The pieces that everything else leans on:

* the univariate product, done as one big-integer product (Kronecker
  substitution): both operands are written in Q(zeta_k), k the lcm of
  their conductors, cleared to one integer denominator each, and packed
  into integers with one slot per coordinate; one multiplication, a
  signed unpacking and a fold through the conductor's table give the
  coefficients (Kronecker 1882; Harvey, "Faster polynomial multiplication
  via multipoint Kronecker substitution", J. Symb. Comput. 44, 2009;
  von zur Gathen and Gerhard, *Modern Computer Algebra*, section 8.4).
  The pairwise loop over nonzero terms stays for sparse operands, where
  there are no more term pairs than output coefficients, and for a joint
  conductor beyond the cap, so that the cap error is raised by the term
  pair that crosses it.  A bivariate product is one such univariate
  product, with var2 -> var1^w for w the product's width in var2;
* one subresultant pseudo-remainder sequence, tracking signs, for the
  resultant, univariate gcd, bivariate gcd (coefficients are themselves
  polynomials), and resultant-style elimination of a shared variable;
* exact Gaussian elimination for the linear systems that appear when
  peeling an outer factor off a composition;
* squarefree parts, computed as p / gcd(p, p') one variable at a time.

Elimination results follow one convention everywhere: content in each
remaining variable is removed and the result is made squarefree, so a
returned curve carries no multiplicity information.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import PreconditionError
from .exactfield import (
    CONDUCTOR_CAP,
    FieldElement,
    _fold,
    _minimal_form,
    _ring_pow,
    _spread,
    _table,
    rational,
)

_ZERO = FieldElement.zero()
_ONE = FieldElement.one()


class Polynomial:
    """Univariate polynomial, coefficients low to high degree."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[FieldElement], var: str = "z"):
        cs = [c if isinstance(c, FieldElement) else rational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(var: str = "z") -> "Polynomial":
        return Polynomial([], var)

    @staticmethod
    def one(var: str = "z") -> "Polynomial":
        return Polynomial([_ONE], var)

    @staticmethod
    def variable(var: str = "z") -> "Polynomial":
        return Polynomial([_ZERO, _ONE], var)

    @staticmethod
    def constant(c, var: str = "z") -> "Polynomial":
        return Polynomial([c], var)

    @staticmethod
    def from_ints(values: Sequence[int], var: str = "z") -> "Polynomial":
        return Polynomial([rational(v) for v in values], var)

    def with_var(self, var: str) -> "Polynomial":
        return Polynomial(self.coeffs, var)

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> FieldElement:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out, self.var)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs], self.var)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.var)
        k = lcm(*(c.conductor for c in a), *(c.conductor for c in b))
        terms = [(i, c) for i, c in enumerate(a) if not c.is_zero()]
        others = [(j, c) for j, c in enumerate(b) if not c.is_zero()]
        if k <= CONDUCTOR_CAP and len(terms) * len(others) > len(a) + len(b) - 1:
            return Polynomial(_packed_product(k, a, b), self.var)
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in terms:
            for j, bj in others:
                out[i + j] = out[i + j] + ai * bj
        return Polynomial(out, self.var)

    def scale(self, c: FieldElement) -> "Polynomial":
        return Polynomial([a * c for a in self.coeffs], self.var)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PreconditionError("negative polynomial power")
        return _ring_pow(self, n, Polynomial.one(self.var))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        inv_lead = other.leading().inverse()
        q = [_ZERO] * max(0, len(rem) - len(div) + 1)
        while len(rem) >= len(div):
            c = rem[-1] * inv_lead
            k = len(rem) - len(div)
            q[k] = c
            if not c.is_zero():
                for i, d in enumerate(div[:-1]):
                    rem[k + i] = rem[k + i] - c * d
            rem.pop()
            while rem and rem[-1].is_zero():
                rem.pop()
        return Polynomial(q, self.var), Polynomial(rem, self.var)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise PreconditionError("division was expected to be exact")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def derivative(self) -> "Polynomial":
        return Polynomial(
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))], self.var)

    def evaluate(self, x: FieldElement) -> FieldElement:
        """Horner's rule; a run of zero coefficients costs one power of x."""
        acc = _ZERO
        run = 0
        for c in reversed(self.coeffs):
            if c.is_zero():
                run += 1
                continue
            acc = acc * (x if run == 0 else x ** (run + 1)) + c
            run = 0
        return acc * x ** run if run else acc

    def complex_coeffs(self, embedding_index: int = 1) -> list[complex]:
        return [c.embed_complex(embedding_index) for c in self.coeffs]

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            text = str(c)
            negative = text.startswith("-") and "+" not in text and " - " not in text
            body = text[1:] if negative else text
            wrap = ("+" in body) or (" - " in body)
            if i == 0:
                term = f"({body})" if wrap else body
            else:
                mono = self.var if i == 1 else f"{self.var}^{i}"
                if body == "1":
                    term = mono
                else:
                    term = (f"({body})*{mono}" if wrap else f"{body}*{mono}")
            if not parts:
                parts.append(f"-{term}" if negative else term)
            else:
                parts.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# packed products (Kronecker substitution)
# ---------------------------------------------------------------------------

def _integer_slots(cs: Sequence[FieldElement], k: int, n: int, width: int):
    """(den, ints): the coordinates of cs in Q(zeta_k) times their common
    denominator den, coefficient i at slots i*width .. i*width + n - 1."""
    pad = (Fraction(0),) * (n - 1)
    vecs = [c.residue if c.conductor == k
            else c.residue + pad if c.conductor == 1
            else _spread(c.residue, k, k // c.conductor) for c in cs]
    den = lcm(*(x.denominator for vec in vecs for x in vec))
    gap = [0] * (width - n)
    ints: list[int] = []
    for vec in vecs:
        ints += [x.numerator * (den // x.denominator) for x in vec]
        ints += gap
    return den, ints


def _offsets(count: int, size: int) -> tuple[int, int]:
    """(half, the integer with half in each of count slots of size bytes)."""
    half = 1 << (8 * size - 1)
    return half, int.from_bytes(half.to_bytes(size, "little") * count, "little")


def _pack(ints: list[int], size: int) -> int:
    """sum ints[s] * 2^(8*size*s), for |ints[s]| below half a slot."""
    half, offsets = _offsets(len(ints), size)
    raw = b"".join((v + half).to_bytes(size, "little") for v in ints)
    return int.from_bytes(raw, "little") - offsets


def _unpack(value: int, count: int, size: int) -> list[int]:
    """The signed slots of _pack.  Adding half to every slot first makes each
    slot nonnegative, so no slot borrows from the one above it."""
    half, offsets = _offsets(count, size)
    raw = (value + offsets).to_bytes(count * size, "little")
    return [int.from_bytes(raw[s:s + size], "little") - half
            for s in range(0, count * size, size)]


def _packed_product(k: int, a: Sequence[FieldElement],
                    b: Sequence[FieldElement]) -> list[FieldElement]:
    """Coefficients of a*b from one integer product, for k = lcm of their conductors.

    Coordinate j of coefficient i sits at slot i*(2n - 1) + j, n = phi(k),
    so the product's coordinate j + j' of coefficient i + i' lands in a slot
    of its own.  A slot holds at most min(len a, len b) * n products of
    entries, which bounds its size; coordinates from n up fold back through
    the rows of the conductor's table.
    """
    n = _table(k)[0]
    width = 2 * n - 1
    den_a, xs = _integer_slots(a, k, n, width)
    den_b, ys = _integer_slots(b, k, n, width)
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(a), len(b)) * n
    size = (bound.bit_length() + 8) // 8  # and a sign bit
    count = (len(a) + len(b) - 1) * width
    slots = _unpack(_pack(xs, size) * _pack(ys, size), count, size)
    den = den_a * den_b
    out = []
    for start in range(0, count, width):
        vec = _fold(k, slots[start:start + width])
        if not any(vec):
            out.append(_ZERO)
            continue
        m, residue = _minimal_form(k, [Fraction(v, den) for v in vec])
        out.append(FieldElement(m, residue, _reduced=True))
    return out


# ---------------------------------------------------------------------------
# generic subresultant machinery
#
# Sequences are lists of ring elements (low to high degree in the working
# variable).  The ring element type must provide *, +, unary -, ==,
# exact_div, and is_zero; FieldElement, Polynomial, and BiPolynomial all do.
# ---------------------------------------------------------------------------

def _seq_trim(a: list) -> list:
    while a and a[-1].is_zero():
        a.pop()
    return a


def _pseudo_rem(a: list, b: list, one) -> list:
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a mod b; zeros and lc(b) = 1 cost nothing."""
    db, lb = len(b) - 1, b[-1]
    terms = [(i, bi) for i, bi in enumerate(b[:-1]) if not bi.is_zero()]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        c = -r.pop() if len(r) - 1 == db + k else None
        if lb != one:
            r = [ri if ri.is_zero() else lb * ri for ri in r]
        if c is not None:
            for i, bi in terms:
                r[k + i] = r[k + i] + c * bi
        _seq_trim(r)
    return r


def _subresultant_last(a: list, b: list, one) -> tuple[list, list, object, int]:
    """(prev, last, h, sign): the final state of the subresultant sequence.

    last is its last nonzero element (a gcd up to a ring scalar; the other
    operand if one is zero), prev the one before, h the subresultant scalar
    and sign the product of (-1)^(deg A * deg B) over the steps (Cohen,
    GTM 138, Algorithm 3.3.7).
    """
    A, B = _seq_trim(list(a)), _seq_trim(list(b))
    g, h, sign = one, one, 1
    if len(A) < len(B):
        A, B = B, A
        sign = -1 if len(A) % 2 == len(B) % 2 == 0 else 1
    while len(B) > 1:
        delta = len(A) - len(B)
        R = _pseudo_rem(A, B, one)
        if not R:
            break
        if len(A) % 2 == len(B) % 2 == 0:
            sign = -sign
        beta = g * _ring_pow(h, delta, one)
        A, B = B, R if beta == one else [c.exact_div(beta) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:  # at delta = 0 h is unchanged: _ring_pow(h, -1) is h^3
            h = _ring_pow(g, delta, one).exact_div(_ring_pow(h, delta - 1, one))
    return (A, B, h, sign) if B else (B, A, h, sign)


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the coefficient field."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    last = _subresultant_last(list(p.coeffs), list(q.coeffs), _ONE)[1]
    return Polynomial(last, p.var).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with every repeated factor reduced to multiplicity one; monic."""
    if p.degree <= 0:
        return Polynomial.one(p.var) if not p.is_zero() else p
    g = gcd_univariate(p, p.derivative())
    return p.exact_div(g).monic()


def resultant(p: Polynomial, q: Polynomial) -> FieldElement:
    """Exact resultant over the field: zero unless the subresultant sequence
    ends in a constant, and then sign * lc(last)^deg(prev) / h^(deg(prev) - 1)."""
    prev, last, h, sign = _subresultant_last(list(p.coeffs), list(q.coeffs), _ONE)
    if len(last) != 1 or not prev:  # a common factor, or a zero operand
        return _ZERO
    d = len(prev) - 1
    return last[0] ** d * h ** (1 - d) * sign


def lagrange_interpolate(xs: Sequence[FieldElement], ys: Sequence[FieldElement],
                         var: str = "z") -> Polynomial:
    if len(xs) != len(ys) or not xs:
        raise PreconditionError("interpolation needs matching nonempty samples")
    total = Polynomial.zero(var)
    for i, xi in enumerate(xs):
        numerator = Polynomial.one(var)
        denom = _ONE
        for j, xj in enumerate(xs):
            if i == j:
                continue
            numerator = numerator * Polynomial([-xj, _ONE], var)
            denom = denom * (xi - xj)
        total = total + numerator.scale(ys[i] * denom.inverse())
    return total


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def nullspace(matrix: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Basis of the kernel of the matrix, by reduced row echelon form."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [list(row) for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    pivot_set = set(pivots)
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * cols
        vec[free] = _ONE
        for row_idx, c in enumerate(pivots):
            vec[c] = -m[row_idx][free]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------

class BiPolynomial:
    """Dense bivariate polynomial; rows[i][j] is the (var1^i * var2^j) term."""

    __slots__ = ("rows", "var1", "var2")

    def __init__(self, rows: Sequence[Sequence[FieldElement]],
                 var1: str = "x", var2: str = "w"):
        grid = [[c if isinstance(c, FieldElement) else rational(c) for c in row]
                for row in rows]
        width = max((len(row) for row in grid), default=0)
        for row in grid:
            row.extend([_ZERO] * (width - len(row)))
        while grid and all(c.is_zero() for c in grid[-1]):
            grid.pop()
        if grid:
            while width and all(row[width - 1].is_zero() for row in grid):
                width -= 1
            grid = [row[:width] for row in grid]
        self.rows = tuple(tuple(row) for row in grid)
        self.var1 = var1
        self.var2 = var2

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(var1: str = "x", var2: str = "w") -> "BiPolynomial":
        return BiPolynomial([], var1, var2)

    @staticmethod
    def from_poly_in_var1(p: Polynomial, var1: str = "x", var2: str = "w") -> "BiPolynomial":
        return BiPolynomial([[c] for c in p.coeffs], var1, var2)

    @staticmethod
    def from_poly_in_var2(p: Polynomial, var1: str = "x", var2: str = "w") -> "BiPolynomial":
        return BiPolynomial([list(p.coeffs)], var1, var2)

    @staticmethod
    def from_var2_coeffs(coeffs: Sequence[Polynomial], var1: str = "x",
                         var2: str = "w") -> "BiPolynomial":
        """Build from coefficients of var2 powers; each is a Polynomial in var1."""
        rows: list[list[FieldElement]] = []
        for j, p in enumerate(coeffs):
            for i, c in enumerate(p.coeffs):
                while len(rows) <= i:
                    rows.append([])
                row = rows[i]
                while len(row) <= j:
                    row.append(_ZERO)
                row[j] = c
        return BiPolynomial(rows, var1, var2)

    # -- queries -------------------------------------------------------------

    @property
    def degrees(self) -> tuple[int, int]:
        """(degree in var1, degree in var2); (-1, -1) for zero."""
        if not self.rows:
            return (-1, -1)
        return (len(self.rows) - 1, len(self.rows[0]) - 1)

    def is_zero(self) -> bool:
        return not self.rows

    def is_constant(self) -> bool:
        return self.degrees <= (0, 0)

    def var2_coeffs(self) -> list[Polynomial]:
        """Coefficients of var2 powers, each a Polynomial in var1."""
        d1, d2 = self.degrees
        return [Polynomial([self.rows[i][j] for i in range(d1 + 1)], self.var1)
                for j in range(d2 + 1)]

    def var1_coeffs(self) -> list[Polynomial]:
        d1, d2 = self.degrees
        return [Polynomial([self.rows[i][j] for j in range(d2 + 1)], self.var2)
                for i in range(d1 + 1)]

    def transpose(self) -> "BiPolynomial":
        d1, d2 = self.degrees
        rows = [[self.rows[i][j] for i in range(d1 + 1)] for j in range(d2 + 1)]
        return BiPolynomial(rows, self.var2, self.var1)

    def rename(self, var1: str, var2: str) -> "BiPolynomial":
        return BiPolynomial(self.rows, var1, var2)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        n1 = max(len(self.rows), len(other.rows))
        n2 = max(len(self.rows[0]) if self.rows else 0,
                 len(other.rows[0]) if other.rows else 0)
        out = [[_ZERO] * n2 for _ in range(n1)]
        for source in (self.rows, other.rows):
            for i, row in enumerate(source):
                for j, c in enumerate(row):
                    if not c.is_zero():
                        out[i][j] = out[i][j] + c
        return BiPolynomial(out, self.var1, self.var2)

    def __neg__(self) -> "BiPolynomial":
        return BiPolynomial([[-c for c in row] for row in self.rows],
                            self.var1, self.var2)

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BiPolynomial":
        if isinstance(other, FieldElement):
            return BiPolynomial([[c * other for c in row] for row in self.rows],
                                self.var1, self.var2)
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPolynomial.zero(self.var1, self.var2)
        # var2 -> var1^w with w the product's var2 width: one univariate product
        a, b = self.rows, other.rows
        w = len(a[0]) + len(b[0]) - 1
        pa, pb = (Polynomial([c for row in rows for c in row + (_ZERO,) * (w - len(row))])
                  for rows in (a, b))
        coeffs = (pa * pb).coeffs
        return BiPolynomial([coeffs[i:i + w] for i in range(0, len(coeffs), w)],
                            self.var1, self.var2)

    def exact_div(self, other: "BiPolynomial") -> "BiPolynomial":
        """Exact division; long division in var2 over polynomials in var1."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        rem = self.var2_coeffs()
        div = other.var2_coeffs()
        lead = div[-1]
        q: list[Polynomial] = [Polynomial.zero(self.var1)
                               for _ in range(len(rem) - len(div) + 1)]
        if len(rem) < len(div):
            raise PreconditionError("division was expected to be exact")
        while len(rem) >= len(div):
            c = rem[-1].exact_div(lead)
            k = len(rem) - len(div)
            q[k] = c
            for i, d in enumerate(div[:-1]):
                rem[k + i] = rem[k + i] - c * d
            rem.pop()
            while rem and rem[-1].is_zero():
                rem.pop()
        if rem:
            raise PreconditionError("division was expected to be exact")
        return BiPolynomial.from_var2_coeffs(q, self.var1, self.var2)

    def derivative_var1(self) -> "BiPolynomial":
        rows = [[c * i for c in self.rows[i]] for i in range(1, len(self.rows))]
        return BiPolynomial(rows, self.var1, self.var2)

    def derivative_var2(self) -> "BiPolynomial":
        return self.transpose().derivative_var1().transpose()

    def evaluate(self, a: FieldElement, b: FieldElement) -> FieldElement:
        total = _ZERO
        for p in self.var2_coeffs()[::-1]:
            total = total * b + p.evaluate(a)
        return total

    # -- normalization -------------------------------------------------------

    def leading_unit(self) -> FieldElement:
        """Coefficient of the lexicographically largest monomial (var1 major)."""
        for i in range(len(self.rows) - 1, -1, -1):
            for j in range(len(self.rows[i]) - 1, -1, -1):
                if not self.rows[i][j].is_zero():
                    return self.rows[i][j]
        return _ZERO

    def normalized(self) -> "BiPolynomial":
        if self.is_zero():
            return self
        inv = self.leading_unit().inverse()
        return self * inv

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c.is_zero():
                    continue
                factors = []
                text = str(c)
                if text != "1" or (i == 0 and j == 0):
                    factors.append(f"({text})" if ("+" in text or " " in text) else text)
                if i:
                    factors.append(self.var1 if i == 1 else f"{self.var1}^{i}")
                if j:
                    factors.append(self.var2 if j == 1 else f"{self.var2}^{j}")
                parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiPolynomial({self})"


_POLY_ONE = Polynomial.one()


def _content(polys: Sequence[Polynomial]) -> Polynomial:
    acc = Polynomial.zero()
    for p in polys:
        acc = gcd_univariate(acc, p)
        if acc.degree == 0:
            break
    return acc


def gcd_bivariate(p: BiPolynomial, q: BiPolynomial) -> BiPolynomial:
    """Gcd of bivariate polynomials, normalized so the leading unit is one.

    Works in var2 over the fraction field of var1: both inputs are split
    into content and primitive part, the primitive parts go through the
    subresultant sequence, and the contents contribute their own gcd.
    """
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    pc = p.var2_coeffs()
    qc = q.var2_coeffs()
    p_content = _content(pc)
    q_content = _content(qc)
    pp = [c.exact_div(p_content) for c in pc]
    qp = [c.exact_div(q_content) for c in qc]
    one = Polynomial.one(p.var1)
    last = _subresultant_last(pp, qp, one)[1]
    last_content = _content(last)
    primitive = [c.exact_div(last_content) for c in last]
    content_gcd = gcd_univariate(p_content, q_content)
    result = BiPolynomial.from_var2_coeffs(
        [c * content_gcd for c in primitive], p.var1, p.var2)
    return result.normalized()


def squarefree_part_bivariate(p: BiPolynomial) -> BiPolynomial:
    """Drop multiplicity in both variables; normalized."""
    if p.is_zero() or p.is_constant():
        return p.normalized() if not p.is_zero() else p
    d1 = p.derivative_var1()
    if not d1.is_zero():
        p = p.exact_div(gcd_bivariate(p, d1))
    d2 = p.derivative_var2()
    if not d2.is_zero():
        p = p.exact_div(gcd_bivariate(p, d2))
    return p.normalized()


def strip_contents(p: BiPolynomial) -> BiPolynomial:
    """Remove factors that involve only one of the two variables.

    A polynomial that depends on a single variable is left alone in that
    direction: its own content would be the whole polynomial, and removing
    it would erase the curve rather than clean it up.
    """
    if p.is_zero():
        return p
    if p.degrees[1] > 0:
        c2 = _content(p.var2_coeffs())
        if c2.degree > 0:
            p = BiPolynomial.from_var2_coeffs(
                [q.exact_div(c2) for q in p.var2_coeffs()], p.var1, p.var2)
    if p.degrees[0] > 0:
        c1 = _content(p.var1_coeffs())
        if c1.degree > 0:
            pt = p.transpose()
            pt = BiPolynomial.from_var2_coeffs(
                [q.exact_div(c1.with_var(pt.var1)) for q in pt.var2_coeffs()],
                pt.var1, pt.var2)
            p = pt.transpose()
    return p


def resultant_eliminate(p: BiPolynomial, q: BiPolynomial) -> BiPolynomial:
    """Eliminate the shared variable from p(x, y) and q(y, w).

    The shared variable is p.var2 == q.var1.  The result is a squarefree,
    content-stripped polynomial in (p.var1, q.var2) vanishing exactly on
    the projection of the common zero locus away from degenerate sheets.
    Returns the zero polynomial when the inputs share a component in y.
    """
    if p.var2 != q.var1:
        raise PreconditionError(
            f"elimination variable mismatch: {p.var2} vs {q.var1}")
    x_var, y_var, w_var = p.var1, p.var2, q.var2
    out1, out2 = x_var, w_var
    if out1 == out2:
        raise PreconditionError("output variables collide")
    # coefficients of y powers, embedded into the (x, w) coefficient ring
    a = [BiPolynomial.from_poly_in_var1(c, out1, out2) for c in p.var2_coeffs()]
    b = [BiPolynomial.from_poly_in_var2(c.with_var(out2), out1, out2)
         for c in q.transpose().var2_coeffs()]
    one = BiPolynomial([[_ONE]], out1, out2)
    last = _subresultant_last(a, b, one)[1]
    if len(last) != 1:
        # positive y-degree gcd: shared component, projection degenerates
        return BiPolynomial.zero(out1, out2)
    r = strip_contents(last[0])
    return squarefree_part_bivariate(r)
