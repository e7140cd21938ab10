"""Exact arithmetic in cyclotomic extensions of the rationals.

Elements live in Q(zeta_k) for a conductor k and are stored as residues
modulo the k-th cyclotomic polynomial Phi_k, phi(k) rational coefficients
in the power basis of zeta_k.

All reduction runs on one cached table per conductor: row j is x^j mod
Phi_k for 0 <= j < k, and since zeta_k^k = 1, row j mod k serves every
exponent j.  The fold of a coefficient list indexed by exponent sums each
coefficient times its row.  A product is a convolution and a fold; the
lift of an element of Q(zeta_d) into Q(zeta_k), d | k, folds it at the
exponents j*k/d; the Galois conjugate sigma_a (zeta_k -> zeta_k^a) folds
it at j*a mod k; and the inverse of x is the product of its other
conjugates divided by the norm, the rational number x times that product
(Washington, *Introduction to Cyclotomic Fields*, GTM 83, ch. 2).

Mixed conductors are lifted to the least common multiple on demand, and
every result is pushed back down to its minimal conductor, so that equal
values always have identical representations (which makes hashing safe).
For each maximal proper subfield Q(zeta_d) a left inverse P of the lift,
found once by `polynomial.nullspace`, projects a residue v to c = P v,
and v lies in Q(zeta_d) exactly when c lifts back to v.

The conductor is capped: the cap keeps every computation at desk scale,
and nothing in this package needs roots of unity beyond it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Union

from .errors import ConductorCapError, PreconditionError

CONDUCTOR_CAP = 64

_F0 = Fraction(0)
_F1 = Fraction(1)

Coercible = Union["FieldElement", int, Fraction]


def euler_phi(k: int) -> int:
    n, result, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _ring_pow(x, n: int, one):
    """x^n for n >= 0 by left-to-right square-and-multiply."""
    if n == 0:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


# ---------------------------------------------------------------------------
# the per-conductor table, its fold, and the projections onto subfields
# ---------------------------------------------------------------------------

@cache
def _cyclo_coeffs(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, low to high: for the least prime p | k and
    m = k/p, Phi_k(x) is Phi_m(x^p) if p | m and Phi_m(x^p) / Phi_m(x) if not."""
    if k == 1:
        return (-1, 1)
    from .polynomial import Polynomial
    p = next(q for q in range(2, k + 1) if k % q == 0)
    inner = _cyclo_coeffs(k // p)
    outer = [0] * (p * len(inner) - p + 1)
    outer[::p] = inner
    if (k // p) % p:
        quotient = Polynomial.from_ints(outer).exact_div(Polynomial.from_ints(inner))
        outer = [int(c.as_fraction()) for c in quotient.coeffs]
    return tuple(outer)


@cache
def _table(k: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(k), rows): rows[j] lists the nonzero (i, c) of x^j mod Phi_k, j < k."""
    phi = _cyclo_coeffs(k)
    n = len(phi) - 1
    row = [1] + [0] * (n - 1)
    rows = []
    for _ in range(k):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        # times x, then x^n = -(phi_0 + ... + phi_(n-1) x^(n-1))
        top, row = row[-1], [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi)]
    return n, tuple(rows)


def _fold(k: int, terms: list[Fraction]) -> list[Fraction]:
    """Residue of sum_j terms[j] x^j mod Phi_k."""
    n, rows = _table(k)
    out = terms[:n] + [_F0] * (n - len(terms))
    for j in range(n, len(terms)):
        c = terms[j]
        if c:
            for i, t in rows[j % k]:
                out[i] += c * t
    return out


def _product(k: int, u: Iterable[Fraction], v: Iterable[Fraction]) -> list[Fraction]:
    vs = [(j, b) for j, b in enumerate(v) if b]
    terms = [_F0] * (2 * _table(k)[0] - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in vs:
                terms[i + j] += a * b
    return _fold(k, terms)


def _spread(vec: Iterable[Fraction], k: int, step: int) -> list[Fraction]:
    """Fold of sum_j vec[j] x^(j*step mod k): the lift from Q(zeta_(k/step))
    for step dividing k, the conjugate sigma_step for step prime to k."""
    terms = [_F0] * k
    for j, c in enumerate(vec):
        terms[j * step % k] = c
    return _fold(k, terms)


@cache
def _subfields(k: int) -> tuple[int, ...]:
    """Conductors d > 1 of the maximal proper subfields of Q(zeta_k), largest
    first: k/p for each prime p | k, halved when odd times two, since
    Q(zeta_2m) = Q(zeta_m) for odd m.  Every smaller conductor divides one."""
    ds = {k // p // (2 if (k // p) % 4 == 2 else 1)
          for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))}
    return tuple(sorted(ds - {1}, reverse=True))


@cache
def _projection(d: int, k: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Sparse rows of a left inverse P of the lift Q(zeta_d) -> Q(zeta_k).

    The lift L sends e_j to row j*k/d of the table.  The kernel of
    [L^T | -I] holds the (x, y) with L^T x = y; its last phi(d) basis vectors
    have y = e_0, e_1, ..., so their x parts are the rows of a P with P L = I.
    """
    from .polynomial import nullspace
    n, rows = _table(k)
    nd = euler_phi(d)
    matrix = []
    for j in range(nd):
        line = [_ZERO] * (n + nd)
        for i, t in rows[j * (k // d)]:
            line[i] = rational(t)
        line[n + j] = rational(-1)
        matrix.append(line)
    return tuple(tuple((i, c.as_fraction()) for i, c in enumerate(vec[:n]) if not c.is_zero())
                 for vec in nullspace(matrix)[-nd:])


def _minimal_form(k: int, vec: list[Fraction]) -> tuple[int, list[Fraction]]:
    if k == 1:
        return k, vec
    if not any(vec[1:]):
        return 1, vec[:1]
    for d in _subfields(k):
        c = [sum((vec[i] * t for i, t in row), _F0) for row in _projection(d, k)]
        if _spread(c, k, k // d) == vec:
            return _minimal_form(d, c)
    return k, vec


class FieldElement:
    """An element of a cyclotomic field, kept at its minimal conductor."""

    __slots__ = ("conductor", "residue")

    def __init__(self, conductor: int, residue: Iterable[Fraction], _reduced: bool = False):
        if _reduced:  # a full-length Fraction residue already at its minimal conductor
            self.conductor, self.residue = conductor, tuple(residue)
            return
        k = int(conductor)
        if k < 1:
            raise PreconditionError("conductor must be positive")
        if k > CONDUCTOR_CAP:
            raise ConductorCapError(f"conductor {k} exceeds cap {CONDUCTOR_CAP}")
        vec = [Fraction(c) for c in residue]
        n = euler_phi(k)
        if len(vec) > n:
            raise PreconditionError("residue longer than the field degree")
        vec += [_F0] * (n - len(vec))
        k, vec = _minimal_form(k, vec)
        self.conductor, self.residue = k, tuple(vec)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rational(p, q=1) -> "FieldElement":
        return FieldElement(1, [Fraction(p, q)], _reduced=True)

    @staticmethod
    def zero() -> "FieldElement":
        return _ZERO

    @staticmethod
    def one() -> "FieldElement":
        return _ONE

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.residue[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_fraction(self) -> Fraction:
        if self.conductor != 1:
            raise PreconditionError("element is not rational")
        return self.residue[0]

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value: Coercible) -> "FieldElement":
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return FieldElement(1, [Fraction(value)], _reduced=True)
        return NotImplemented  # type: ignore[return-value]

    def _common(self, other: "FieldElement"):
        if self.conductor == other.conductor:
            return self.conductor, self.residue, other.residue
        k = lcm(self.conductor, other.conductor)
        if k > CONDUCTOR_CAP:
            raise ConductorCapError(
                f"combined conductor {k} exceeds cap {CONDUCTOR_CAP}")
        return (k, _spread(self.residue, k, k // self.conductor),
                _spread(other.residue, k, k // other.conductor))

    def _scaled(self, c: Fraction) -> "FieldElement":
        if not c:
            return _ZERO
        return FieldElement(self.conductor, [c * a for a in self.residue], _reduced=True)

    def _shifted(self, c: Fraction) -> "FieldElement":
        # x + c lies in a subfield exactly when x does, so the conductor stays
        return FieldElement(self.conductor, (self.residue[0] + c,) + self.residue[1:],
                            _reduced=True)

    def __add__(self, other: Coercible) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            if other.conductor == 1:
                return FieldElement(1, (self.residue[0] + other.residue[0],), _reduced=True)
            return other._shifted(self.residue[0])
        if other.conductor == 1:
            return self._shifted(other.residue[0])
        k, u, v = self._common(other)
        k, vec = _minimal_form(k, [a + b for a, b in zip(u, v)])
        return FieldElement(k, vec, _reduced=True)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.conductor, [-a for a in self.residue], _reduced=True)

    def __sub__(self, other: Coercible) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coercible) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other: Coercible) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            if other.conductor == 1:
                return FieldElement(1, [self.residue[0] * other.residue[0]], _reduced=True)
            return other._scaled(self.residue[0])
        if other.conductor == 1:
            return self._scaled(other.residue[0])
        k, u, v = self._common(other)
        return FieldElement(k, _product(k, u, v))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        k, x = self.conductor, self.residue
        if k == 1:
            return FieldElement(1, [1 / x[0]], _reduced=True)
        # x * prod_{a != 1} sigma_a(x) is the norm, a nonzero rational
        others = None
        for a in range(2, k):
            if gcd(a, k) == 1:
                conj = _spread(x, k, a)
                others = conj if others is None else _product(k, others, conj)
        norm = _product(k, x, others)[0]
        return FieldElement(k, [c / norm for c in others], _reduced=True)

    def __truediv__(self, other: Coercible) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def exact_div(self, other: Coercible) -> "FieldElement":
        """Division; always exact in a field.  Mirrors the polynomial API."""
        return self / other

    def __rtruediv__(self, other: Coercible) -> "FieldElement":
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return _ring_pow(self.inverse(), -exponent, _ONE)
        return _ring_pow(self, exponent, _ONE)

    # -- equality, ordering keys, hashing -----------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.residue == other.residue

    def __hash__(self) -> int:
        return hash((self.conductor, self.residue))

    def sort_key(self):
        return (self.conductor,
                tuple((c.numerator, c.denominator) for c in self.residue))

    # -- numeric embedding ---------------------------------------------------

    def embed_complex(self, embedding_index: int = 1) -> complex:
        """Complex value under zeta_k -> exp(2*pi*i*j/k) for j = embedding_index."""
        if gcd(embedding_index, self.conductor) != 1:
            raise PreconditionError(
                f"embedding index {embedding_index} is not coprime to {self.conductor}")
        if self.conductor == 1:
            return complex(self.residue[0])
        from cmath import exp, pi
        root = exp(2j * pi * embedding_index / self.conductor)
        value = 0j
        for coeff in reversed(self.residue):
            value = value * root + complex(coeff)
        return value

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.residue[0])
        name = f"zeta{self.conductor}"
        terms = []
        for j in range(len(self.residue) - 1, -1, -1):
            c = self.residue[j]
            if c == 0:
                continue
            if j == 0:
                body = str(abs(c))
            else:
                mono = name if j == 1 else f"{name}^{j}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"FieldElement({self})"


_ZERO = FieldElement(1, [_F0], _reduced=True)
_ONE = FieldElement(1, [_F1], _reduced=True)


def zeta(k: int) -> FieldElement:
    """A primitive k-th root of unity."""
    if k < 1:
        raise PreconditionError("conductor must be positive")
    if k > CONDUCTOR_CAP:
        raise ConductorCapError(f"conductor {k} exceeds cap {CONDUCTOR_CAP}")
    if k == 1:
        return _ONE
    return FieldElement(k, _fold(k, [_F0, _F1]))


def rational(p, q=1) -> FieldElement:
    return FieldElement.rational(p, q)
