"""Exact arithmetic in cyclotomic extensions of the rationals.

Elements live in Q(zeta_k) for a conductor k and are stored as residues
modulo the k-th cyclotomic polynomial, with rational coefficients.  Mixed
conductors are lifted to the least common multiple on demand, and every
result is pushed back down to its minimal conductor so that equal values
always have identical representations (which makes hashing safe).

The conductor is capped: the cap keeps every computation at desk scale,
and nothing in this package needs roots of unity beyond it.
"""

from __future__ import annotations

from fractions import Fraction
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


# ---------------------------------------------------------------------------
# plain Fraction-list polynomial helpers (coefficients low to high degree)
# ---------------------------------------------------------------------------

def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [_F0] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        coeff = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = coeff
        if coeff:
            for i, bi in enumerate(b):
                a[shift + i] -= coeff * bi
        a.pop()
        _trim(a)
        if not a:
            break
    return _trim(q), a


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid over Q[x]; returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_F1], []
    t0, t1 = [], [_F1]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else _F0), (b[i] if i < len(b) else _F0)


_CYCLO_CACHE: dict[int, tuple[Fraction, ...]] = {}


def _cyclo_coeffs(k: int) -> tuple[Fraction, ...]:
    """Coefficients of the k-th cyclotomic polynomial, low to high."""
    cached = _CYCLO_CACHE.get(k)
    if cached is not None:
        return cached
    # divide x^k - 1 by the cyclotomic polynomials of all proper divisors
    num = [_F0] * (k + 1)
    num[0], num[k] = Fraction(-1), _F1
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod(num, list(_cyclo_coeffs(d)))
            assert not rem
    result = tuple(num)
    _CYCLO_CACHE[k] = result
    return result


# ---------------------------------------------------------------------------
# conductor lifting and reduction
# ---------------------------------------------------------------------------

_LIFT_CACHE: dict[tuple[int, int], list[list[Fraction]]] = {}


def _lift_basis(d: int, k: int) -> list[list[Fraction]]:
    """Images of the power basis of Q(zeta_d) inside Q(zeta_k), as columns."""
    key = (d, k)
    cached = _LIFT_CACHE.get(key)
    if cached is not None:
        return cached
    phi_k = list(_cyclo_coeffs(k))
    nk, nd = euler_phi(k), euler_phi(d)
    step = k // d
    cols = []
    for j in range(nd):
        mono = [_F0] * (j * step) + [_F1]
        _, residue = _poly_divmod(mono, phi_k)
        cols.append(residue + [_F0] * (nk - len(residue)))
    _LIFT_CACHE[key] = cols
    return cols


def _lift_vec(vec: tuple[Fraction, ...], d: int, k: int) -> list[Fraction]:
    if d == k:
        return list(vec)
    cols = _lift_basis(d, k)
    out = [_F0] * euler_phi(k)
    for j, coeff in enumerate(vec):
        if coeff:
            col = cols[j]
            for i, ci in enumerate(col):
                if ci:
                    out[i] += coeff * ci
    return out


def _solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over Q; returns a solution vector or None."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    solution = [_F0] * cols
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][cols]
    return solution


_SUBCONDUCTOR_CACHE: dict[int, list[int]] = {}


def _proper_subconductors(k: int) -> list[int]:
    cached = _SUBCONDUCTOR_CACHE.get(k)
    if cached is None:
        cached = [d for d in range(1, k) if k % d == 0 and d % 4 != 2]
        _SUBCONDUCTOR_CACHE[k] = cached
    return cached


class FieldElement:
    """An element of a cyclotomic field, kept at its minimal conductor."""

    __slots__ = ("conductor", "residue")

    def __init__(self, conductor: int, residue: Iterable[Fraction], _reduced: bool = False):
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
        if not _reduced:
            k, vec = self._minimal_form(k, vec)
        object.__setattr__(self, "conductor", k)
        object.__setattr__(self, "residue", tuple(vec))

    @staticmethod
    def _minimal_form(k: int, vec: list[Fraction]) -> tuple[int, list[Fraction]]:
        if k == 1:
            return k, vec
        if all(c == 0 for c in vec[1:]):
            return 1, [vec[0]]
        for d in _proper_subconductors(k):
            if d == 1:
                continue  # handled by the constant check above
            cols = _lift_basis(d, k)
            matrix = [[cols[j][i] for j in range(len(cols))] for i in range(len(vec))]
            sol = _solve_rational(matrix, vec)
            if sol is not None:
                return d, sol
        if k % 4 == 2:
            raise PreconditionError("conductor 2 mod 4 failed to reduce")  # unreachable
        return k, vec

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

    def _common(self, other: "FieldElement") -> tuple[int, list[Fraction], list[Fraction]]:
        k = lcm(self.conductor, other.conductor)
        if k > CONDUCTOR_CAP:
            raise ConductorCapError(
                f"combined conductor {k} exceeds cap {CONDUCTOR_CAP}")
        return k, _lift_vec(self.residue, self.conductor, k), _lift_vec(
            other.residue, other.conductor, k)

    def __add__(self, other: Coercible) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            return FieldElement(self.conductor,
                                [a + b for a, b in zip(self.residue, other.residue)])
        k, u, v = self._common(other)
        return FieldElement(k, [a + b for a, b in zip(u, v)])

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
        if self.conductor == 1 and other.conductor == 1:
            return FieldElement(1, [self.residue[0] * other.residue[0]], _reduced=True)
        k, u, v = self._common(other)
        prod = _poly_mul(_trim(list(u)), _trim(list(v)))
        _, residue = _poly_divmod(prod, list(_cyclo_coeffs(k)))
        return FieldElement(k, residue)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        if self.conductor == 1:
            return FieldElement(1, [1 / self.residue[0]], _reduced=True)
        g, s, _ = _poly_xgcd(_trim(list(self.residue)), list(_cyclo_coeffs(self.conductor)))
        # the modulus is irreducible over Q, so g is a nonzero constant
        inv = [c / g[0] for c in s]
        _, residue = _poly_divmod(inv, list(_cyclo_coeffs(self.conductor)))
        return FieldElement(self.conductor, residue)

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
            return self.inverse() ** (-exponent)
        if exponent <= 1:
            return self if exponent else _ONE
        half = self ** (exponent // 2)
        return half * half * self if exponent % 2 else half * half

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
    mono = [_F0, _F1]
    _, residue = _poly_divmod(mono, list(_cyclo_coeffs(k)))
    return FieldElement(k, residue)


def cyclotomic_polynomial(k: int):
    """The k-th cyclotomic polynomial as a Polynomial over the rationals."""
    from .polynomial import Polynomial
    return Polynomial([FieldElement.rational(c) for c in _cyclo_coeffs(k)])


def rational(p, q=1) -> FieldElement:
    return FieldElement.rational(p, q)
