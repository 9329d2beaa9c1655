"""Executable finite-support Hahn sums and power-series arithmetic.

Elements are finite maps from a concrete decidable index chain into exact
rationals, ordered lexicographically by the least support point (the Krull
convention: a large valuation means a small element).  This grounds the
symbolic layer's vocabulary: natural valuation, archimedean equivalence,
ultrametric balls, and the value-additive series product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter
from typing import Dict, Iterable, Optional, Tuple, Union

from .errors import DomainError


# ---------------------------------------------------------------------------
# Index chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePoints:
    """Points 0 .. size-1."""
    size: int

    def check(self, p) -> None:
        if not isinstance(p, int) or not 0 <= p < self.size:
            raise DomainError(f"{_render_point(p)} is not a point of fin({self.size})")

    def __str__(self) -> str:
        return f"fin({self.size})"


@dataclass(frozen=True)
class IntegerPoints:
    def check(self, p) -> None:
        if not isinstance(p, int):
            raise DomainError(f"{_render_point(p)} is not an integer point")

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class RationalPoints:
    def check(self, p) -> None:
        if not isinstance(p, (int, Fraction)):
            raise DomainError(f"{_render_point(p)} is not a rational point")

    def __str__(self) -> str:
        return "rat"


@dataclass(frozen=True)
class LexPoints:
    """Tuples compared lexicographically, one factor chain per slot."""
    factors: Tuple["IndexChain", ...]

    def check(self, p) -> None:
        if not isinstance(p, tuple) or len(p) != len(self.factors):
            raise DomainError(f"{_render_point(p)} is not a point of {self}")
        for fac, q in zip(self.factors, p):
            fac.check(q)

    def __str__(self) -> str:
        return "lex(" + ",".join(str(f) for f in self.factors) + ")"


IndexChain = Union[FinitePoints, IntegerPoints, RationalPoints, LexPoints]

INT_CHAIN = IntegerPoints()
RAT_CHAIN = RationalPoints()


class Infinity:
    """The valuation of zero; larger than every index point."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = Infinity()


def point_le(a, b) -> bool:
    """Order on index points extended by the infinity sentinel."""
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b


# ---------------------------------------------------------------------------
# Hahn elements
# ---------------------------------------------------------------------------

def _normalize_terms(check, items, point=None) -> Tuple:
    """The one validating path: check each point (coerced by `point` when
    given), coerce each coefficient to Fraction, add up repeated points,
    drop zeros and sort.  Arithmetic on made elements skips all of this."""
    acc: Dict = {}
    for p, c in items:
        check(p)
        if point is not None:
            p = point(p)
        c = Fraction(c)
        if p in acc:
            c += acc[p]
        acc[p] = c
    return _sorted_terms(acc)


def _sorted_terms(acc: Dict) -> Tuple:
    return tuple(sorted(((p, c) for p, c in acc.items() if c), key=itemgetter(0)))


def _merge_terms(xs: Tuple, ys: Tuple, negate: bool = False) -> Tuple:
    """xs + ys, or xs - ys when `negate`, for sorted zero-free term tuples:
    one linear merge.  A point in both keeps its object from xs."""
    out = []
    append = out.append
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        p, c = xs[i]
        q, d = ys[j]
        if p == q:
            s = c - d if negate else c + d
            if s:
                append((p, s))
            i += 1
            j += 1
        elif p < q:
            append(xs[i])
            i += 1
        else:
            append((q, -d) if negate else ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend([(q, -d) for q, d in ys[j:]] if negate else ys[j:])
    return tuple(out)


def _compare_terms(xs: Tuple, ys: Tuple) -> int:
    """Sign of xs - ys for sorted zero-free term tuples: the sign at the
    least point where they differ."""
    for (p, c), (q, d) in zip(xs, ys):
        if p == q:
            if c != d:
                return 1 if c > d else -1
        elif p < q:
            return 1 if c > 0 else -1
        else:
            return -1 if d > 0 else 1
    n, m = len(xs), len(ys)
    if n > m:
        return 1 if xs[m][1] > 0 else -1
    if m > n:
        return -1 if ys[n][1] > 0 else 1
    return 0


@dataclass(frozen=True)
class HahnElement:
    """Finite support, sorted, no zero coefficients."""

    chain: IndexChain
    terms: Tuple[Tuple[object, Fraction], ...]

    @staticmethod
    def make(chain: IndexChain, items: Iterable) -> "HahnElement":
        return HahnElement(chain, _normalize_terms(chain.check, items))

    @staticmethod
    def zero(chain: IndexChain) -> "HahnElement":
        return HahnElement(chain, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return tuple(p for p, _ in self.terms)

    def coeff(self, point) -> Fraction:
        for p, c in self.terms:
            if p == point:
                return c
        return Fraction(0)

    def _require_same_chain(self, other: "HahnElement") -> None:
        if self.chain != other.chain:
            raise DomainError("elements live over different index chains")

    def __add__(self, other: "HahnElement") -> "HahnElement":
        self._require_same_chain(other)
        return HahnElement(self.chain, _merge_terms(self.terms, other.terms))

    def __neg__(self) -> "HahnElement":
        return HahnElement(self.chain, tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: "HahnElement") -> "HahnElement":
        self._require_same_chain(other)
        return HahnElement(self.chain, _merge_terms(self.terms, other.terms, True))

    def scale(self, k) -> "HahnElement":
        k = Fraction(k)
        if k == 0:
            return HahnElement.zero(self.chain)
        return HahnElement(self.chain, tuple((p, k * c) for p, c in self.terms))

    @property
    def is_positive(self) -> bool:
        """Positive iff the coefficient at the least support point is."""
        return bool(self.terms) and self.terms[0][1] > 0

    def compare(self, other: "HahnElement") -> int:
        self._require_same_chain(other)
        return _compare_terms(self.terms, other.terms)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def abs(self) -> "HahnElement":
        return -self if self.terms and self.terms[0][1] < 0 else self

    def __str__(self) -> str:
        body = ", ".join(f"{_render_point(p)}:{c}" for p, c in self.terms)
        return f"hahn(chain={self.chain}" + (f"; {body})" if body else ")")


def _render_point(p) -> str:
    if isinstance(p, tuple):
        return "(" + ",".join(_render_point(q) for q in p) + ")"
    return str(p)


def nat_valuation(a: HahnElement):
    """Least support point; the infinity sentinel for zero."""
    if a.is_zero:
        return INF
    return a.terms[0][0]


def arch_equiv(a: HahnElement, b: HahnElement) -> bool:
    """Archimedean equivalence n|a| >= |b| and n|b| >= |a| for some n,
    decided by the equal-valuation criterion."""
    a._require_same_chain(b)
    va, vb = nat_valuation(a), nat_valuation(b)
    return (va is INF and vb is INF) or (va is not INF and vb is not INF and va == vb)


def arch_witness(a: HahnElement, b: HahnElement) -> Optional[int]:
    """An explicit n with n|a| >= |b| and n|b| >= |a|, when one exists.
    Independent of the valuation criterion: searched from the coefficient
    ratio and verified by exact comparison."""
    if a.is_zero and b.is_zero:
        return 1
    if a.is_zero or b.is_zero:
        return None
    x, y = a.abs(), b.abs()
    ca, cb = x.terms[0][1], y.terms[0][1]
    n = max(1, int(cb / ca) + 1, int(ca / cb) + 1)
    for cand in (n, 2 * n, 4 * n):
        if x.scale(cand) >= y and y.scale(cand) >= x:
            return cand
    return None


# ---------------------------------------------------------------------------
# Ultrametric balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UltraBall:
    """B(a, r) = {g : v(a - g) >= r}; r = inf gives the singleton {a}."""

    center: HahnElement
    radius: object

    @staticmethod
    def spanned_by(a: HahnElement, b: HahnElement) -> "UltraBall":
        a._require_same_chain(b)
        return UltraBall(a, nat_valuation(a - b))

    def member(self, x: HahnElement) -> bool:
        return point_le(self.radius, nat_valuation(self.center - x))

    def contains_ball(self, other: "UltraBall") -> bool:
        return point_le(self.radius, other.radius) and self.member(other.center)


BALL_DISJOINT = "disjoint"
BALL_NESTED_12 = "first-within-second"
BALL_NESTED_21 = "second-within-first"
BALL_EQUAL = "equal"


def ball(a: HahnElement, b: HahnElement) -> UltraBall:
    return UltraBall.spanned_by(a, b)


def ball_compare(b1: UltraBall, b2: UltraBall) -> str:
    """Two balls are disjoint or nested; equality is mutual containment."""
    c12, c21 = b2.contains_ball(b1), b1.contains_ball(b2)
    if c12 and c21:
        return BALL_EQUAL
    if c12:
        return BALL_NESTED_12
    if c21:
        return BALL_NESTED_21
    if b1.member(b2.center) or b2.member(b1.center):
        raise DomainError("balls overlap without nesting; ultrametric law broken")
    return BALL_DISJOINT


# ---------------------------------------------------------------------------
# Power series elements over a concrete exponent group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentGroup:
    """Q^dims with componentwise addition, ordered lexicographically."""

    dims: int

    def check(self, g) -> None:
        if not isinstance(g, tuple) or len(g) != self.dims:
            raise DomainError(f"{_render_point(g)} is not an exponent of lex{self.dims}")
        for q in g:
            if not isinstance(q, (int, Fraction)):
                raise DomainError(f"{_render_point(q)} is not rational")

    def zero(self):
        return tuple(Fraction(0) for _ in range(self.dims))

    def add(self, g, h):
        return tuple(Fraction(x) + Fraction(y) for x, y in zip(g, h))

    def __str__(self) -> str:
        return f"lex{self.dims}"


@dataclass(frozen=True)
class SeriesElement:
    """Finite-support series sum c_g t^g with rational c_g, exponents in a
    concrete ordered abelian group; ordered by the least exponent's sign."""

    group: ExponentGroup
    terms: Tuple[Tuple[tuple, Fraction], ...]

    @staticmethod
    def make(group: ExponentGroup, items: Iterable) -> "SeriesElement":
        return SeriesElement(group, _normalize_terms(
            group.check, items, lambda g: tuple(map(Fraction, g))))

    @staticmethod
    def zero(group: ExponentGroup) -> "SeriesElement":
        return SeriesElement(group, ())

    @staticmethod
    def one(group: ExponentGroup) -> "SeriesElement":
        return SeriesElement.make(group, [(group.zero(), 1)])

    @staticmethod
    def monomial(group: ExponentGroup, g, c=1) -> "SeriesElement":
        return SeriesElement.make(group, [(g, c)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_group(self, other: "SeriesElement") -> None:
        if self.group != other.group:
            raise DomainError("series live over different exponent groups")

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        self._require_same_group(other)
        return SeriesElement(self.group, _merge_terms(self.terms, other.terms))

    def __neg__(self) -> "SeriesElement":
        return SeriesElement(self.group, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        self._require_same_group(other)
        return SeriesElement(self.group, _merge_terms(self.terms, other.terms, True))

    def __mul__(self, other: "SeriesElement") -> "SeriesElement":
        """Products added up over exponents that are already valid
        Fraction tuples, then sorted once."""
        self._require_same_group(other)
        acc: Dict = {}
        for g, c in self.terms:
            for h, d in other.terms:
                k = tuple(map(add, g, h))
                acc[k] = acc[k] + c * d if k in acc else c * d
        return SeriesElement(self.group, _sorted_terms(acc))

    @property
    def is_positive(self) -> bool:
        return bool(self.terms) and self.terms[0][1] > 0

    def compare(self, other: "SeriesElement") -> int:
        self._require_same_group(other)
        return _compare_terms(self.terms, other.terms)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def coeff_at(self, g) -> Fraction:
        for h, c in self.terms:
            if h == g:
                return c
        return Fraction(0)

    def __str__(self) -> str:
        body = ", ".join(f"{_render_point(g)}:{c}" for g, c in self.terms)
        return f"series(exp={self.group}" + (f"; {body})" if body else ")")


def series_valuation(a: SeriesElement):
    """Least exponent; infinity sentinel for zero.  Additive on products."""
    if a.is_zero:
        return INF
    return a.terms[0][0]


def series_mul(a: SeriesElement, b: SeriesElement) -> SeriesElement:
    return a * b


def residue(a: SeriesElement) -> Fraction:
    """Coefficient at exponent zero; defined for elements of the valuation
    ring (v >= 0)."""
    v = series_valuation(a)
    if v is not INF and v < a.group.zero():
        raise DomainError("residue of an element with negative valuation")
    if v is INF:
        return Fraction(0)
    return a.coeff_at(a.group.zero())
