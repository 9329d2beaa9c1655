"""Executable finite-support Hahn sums and power-series arithmetic.

Elements are finite maps from an index chain of `chains` into exact
rationals, ordered lexicographically by the least support point (the Krull
convention: a large valuation means a small element).  A power series is a
Hahn element whose index chain is an exponent group.  This grounds the
symbolic layer's vocabulary: natural valuation, archimedean equivalence,
ultrametric balls, and the value-additive series product.  `law_failures`
checks these laws on random elements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter
from typing import Dict, Iterable, Optional, Tuple, Union

from .chains import IntChain, LexChain, RatChain, canon, is_exact, render_point
from .errors import DomainError


# ---------------------------------------------------------------------------
# Index chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentGroup:
    """Q^dims with componentwise addition, ordered lexicographically: an
    index chain that is also a group, so its Hahn elements are power series
    and multiply."""

    dims: int

    def __post_init__(self):
        if not is_exact(self.dims, int) or self.dims < 0:
            raise DomainError(f"exponent group dimension {self.dims!r} "
                              "is not an int >= 0")

    def check(self, g) -> tuple:
        if not isinstance(g, tuple) or len(g) != self.dims:
            raise DomainError(f"{render_point(g)} is not an exponent of lex{self.dims}")
        for q in g:
            if not is_exact(q):
                raise DomainError(f"{render_point(q)} is not rational")
        return tuple(map(canon, g))

    def zero(self):
        return (0,) * self.dims

    def add(self, g, h):
        return tuple(map(add, g, h))

    def __str__(self) -> str:
        return f"lex{self.dims}"


IndexChain = Union[IntChain, RatChain, LexChain, ExponentGroup]

INT_CHAIN = IntChain()
RAT_CHAIN = RatChain()

# Names of the index chains before they merged with the oracle's chains;
# perfbench resolves them.  `FinitePoints` is a function so that tracing
# wraps `IntChain.check` once, through `IntegerPoints`.
IntegerPoints = IntChain
RationalPoints = RatChain
LexPoints = LexChain


def FinitePoints(size: int) -> IntChain:
    return IntChain(0, size)


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

def _require_index_chain(chain) -> None:
    """Refuse a chain that cannot check points, by its shape, so that an
    element with no points is refused as one with points would be.  A lex
    factor is an integer or a rational chain: a nested product is the flat
    one with its factors in order."""
    if isinstance(chain, LexChain):
        for factor in chain.factors:
            if not isinstance(factor, (IntChain, RatChain)):
                name = type(factor).__name__
                raise DomainError(f"a lex factor is an IntChain or a RatChain, not {name}"
                                  if isinstance(factor, (LexChain, ExponentGroup))
                                  else f"{name} is not an index chain")
    elif not isinstance(chain, (IntChain, RatChain, ExponentGroup)):
        raise DomainError(f"{type(chain).__name__} is not an index chain")


_point_of = itemgetter(0)


def _normalize_terms(check, items) -> Tuple:
    """The one validating path: item by item, check the point and keep the
    stored form `check` returns, then accept the coefficient only as an int
    (not a bool) or a Fraction.  The checked terms are sorted by point
    (stably, so a repeated point keeps its first stored form), each run of
    equal points is added up and canonicalized once, and zero sums are
    dropped; sorting compares points where a dict would hash each rat
    point's Fraction in Python.
    Arithmetic on made elements skips all of this."""
    terms = []
    for p, c in items:
        p = check(p)
        if not is_exact(c):
            raise DomainError(f"coefficient {c!r} is not an int or a Fraction")
        terms.append((p, c))
    terms.sort(key=_point_of)
    out = []
    q = s = None
    for p, c in terms:
        if p == q:
            s += c
            continue
        if s:
            out.append((q, canon(s)))
        q, s = p, c
    if s:
        out.append((q, canon(s)))
    return tuple(out)


def _merge_terms(xs: Tuple, ys: Tuple, negate: bool = False) -> Tuple:
    """xs + ys, or xs - ys when `negate`, for sorted zero-free term tuples.
    Each term of ys is placed in the rest of xs by bisection and the run of
    xs before it is copied as one slice, so a short ys costs about
    len(ys) * log(len(xs)) point compares (Hwang and Lin's binary merge).
    Only the combined coefficients need canonicalizing."""
    out = []
    i, n = 0, len(xs)
    for t in ys:
        q = t[0]
        j = bisect_left(xs, q, i, n, key=_point_of)
        out += xs[i:j]
        if j < n and xs[j][0] == q:
            p, c = xs[j]
            s = canon(c - t[1] if negate else c + t[1])
            if s:
                out.append((p, s))
            j += 1
        else:
            out.append((q, -t[1]) if negate else t)
        i = j
    out += xs[i:]
    return tuple(out)


def _scaled(terms: Tuple, den: int) -> list:
    """Series terms with each exponent component q as the int q * den, for
    a den that every component's denominator divides."""
    return [(tuple([q.numerator * (den // q.denominator) for q in g]), c)
            for g, c in terms]


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
    """Finite support, sorted, no zero coefficients.  Over an exponent group
    the element is a power series sum c_g t^g and has a product."""

    chain: IndexChain
    terms: Tuple[Tuple[object, Union[int, Fraction]], ...]

    @staticmethod
    def make(chain: IndexChain, items: Iterable) -> "HahnElement":
        _require_index_chain(chain)
        return HahnElement(chain, _normalize_terms(chain.check, items))

    @staticmethod
    def zero(chain: IndexChain) -> "HahnElement":
        _require_index_chain(chain)
        return HahnElement(chain, ())

    @staticmethod
    def one(group: ExponentGroup) -> "HahnElement":
        return HahnElement.make(group, [(group.zero(), 1)])

    @staticmethod
    def monomial(chain: IndexChain, p, c=1) -> "HahnElement":
        return HahnElement.make(chain, [(p, c)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return tuple(p for p, _ in self.terms)

    def coeff(self, point) -> Union[int, Fraction]:
        for p, c in self.terms:
            if p == point:
                return c
        return 0

    def _require_same_chain(self, other: "HahnElement") -> None:
        if self.chain is not other.chain and self.chain != other.chain:
            raise DomainError("elements live over different index chains")

    def _require_series(self, what: str) -> None:
        if not isinstance(self.chain, ExponentGroup):
            raise DomainError(f"elements over {self.chain} have no {what}; "
                              "only series over an exponent group do")

    def __add__(self, other: "HahnElement") -> "HahnElement":
        self._require_same_chain(other)
        return HahnElement(self.chain, _merge_terms(self.terms, other.terms))

    def __neg__(self) -> "HahnElement":
        return HahnElement(self.chain, tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: "HahnElement") -> "HahnElement":
        self._require_same_chain(other)
        return HahnElement(self.chain, _merge_terms(self.terms, other.terms, True))

    def __mul__(self, other: "HahnElement") -> "HahnElement":
        """The series product on integer-scaled exponents.  With D the lcm
        of the denominators of every exponent component of both operands,
        each exponent g maps to the int tuple D*g, so each pair of terms
        costs an int-tuple add and one dict update with an int-tuple hash.
        The nonzero sums are sorted by their int keys (the same order, as
        D > 0), and each distinct int component x is mapped back once to the
        canonical x/D.  When D is 1 the exponents are int tuples already."""
        self._require_series("product")
        self._require_same_chain(other)
        xs, ys = self.terms, other.terms
        den = lcm(*{q.denominator for t in (xs, ys) for g, _ in t for q in g})
        if den != 1:
            xs, ys = _scaled(xs, den), _scaled(ys, den)
        acc: Dict = {}
        get = acc.get
        for g, c in xs:
            for h, d in ys:
                k = tuple(map(add, g, h))
                acc[k] = get(k, 0) + c * d
        terms = sorted([(k, canon(c)) for k, c in acc.items() if c], key=_point_of)
        if den != 1:
            back = {x: canon(Fraction(x, den))
                    for x in {x for k, _ in terms for x in k}}.__getitem__
            terms = [(tuple(map(back, k)), c) for k, c in terms]
        return HahnElement(self.chain, tuple(terms))

    def scale(self, k) -> "HahnElement":
        if not is_exact(k):
            raise DomainError(f"scalar {k!r} is not an int or a Fraction")
        if k == 0:
            return HahnElement.zero(self.chain)
        return HahnElement(self.chain, tuple((p, canon(k * c)) for p, c in self.terms))

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
        body = ", ".join(f"{render_point(p)}:{c}" for p, c in self.terms)
        head = (f"series(exp={self.chain}" if isinstance(self.chain, ExponentGroup)
                else f"hahn(chain={self.chain}")
        return head + (f"; {body})" if body else ")")


# the power-series name of the one element type
SeriesElement = HahnElement


def nat_valuation(a: HahnElement):
    """Least support point; the infinity sentinel for zero."""
    if a.is_zero:
        return INF
    return a.terms[0][0]


def arch_equiv(a: HahnElement, b: HahnElement) -> bool:
    """Archimedean equivalence n|a| >= |b| and n|b| >= |a| for some n,
    decided by the equal-valuation criterion."""
    a._require_same_chain(b)
    return nat_valuation(a) == nat_valuation(b)


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
    n = max(1, cb // ca + 1, ca // cb + 1)
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

    def member(self, x: HahnElement) -> bool:
        return point_le(self.radius, nat_valuation(self.center - x))

    def contains_ball(self, other: "UltraBall") -> bool:
        return point_le(self.radius, other.radius) and self.member(other.center)


BALL_DISJOINT = "disjoint"
BALL_NESTED_12 = "first-within-second"
BALL_NESTED_21 = "second-within-first"
BALL_EQUAL = "equal"


def ball(a: HahnElement, b: HahnElement) -> UltraBall:
    """The least ball around `a` that holds `b`: B(a, v(a - b))."""
    a._require_same_chain(b)
    return UltraBall(a, nat_valuation(a - b))


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
# Power series
# ---------------------------------------------------------------------------

series_valuation = nat_valuation


def residue(a: HahnElement) -> Union[int, Fraction]:
    """Coefficient at exponent zero; defined for elements of the valuation
    ring (v >= 0) of a series."""
    a._require_series("residue")
    zero = a.chain.zero()
    v = nat_valuation(a)
    if v is INF:
        return 0
    if v < zero:
        raise DomainError("residue of an element with negative valuation")
    return a.coeff(zero)


# ---------------------------------------------------------------------------
# Law suite
# ---------------------------------------------------------------------------

def _law_point(rng, chain: IndexChain):
    if isinstance(chain, IntChain):
        # up to 13 integers inside the chain: [-6, 6] on Z, else from a closed end
        lo = chain.lo if chain.lo is not None else -6 if chain.hi is None else chain.hi - 13
        hi = lo + 12 if chain.hi is None else min(lo + 12, chain.hi - 1)
        return rng.randint(lo, hi)
    if isinstance(chain, RatChain):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if isinstance(chain, ExponentGroup):
        return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                     for _ in range(chain.dims))
    return tuple(_law_point(rng, f) for f in chain.factors)


def _law_elem(rng, chain: IndexChain, nonzero: bool = False) -> HahnElement:
    items = [(_law_point(rng, chain), rng.randint(-4, 4))
             for _ in range(rng.randint(1 if nonzero else 0, 3))]
    out = HahnElement.make(chain, items)
    if nonzero and out.is_zero:
        return HahnElement.make(chain, [(_law_point(rng, chain), 1)])
    return out


def law_failures(chain: IndexChain, cases: int, rng) -> list:
    """Check the concrete Hahn laws on `cases` random draws from `rng` per
    law and return the failures as (law, case index) pairs.

    Over an exponent group: the product of zero is zero, the valuation is
    additive on products, and a product of positives is positive.  Over the
    int and rat chains and their lex products: the ultrametric inequality
    with its equality refinement, order compatibility of the valuation, the
    archimedean criterion against the valuation and an explicit witness
    search, and that balls hold their spanning points, are centred at each
    member, and are closed under the coset operations.  A budget below one
    case is refused, since it would pass without checking anything."""
    if cases < 1:
        raise DomainError(f"the law suite needs at least 1 case per law, not {cases!r}")
    failures = []
    if isinstance(chain, ExponentGroup):
        for i in range(cases):
            a, b = _law_elem(rng, chain), _law_elem(rng, chain)
            ab = a * b
            if a.is_zero or b.is_zero:
                if not ab.is_zero:
                    failures.append(("zero-product", i))
                continue
            if nat_valuation(ab) != chain.add(nat_valuation(a), nat_valuation(b)):
                failures.append(("series-valuation", i))
            if a.is_positive and b.is_positive and not ab.is_positive:
                failures.append(("series-sign", i))
        return failures

    for i in range(cases):
        a, b = _law_elem(rng, chain), _law_elem(rng, chain)
        va, vb, vd = nat_valuation(a), nat_valuation(b), nat_valuation(a - b)
        low = va if point_le(va, vb) else vb
        if not point_le(low, vd):
            failures.append(("ultrametric", i))
        if va != vb and vd != low:
            failures.append(("ultrametric-equality", i))
    # 0 <= lo <= hi  =>  v(lo) >= v(hi)
    for i in range(cases):
        x, y = _law_elem(rng, chain).abs(), _law_elem(rng, chain).abs()
        lo, hi = (x, y) if x <= y else (y, x)
        if not point_le(nat_valuation(hi), nat_valuation(lo)):
            failures.append(("order-compat", i))
    for i in range(cases):
        a = _law_elem(rng, chain, nonzero=True)
        b = _law_elem(rng, chain, nonzero=True)
        crit = arch_equiv(a, b)
        if crit != (nat_valuation(a) == nat_valuation(b)):
            failures.append(("archimedean-criterion", i))
        if crit != (arch_witness(a, b) is not None):
            failures.append(("archimedean-witness", i))
    for i in range(cases):
        a, b = _law_elem(rng, chain), _law_elem(rng, chain)
        B = ball(a, b)
        if not (B.member(a) and B.member(b)):
            failures.append(("ball-span", i))
        bump = HahnElement.make(chain, [(_law_point(rng, chain), rng.randint(-3, 3))])
        x = B.center + bump if point_le(B.radius, nat_valuation(bump)) else B.center
        if ball_compare(ball(x, b), B) not in (BALL_EQUAL, BALL_NESTED_12):
            failures.append(("ball-center", i))
        u, v = x - a, b - a
        if not (B.member(a + u + v) and B.member(a - u)):
            failures.append(("ball-coset", i))
    return failures
