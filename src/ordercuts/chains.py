"""Concrete chains: countable linear orders with decidable comparison.

One class per shape serves both concrete layers.  The ladder oracle walks
a chain by comparison, steps above and below, betweenness, an element
enumeration and its two ends, each stated once as a `WitnessSide`: the
extremal element (cofinality 1) or a strict ladder.  An index chain of
`hahn_concrete` is a chain with `check` and `__str__` whose order on points
is Python's own (`IntChain`, `RatChain`, and `LexChain` over index
chains), so Hahn elements compare their points with `<`; `check` returns a
point in its one stored form, with every rational made canonical by `canon`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple

from .errors import DomainError


def render_point(p) -> str:
    """A point as the CLI writes it: tuples as (a,b), Fractions as p/q."""
    if isinstance(p, tuple):
        return "(" + ",".join(render_point(q) for q in p) + ")"
    return str(p)


def is_exact(v, kinds=(int, Fraction)) -> bool:
    """v is one of `kinds`, exact ints and Fractions by default, not a bool."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def canon(v):
    """The stored form of an exact value: an int when it is integral, a
    Fraction otherwise."""
    return v.numerator if v.denominator == 1 else v


LadderFactory = Callable[[], Iterator]


@dataclass(frozen=True)
class WitnessSide:
    """One end of a chain or one side of a cut: either an extremal element
    (component 1) or a factory of a strict ladder (component aleph(0))."""

    extremal: object = None
    ladder: Optional[LadderFactory] = None

    @staticmethod
    def at(element) -> "WitnessSide":
        return WitnessSide(extremal=element)

    @staticmethod
    def via(factory: LadderFactory) -> "WitnessSide":
        return WitnessSide(ladder=factory)

    def in_part(self, i: int) -> "WitnessSide":
        """The same side moved into part i of a sum chain."""
        if self.extremal is not None:
            return WitnessSide.at((i, self.extremal))
        factory = self.ladder
        return WitnessSide.via(lambda: zip(itertools.repeat(i), factory()))


class ConcreteChain:
    """A countable linear order with decidable comparison, an element
    enumeration, computable betweenness, and its two ends stated once by
    `cofinal` and `coinitial`; `least` and `greatest` derive from them.
    Every shape keeps the contract the method docstrings state, and
    `tests/test_chains.py` checks it on each.

    `homogeneous` claims an order automorphism taking any element to any
    other that commutes with `above`, `below` and `between`."""

    homogeneous = False

    def cmp(self, x, y) -> int:
        """-1, 0 or 1 as x lies below, at or above y: a total order,
        antisymmetric and transitive on the elements."""
        raise NotImplementedError

    def check(self, p):
        """A point of an index chain in its stored form, which `check` returns
        unchanged; other chains refuse every point."""
        raise DomainError(f"{type(self).__name__} is not an index chain")

    def least(self):
        return self.coinitial().extremal

    def greatest(self):
        return self.cofinal().extremal

    def above(self, x):
        """Some element strictly above x, None exactly when x is the greatest.
        It need not be the next one: a lex product moves only its last
        factor that can move, so on fin(3) x fin(2) it takes (0, 1) to
        (1, 1) past (1, 0)."""
        raise NotImplementedError

    def below(self, x):
        """Some element strictly below x, None exactly when x is the least;
        like `above`, not necessarily the next one."""
        raise NotImplementedError

    def between(self, x, y):
        """Some element strictly between x < y, None exactly when no element
        lies between them."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        """Every element once, each after finitely many others; the iterator
        ends exactly when the chain is finite."""
        raise NotImplementedError

    def cofinal(self) -> WitnessSide:
        """The greatest element, or a strictly increasing cofinal ladder."""
        raise NotImplementedError

    def coinitial(self) -> WitnessSide:
        """The least element, or a strictly decreasing coinitial ladder."""
        raise NotImplementedError


def _interleave(*iterators):
    live = list(iterators)
    while live:
        for it in list(live):
            try:
                yield next(it)
            except StopIteration:
                live.remove(it)


@dataclass(frozen=True)
class IntChain(ConcreteChain):
    """The integers in [lo, hi); None leaves that end open.  fin(n) is
    [0, n), omega is [0, None) and Z is [None, None)."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self):
        for end in (self.lo, self.hi):
            if end is not None and not is_exact(end, int):
                raise DomainError(f"integer chain bound {end!r} is not an integer")
        if self.lo is not None and self.hi is not None and self.hi <= self.lo:
            raise DomainError(f"{self} has no points")

    def check(self, p) -> int:
        if not is_exact(p, int) or (self.lo is not None and p < self.lo) \
                or (self.hi is not None and p >= self.hi):
            raise DomainError(f"{render_point(p)} is not a point of {self}")
        return p

    def __str__(self) -> str:
        if self.lo is None and self.hi is None:
            return "int"
        if self.lo == 0 and self.hi is not None:
            return f"fin({self.hi})"
        return f"int[{'' if self.lo is None else self.lo},{'' if self.hi is None else self.hi})"

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def above(self, x):
        return x + 1 if self.hi is None or x + 1 < self.hi else None

    def below(self, x):
        return x - 1 if self.lo is None or x > self.lo else None

    def between(self, x, y):
        return (x + y) // 2 if y - x > 1 else None

    def elements(self):
        if self.lo is not None:
            return iter(range(self.lo, self.hi)) if self.hi is not None \
                else itertools.count(self.lo)
        if self.hi is not None:
            return itertools.count(self.hi - 1, -1)
        return _interleave(itertools.count(0), itertools.count(-1, -1))

    def cofinal(self):
        if self.hi is not None:
            return WitnessSide.at(self.hi - 1)
        start = 0 if self.lo is None else self.lo
        return WitnessSide.via(lambda: itertools.count(start))

    def coinitial(self):
        if self.lo is not None:
            return WitnessSide.at(self.lo)
        start = 0 if self.hi is None else self.hi - 1
        return WitnessSide.via(lambda: itertools.count(start, -1))


def _calkin_wilf():
    yield Fraction(0)
    q = Fraction(1)
    while True:
        yield q
        yield -q
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)


_TWO = Fraction(2)


@dataclass(frozen=True)
class RatChain(ConcreteChain):
    """The rationals; as an index chain its points are ints and Fractions,
    stored by `canon`."""

    # the translation z -> z + (y - x) takes x to y, and commutes with
    # above and below (+-1) and between (the midpoint)
    homogeneous = True

    def check(self, p):
        if not is_exact(p):
            raise DomainError(f"{render_point(p)} is not a point of {self}")
        return canon(p)

    def __str__(self) -> str:
        return "rat"

    def cmp(self, x, y):
        # one cross-multiplication; ints have numerator and denominator too
        d = x.numerator * y.denominator - y.numerator * x.denominator
        return (d > 0) - (d < 0)

    def above(self, x):
        return x + 1

    def below(self, x):
        return x - 1

    def between(self, x, y):
        # divided by a Fraction, so that int points give no float
        return None if x == y else (x + y) / _TWO

    def elements(self):
        return _calkin_wilf()

    def cofinal(self):
        return WitnessSide.via(lambda: (Fraction(n) for n in itertools.count(1)))

    def coinitial(self):
        return WitnessSide.via(lambda: (Fraction(-n) for n in itertools.count(1)))


@dataclass(frozen=True)
class RevChain(ConcreteChain):
    """The same elements in the reverse order."""

    inner: ConcreteChain

    @property
    def homogeneous(self) -> bool:
        return self.inner.homogeneous

    def cmp(self, x, y):
        return -self.inner.cmp(x, y)

    def above(self, x):
        return self.inner.below(x)

    def below(self, x):
        return self.inner.above(x)

    def between(self, x, y):
        return self.inner.between(y, x)

    def elements(self):
        return self.inner.elements()

    def cofinal(self):
        return self.inner.coinitial()

    def coinitial(self):
        return self.inner.cofinal()


@dataclass(frozen=True, init=False)
class SumChain(ConcreteChain):
    """The parts in order; elements are (i, x) with x an element of part i."""

    parts: Tuple[ConcreteChain, ...]

    def __init__(self, *parts: ConcreteChain):
        if len(parts) < 2:
            raise DomainError("a sum chain needs at least two parts")
        object.__setattr__(self, "parts", parts)

    # The first and the last part: the whole chain when there are two.
    # perfbench/tracing.py still walks sums through these two names.
    @property
    def left(self) -> ConcreteChain:
        return self.parts[0]

    @property
    def right(self) -> ConcreteChain:
        return self.parts[-1]

    def cmp(self, x, y):
        i, j = x[0], y[0]
        if i != j:
            return -1 if i < j else 1
        return self.parts[i].cmp(x[1], y[1])

    def _end(self, i, top):
        """The greatest (`top`) or least element of part i, or any element of
        part i when it has none."""
        part = self.parts[i]
        e = part.greatest() if top else part.least()
        return (i, next(iter(part.elements())) if e is None else e)

    def above(self, x):
        i, a = x
        z = self.parts[i].above(a)
        if z is not None:
            return (i, z)
        return self._end(i + 1, False) if i + 1 < len(self.parts) else None

    def below(self, x):
        i, a = x
        z = self.parts[i].below(a)
        if z is not None:
            return (i, z)
        return self._end(i - 1, True) if i > 0 else None

    def between(self, x, y):
        i, j = x[0], y[0]
        if i == j:
            z = self.parts[i].between(x[1], y[1])
            return None if z is None else (i, z)
        z = self.parts[i].above(x[1])
        if z is not None:
            return (i, z)
        w = self.parts[j].below(y[1])
        if w is not None:
            return (j, w)
        return self._end(j - 1, True) if j - i > 1 else None

    def elements(self):
        """Round-robin over the parts, so a prefix of n samples reaches the
        first n parts."""
        return _interleave(*(zip(itertools.repeat(i), part.elements())
                             for i, part in enumerate(self.parts)))

    def cofinal(self):
        return self.parts[-1].cofinal().in_part(len(self.parts) - 1)

    def coinitial(self):
        return self.parts[0].coinitial().in_part(0)


@dataclass(frozen=True)
class LexChain(ConcreteChain):
    """Finite lexicographic product; elements are tuples, leftmost factor
    dominates."""

    factors: Tuple[ConcreteChain, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise DomainError("a lex product needs at least one factor")
        # a rat factor stores its points by `canon`; without one, a point
        # that passes every factor's check is already in its stored form
        object.__setattr__(self, "_rewrites", any(
            isinstance(f, RatChain) or getattr(f, "_rewrites", False)
            for f in self.factors))

    def check(self, p) -> tuple:
        if not isinstance(p, tuple) or len(p) != len(self.factors):
            raise DomainError(f"{render_point(p)} is not a point of {self}")
        if self._rewrites:
            return tuple([fac.check(q) for fac, q in zip(self.factors, p)])
        for fac, q in zip(self.factors, p):
            fac.check(q)
        return p

    def __str__(self) -> str:
        return "lex(" + ",".join(str(f) for f in self.factors) + ")"

    def cmp(self, x, y):
        for fac, a, b in zip(self.factors, x, y):
            c = fac.cmp(a, b)
            if c:
                return c
        return 0

    def _scan(self, p, up, coords):
        """p with the first coordinate j of `coords` that its factor can step
        (up when `up`, else down) stepped, or None when none can."""
        for j in coords:
            fac = self.factors[j]
            z = fac.above(p[j]) if up else fac.below(p[j])
            if z is not None:
                return p[:j] + (z,) + p[j + 1:]
        return None

    def above(self, x):
        return self._scan(x, True, reversed(range(len(self.factors))))

    def below(self, x):
        return self._scan(x, False, reversed(range(len(self.factors))))

    def between(self, x, y):
        for k, fac in enumerate(self.factors):
            if fac.cmp(x[k], y[k]):
                break
        else:
            return None
        z = self.factors[k].between(x[k], y[k])
        if z is not None:
            return x[:k] + (z,) + x[k + 1:]
        later = range(k + 1, len(self.factors))
        return self._scan(x, True, later) or self._scan(y, False, later)

    def elements(self):
        """Shell by shell: shell d holds the index combinations whose largest
        index is d, and is empty once no factor has a (d+1)-th element."""
        gens = [fac.elements() for fac in self.factors]
        caches = [[] for _ in self.factors]
        for d in itertools.count(0):
            for g, c in zip(gens, caches):
                c.extend(itertools.islice(g, d + 1 - len(c)))
            if all(len(c) <= d for c in caches):
                return
            for combo in itertools.product(*(range(min(d + 1, len(c))) for c in caches)):
                if d in combo:
                    yield tuple(c[j] for c, j in zip(caches, combo))

    def _end(self, top):
        """The greatest (`top`) or least elements of the leading factors that
        have one, then the first factor's ladder that has not, padded by first
        elements."""
        head = ()
        for k, fac in enumerate(self.factors):
            end = fac.cofinal() if top else fac.coinitial()
            if end.extremal is None:
                pad = tuple(next(iter(f.elements())) for f in self.factors[k + 1:])
                factory = end.ladder
                return WitnessSide.via(lambda: (head + (x,) + pad for x in factory()))
            head += (end.extremal,)
        return WitnessSide.at(head)

    def cofinal(self):
        return self._end(True)

    def coinitial(self):
        return self._end(False)
