"""Concrete chains: countable linear orders with decidable comparison.

One class per shape serves both concrete layers.  The ladder oracle walks
a chain by comparison, neighbours, betweenness, an element enumeration and
its cofinal and coinitial ends.  An index chain of `hahn_concrete` is a
chain with `check` and `__str__` whose order on points is Python's own
(`IntChain`, `RatChain`, and `LexChain` over index chains), so Hahn
elements compare their points with `<`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .errors import DomainError


def render_point(p) -> str:
    """A point as the CLI writes it: tuples as (a,b), Fractions as p/q."""
    if isinstance(p, tuple):
        return "(" + ",".join(render_point(q) for q in p) + ")"
    return str(p)


class ConcreteChain:
    """A countable linear order with decidable comparison, an element
    enumeration, and computable betweenness."""

    def cmp(self, x, y) -> int:
        raise NotImplementedError

    def least(self):
        return None

    def greatest(self):
        return None

    def above(self, x):
        """Some element strictly above x, or None."""
        raise NotImplementedError

    def below(self, x):
        raise NotImplementedError

    def between(self, x, y):
        """Some element strictly between x < y, or None."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise NotImplementedError

    def cofinal(self):
        """('end', greatest element) or ('ladder', factory of a strictly
        increasing cofinal iterator)."""
        raise NotImplementedError

    def coinitial(self):
        """('end', least element) or ('ladder', factory of a strictly
        decreasing coinitial iterator)."""
        raise NotImplementedError


def _interleave(*iterators):
    live = list(iterators)
    while live:
        nxt = []
        for it in live:
            try:
                yield next(it)
            except StopIteration:
                continue
            nxt.append(it)
        live = nxt


@dataclass(frozen=True)
class IntChain(ConcreteChain):
    """The integers in [lo, hi); None leaves that end open.  fin(n) is
    [0, n), omega is [0, None) and Z is [None, None)."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.hi <= self.lo:
            raise DomainError(f"{self} has no points")

    def check(self, p) -> None:
        if not isinstance(p, int) or (self.lo is not None and p < self.lo) \
                or (self.hi is not None and p >= self.hi):
            raise DomainError(f"{render_point(p)} is not a point of {self}")

    def __str__(self) -> str:
        if self.lo is None and self.hi is None:
            return "int"
        if self.lo == 0 and self.hi is not None:
            return f"fin({self.hi})"
        return f"int[{'' if self.lo is None else self.lo},{'' if self.hi is None else self.hi})"

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def least(self):
        return self.lo

    def greatest(self):
        return None if self.hi is None else self.hi - 1

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
            return ("end", self.hi - 1)
        start = 0 if self.lo is None else self.lo
        return ("ladder", lambda: itertools.count(start))

    def coinitial(self):
        if self.lo is not None:
            return ("end", self.lo)
        start = 0 if self.hi is None else self.hi - 1
        return ("ladder", lambda: itertools.count(start, -1))


def _calkin_wilf():
    yield Fraction(0)
    q = Fraction(1)
    while True:
        yield q
        yield -q
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)


@dataclass(frozen=True)
class RatChain(ConcreteChain):
    """The rationals; as an index chain its points are ints and Fractions."""

    def check(self, p) -> None:
        if not isinstance(p, (int, Fraction)):
            raise DomainError(f"{render_point(p)} is not a point of {self}")

    def __str__(self) -> str:
        return "rat"

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def above(self, x):
        return x + 1

    def below(self, x):
        return x - 1

    def between(self, x, y):
        return (x + y) / 2

    def elements(self):
        return _calkin_wilf()

    def cofinal(self):
        return ("ladder", lambda: (Fraction(n) for n in itertools.count(1)))

    def coinitial(self):
        return ("ladder", lambda: (Fraction(-n) for n in itertools.count(1)))


@dataclass(frozen=True)
class RevChain(ConcreteChain):
    """The same elements in the reverse order."""

    inner: ConcreteChain

    def cmp(self, x, y):
        return -self.inner.cmp(x, y)

    def least(self):
        return self.inner.greatest()

    def greatest(self):
        return self.inner.least()

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


def _in_part(i: int, end):
    """A cofinal or coinitial end of part i, as an end of the sum."""
    kind, payload = end
    if kind == "end":
        return ("end", (i, payload))
    return ("ladder", lambda: zip(itertools.repeat(i), payload()))


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

    def least(self):
        l = self.parts[0].least()
        return None if l is None else (0, l)

    def greatest(self):
        g = self.parts[-1].greatest()
        return None if g is None else (len(self.parts) - 1, g)

    def _bottom(self, i):
        """The least element of part i, or any element when it has none."""
        part = self.parts[i]
        l = part.least()
        return (i, next(iter(part.elements())) if l is None else l)

    def _top(self, i):
        """The greatest element of part i, or any element when it has none."""
        part = self.parts[i]
        g = part.greatest()
        return (i, next(iter(part.elements())) if g is None else g)

    def above(self, x):
        i, a = x
        z = self.parts[i].above(a)
        if z is not None:
            return (i, z)
        return self._bottom(i + 1) if i + 1 < len(self.parts) else None

    def below(self, x):
        i, a = x
        z = self.parts[i].below(a)
        if z is not None:
            return (i, z)
        return self._top(i - 1) if i > 0 else None

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
        return self._top(j - 1) if j - i > 1 else None

    def elements(self):
        """Round-robin over the parts, so a prefix of n samples reaches the
        first n parts."""
        return _interleave(*(zip(itertools.repeat(i), part.elements())
                             for i, part in enumerate(self.parts)))

    def cofinal(self):
        return _in_part(len(self.parts) - 1, self.parts[-1].cofinal())

    def coinitial(self):
        return _in_part(0, self.parts[0].coinitial())


@dataclass(frozen=True)
class LexChain(ConcreteChain):
    """Finite lexicographic product; elements are tuples, leftmost factor
    dominates."""

    factors: Tuple[ConcreteChain, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise DomainError("a lex product needs at least one factor")

    def check(self, p) -> None:
        if not isinstance(p, tuple) or len(p) != len(self.factors):
            raise DomainError(f"{render_point(p)} is not a point of {self}")
        for fac, q in zip(self.factors, p):
            fac.check(q)

    def __str__(self) -> str:
        return "lex(" + ",".join(str(f) for f in self.factors) + ")"

    def _mirror(self) -> "LexChain":
        """The same tuples in the reverse order: the product of the reversed
        factors."""
        return LexChain(tuple(RevChain(f) for f in self.factors))

    def cmp(self, x, y):
        for fac, a, b in zip(self.factors, x, y):
            c = fac.cmp(a, b)
            if c:
                return c
        return 0

    def least(self):
        ends = tuple(fac.least() for fac in self.factors)
        return None if None in ends else ends

    def greatest(self):
        return self._mirror().least()

    def _first(self, i):
        return next(iter(self.factors[i].elements()))

    def above(self, x):
        for j in range(len(self.factors) - 1, -1, -1):
            z = self.factors[j].above(x[j])
            if z is not None:
                return x[:j] + (z,) + x[j + 1:]
        return None

    def below(self, x):
        return self._mirror().above(x)

    def between(self, x, y):
        k = 0
        while self.factors[k].cmp(x[k], y[k]) == 0:
            k += 1
        z = self.factors[k].between(x[k], y[k])
        if z is not None:
            return x[:k] + (z,) + x[k + 1:]
        for j in range(k + 1, len(self.factors)):
            z = self.factors[j].above(x[j])
            if z is not None:
                return x[:j] + (z,) + x[j + 1:]
        for j in range(k + 1, len(self.factors)):
            z = self.factors[j].below(y[j])
            if z is not None:
                return y[:j] + (z,) + y[j + 1:]
        return None

    def elements(self):
        caches = [[] for _ in self.factors]
        gens = [fac.elements() for fac in self.factors]
        done = [False] * len(self.factors)
        for d in itertools.count(0):
            for i, g in enumerate(gens):
                while not done[i] and len(caches[i]) <= d:
                    try:
                        caches[i].append(next(g))
                    except StopIteration:
                        done[i] = True
            if all(done) and all(len(c) <= d for c in caches):
                if d > max(len(c) for c in caches):
                    return
            ranges = [range(min(d + 1, len(c))) for c in caches]
            for combo in itertools.product(*ranges):
                if max(combo) == d:
                    yield tuple(caches[i][j] for i, j in enumerate(combo))

    def cofinal(self):
        head = self.factors[0]
        kind, payload = head.cofinal()
        rest = self.factors[1:]
        if kind == "end":
            if not rest:
                return ("end", (payload,))
            tailkind, tailload = LexChain(rest).cofinal()
            if tailkind == "end":
                return ("end", (payload,) + tailload)
            return ("ladder", lambda: ((payload,) + t for t in tailload()))
        tail = tuple(self._first(i) for i in range(1, len(self.factors)))
        return ("ladder", lambda: ((x,) + tail for x in payload()))

    def coinitial(self):
        return self._mirror().cofinal()
