"""Witness-based verification of spectrum claims on countable orders.

Concrete chains re-derive, by explicit ladders, what the symbolic layer
claims about the countable fragment: a cut witness is a strictly increasing
lower ladder and strictly decreasing upper ladder (or extremal elements for
the `1` components), checked for monotonicity, separation, and frontier
convergence up to a depth.  Sampled cut generation hunts for pairs the
symbolic claim would have missed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .cardinals import ALEPH0, ALEPH1, Card, CofPair, ONE
from .errors import DomainError
from .order_terms import (
    Atom,
    FiniteChain,
    OrderTerm,
    Rev,
    Sum,
    WellOrder,
    cf,
    ci,
    cut_spectrum,
    sum_parts,
)

PROBE_PULLS = 8


# ---------------------------------------------------------------------------
# Concrete countable chains
# ---------------------------------------------------------------------------

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
        """('max', element) or ('ladder', factory of a strictly increasing
        cofinal iterator)."""
        raise NotImplementedError

    def coinitial(self):
        raise NotImplementedError


@dataclass(frozen=True)
class FinChain(ConcreteChain):
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DomainError("finite chains here have at least one point")

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def least(self):
        return 0

    def greatest(self):
        return self.size - 1

    def above(self, x):
        return x + 1 if x + 1 < self.size else None

    def below(self, x):
        return x - 1 if x > 0 else None

    def between(self, x, y):
        return (x + y) // 2 if y - x > 1 else None

    def elements(self):
        return iter(range(self.size))

    def cofinal(self):
        return ("max", self.size - 1)

    def coinitial(self):
        return ("min", 0)


@dataclass(frozen=True)
class NatChain(ConcreteChain):
    def cmp(self, x, y):
        return (x > y) - (x < y)

    def least(self):
        return 0

    def above(self, x):
        return x + 1

    def below(self, x):
        return x - 1 if x > 0 else None

    def between(self, x, y):
        return (x + y) // 2 if y - x > 1 else None

    def elements(self):
        return itertools.count(0)

    def cofinal(self):
        return ("ladder", lambda: itertools.count(0))

    def coinitial(self):
        return ("min", 0)


def _calkin_wilf():
    yield Fraction(0)
    q = Fraction(1)
    while True:
        yield q
        yield -q
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)


@dataclass(frozen=True)
class RatChain(ConcreteChain):
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
        kind, payload = self.inner.coinitial()
        return ("max", payload) if kind == "min" else ("ladder", payload)

    def coinitial(self):
        kind, payload = self.inner.cofinal()
        return ("min", payload) if kind == "max" else ("ladder", payload)


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
        last = len(self.parts) - 1
        kind, payload = self.parts[last].cofinal()
        if kind == "max":
            return ("max", (last, payload))
        return ("ladder", lambda: zip(itertools.repeat(last), payload()))

    def coinitial(self):
        kind, payload = self.parts[0].coinitial()
        if kind == "min":
            return ("min", (0, payload))
        return ("ladder", lambda: zip(itertools.repeat(0), payload()))


@dataclass(frozen=True)
class LexChain(ConcreteChain):
    """Finite lexicographic product; elements are tuples, leftmost factor
    dominates."""

    factors: Tuple[ConcreteChain, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise DomainError("a lex product needs at least one factor")

    def cmp(self, x, y):
        for fac, a, b in zip(self.factors, x, y):
            c = fac.cmp(a, b)
            if c:
                return c
        return 0

    def least(self):
        out = []
        for fac in self.factors:
            l = fac.least()
            if l is None:
                return None
            out.append(l)
        return tuple(out)

    def greatest(self):
        out = []
        for fac in self.factors:
            g = fac.greatest()
            if g is None:
                return None
            out.append(g)
        return tuple(out)

    def _first(self, i):
        return next(iter(self.factors[i].elements()))

    def above(self, x):
        for j in range(len(self.factors) - 1, -1, -1):
            z = self.factors[j].above(x[j])
            if z is not None:
                return x[:j] + (z,) + x[j + 1:]
        return None

    def below(self, x):
        for j in range(len(self.factors) - 1, -1, -1):
            z = self.factors[j].below(x[j])
            if z is not None:
                return x[:j] + (z,) + x[j + 1:]
        return None

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
        if kind == "max":
            if not rest:
                return ("max", (payload,))
            tailkind, tailload = LexChain(rest).cofinal()
            if tailkind == "max":
                return ("max", (payload,) + tailload)
            return ("ladder", lambda: ((payload,) + t for t in tailload()))
        tail = tuple(self._first(i) for i in range(1, len(self.factors)))
        return ("ladder", lambda: ((x,) + tail for x in payload()))

    def coinitial(self):
        head = self.factors[0]
        kind, payload = head.coinitial()
        rest = self.factors[1:]
        if kind == "min":
            if not rest:
                return ("min", (payload,))
            tailkind, tailload = LexChain(rest).coinitial()
            if tailkind == "min":
                return ("min", (payload,) + tailload)
            return ("ladder", lambda: ((payload,) + t for t in tailload()))
        tail = tuple(self._first(i) for i in range(1, len(self.factors)))
        return ("ladder", lambda: ((x,) + tail for x in payload()))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

LadderFactory = Callable[[], Iterator]


@dataclass(frozen=True)
class WitnessSide:
    """Either an extremal element (component 1) or a strict ladder."""

    extremal: object = None
    ladder: Optional[LadderFactory] = None

    @staticmethod
    def at(element) -> "WitnessSide":
        return WitnessSide(extremal=element)

    @staticmethod
    def via(factory: LadderFactory) -> "WitnessSide":
        return WitnessSide(ladder=factory)


@dataclass(frozen=True)
class CutWitness:
    name: str
    lower: WitnessSide
    upper: WitnessSide
    claim: CofPair


@dataclass(frozen=True)
class WitnessResult:
    ok: bool
    reason: str = ""


def _materialize(side: WitnessSide, depth: int, direction: int,
                 chain: ConcreteChain, label: str):
    """Entries of a ladder side (strictly monotone, `direction` +1 rising),
    or the single extremal entry."""
    if side.extremal is not None:
        return [side.extremal], None
    walker = side.ladder()
    entries = []
    for i in range(depth):
        try:
            nxt = next(walker)
        except StopIteration:
            return entries, f"{label} ladder exhausted at index {i}"
        if entries and chain.cmp(nxt, entries[-1]) != direction:
            return entries, f"{label} ladder not strictly monotone at index {i}"
        entries.append(nxt)
    return entries, None


def verify_witness(chain: ConcreteChain, w: CutWitness,
                   depth: int = 100) -> WitnessResult:
    """Monotonicity, separation, the 1-vs-aleph0 tags, and frontier
    convergence: every probe strictly inside the frontier must be swallowed
    by a bounded number of further ladder steps."""
    for comp, side, what in ((w.claim.left, w.lower, "lower"),
                             (w.claim.right, w.upper, "upper")):
        if comp not in (ONE, ALEPH0):
            return WitnessResult(False, f"claim component {comp} is not finitely checkable")
        if comp.is_one and side.extremal is None:
            return WitnessResult(False, f"claim 1 needs an extremal {what} element")
        if comp == ALEPH0 and side.ladder is None:
            return WitnessResult(False, f"claim aleph(0) needs a {what} ladder")

    lower, err = _materialize(w.lower, depth, +1, chain, "lower")
    if err:
        return WitnessResult(False, err)
    upper, err = _materialize(w.upper, depth, -1, chain, "upper")
    if err:
        return WitnessResult(False, err)

    lo_iter = w.lower.ladder() if w.lower.ladder else None
    hi_iter = w.upper.ladder() if w.upper.ladder else None
    if lo_iter:
        for _ in range(len(lower)):
            next(lo_iter)
    if hi_iter:
        for _ in range(len(upper)):
            next(hi_iter)

    d_top, e_bot = lower[-1], upper[-1]
    if chain.cmp(d_top, e_bot) >= 0:
        return WitnessResult(False, "ladders are not separated")

    for _round in range(depth):
        probe = chain.between(d_top, e_bot)
        if probe is None:
            if lo_iter is None and hi_iter is None:
                break
            # an adjacent frontier realizes the cut: D would have a maximum
            # or E a minimum, refuting the aleph(0) side
            return WitnessResult(False,
                                 "frontier became adjacent; an aleph(0) claim is refuted")
        covered = False
        if lo_iter is not None:
            for _ in range(PROBE_PULLS):
                if chain.cmp(d_top, probe) >= 0:
                    break
                try:
                    nxt = next(lo_iter)
                except StopIteration:
                    return WitnessResult(False, "lower ladder exhausted while converging")
                if chain.cmp(nxt, d_top) != 1:
                    return WitnessResult(False, "lower ladder not strictly monotone")
                d_top = nxt
            covered = chain.cmp(d_top, probe) >= 0
        if not covered and hi_iter is not None:
            for _ in range(PROBE_PULLS):
                if chain.cmp(e_bot, probe) <= 0:
                    break
                try:
                    nxt = next(hi_iter)
                except StopIteration:
                    return WitnessResult(False, "upper ladder exhausted while converging")
                if chain.cmp(nxt, e_bot) != -1:
                    return WitnessResult(False, "upper ladder not strictly monotone")
                e_bot = nxt
            covered = chain.cmp(e_bot, probe) <= 0
        if chain.cmp(d_top, e_bot) >= 0:
            return WitnessResult(False, "ladders crossed while converging")
        if not covered:
            return WitnessResult(False,
                                 f"element {probe!r} between the ladders is never captured")
    return WitnessResult(True)


# ---------------------------------------------------------------------------
# Concretization of the countable term fragment
# ---------------------------------------------------------------------------

RAT_ATOM_NAMES = ("rat", "q", "rationals")


def concretize(t: OrderTerm) -> ConcreteChain:
    if isinstance(t, FiniteChain):
        return FinChain(t.size)
    if isinstance(t, WellOrder):
        if t.kappa != ALEPH0:
            raise DomainError(f"{t} is uncountable; only well(aleph(0)) concretizes")
        return NatChain()
    if isinstance(t, Rev):
        return RevChain(concretize(t.inner))
    if isinstance(t, Sum):
        return SumChain(*(concretize(p) for p in sum_parts(t)))
    if isinstance(t, Atom):
        if t.name.lower() in RAT_ATOM_NAMES:
            return RatChain()
        raise DomainError(f"atom {t.name} has no concrete model")
    raise DomainError(f"{t} is not in the concretizable countable fragment")


# ---------------------------------------------------------------------------
# Witness construction following the proofs' ladder recipes
# ---------------------------------------------------------------------------

def _tag_side(side: WitnessSide, i: int) -> WitnessSide:
    """The side moved into part i of a sum chain."""
    if side.extremal is not None:
        return WitnessSide.at((i, side.extremal))
    factory = side.ladder
    return WitnessSide.via(lambda: zip(itertools.repeat(i), factory()))


def _cofinal_side(chain: ConcreteChain) -> WitnessSide:
    kind, payload = chain.cofinal()
    if kind == "max":
        return WitnessSide.at(payload)
    return WitnessSide.via(payload)


def _coinitial_side(chain: ConcreteChain) -> WitnessSide:
    kind, payload = chain.coinitial()
    if kind == "min":
        return WitnessSide.at(payload)
    return WitnessSide.via(payload)


def _sqrt2_lower():
    lo, hi = Fraction(1), Fraction(2)
    while True:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
            yield lo
        else:
            hi = mid


def _sqrt2_upper():
    lo, hi = Fraction(1), Fraction(2)
    yield hi
    while True:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
            yield hi


def _rat_witnesses():
    zero = Fraction(0)
    return [
        (CofPair(ONE, ALEPH0),
         CutWitness("rat-principal-above-0", WitnessSide.at(zero),
                    WitnessSide.via(lambda: (Fraction(1, 2 ** n)
                                             for n in itertools.count(0))),
                    CofPair(ONE, ALEPH0))),
        (CofPair(ALEPH0, ONE),
         CutWitness("rat-principal-below-0",
                    WitnessSide.via(lambda: (Fraction(-1, 2 ** n)
                                             for n in itertools.count(0))),
                    WitnessSide.at(zero), CofPair(ALEPH0, ONE))),
        (CofPair(ALEPH0, ALEPH0),
         CutWitness("rat-sqrt2-gap", WitnessSide.via(_sqrt2_lower),
                    WitnessSide.via(_sqrt2_upper), CofPair(ALEPH0, ALEPH0))),
    ]


def term_witnesses(t: OrderTerm):
    """(pair, witness) list covering every claimed pair of the countable
    fragment: extremal neighbours inside discrete pieces, cofinal and
    coinitial ladders at sum boundaries, bisection ladders at dense gaps.
    Witnesses of a sum address the flat parts of `concretize(t)` and are
    named by their path in the binary `Sum` tree."""
    if isinstance(t, Sum):
        out = []
        _sum_witnesses(t, concretize(t).parts, "", 0, out)
        return out
    if isinstance(t, FiniteChain):
        if t.size < 2:
            return []
        return [(CofPair(ONE, ONE),
                 CutWitness("finite-step", WitnessSide.at(0), WitnessSide.at(1),
                            CofPair(ONE, ONE)))]
    if isinstance(t, WellOrder):
        return [(CofPair(ONE, ONE),
                 CutWitness("well-step", WitnessSide.at(0), WitnessSide.at(1),
                            CofPair(ONE, ONE)))]
    if isinstance(t, Rev):
        out = []
        for pair, w in term_witnesses(t.inner):
            out.append((pair.mirrored(),
                        CutWitness(f"rev({w.name})", w.upper, w.lower,
                                   pair.mirrored())))
        return out
    if isinstance(t, Atom) and t.name.lower() in RAT_ATOM_NAMES:
        return _rat_witnesses()
    raise DomainError(f"no witness recipe for {t}")


def _sum_witnesses(t: OrderTerm, parts, prefix: str, first: int, out) -> int:
    """Append the witnesses of the subterm t of a sum, whose parts start at
    flat index `first`, with names under `prefix`; return its part count."""
    if not isinstance(t, Sum):
        for pair, w in term_witnesses(t):
            out.append((pair, CutWitness(prefix + w.name,
                                         _tag_side(w.lower, first),
                                         _tag_side(w.upper, first), pair)))
        return 1
    n_left = _sum_witnesses(t.left, parts, prefix + "left:", first, out)
    n_right = _sum_witnesses(t.right, parts, prefix + "right:", first + n_left, out)
    joint = first + n_left
    boundary = CofPair(cf(t.left), ci(t.right))
    out.append((boundary,
                CutWitness(prefix + "sum-boundary",
                           _tag_side(_cofinal_side(parts[joint - 1]), joint - 1),
                           _tag_side(_coinitial_side(parts[joint]), joint),
                           boundary)))
    return n_left + n_right


# ---------------------------------------------------------------------------
# Sampled cut generation
# ---------------------------------------------------------------------------

def _descend_to(chain: ConcreteChain, floor, start, depth: int) -> Card:
    """Coinitiality tag of {z : z > floor} explored from start: 1 when an
    immediate successor shows up, aleph(0) when the descent survives."""
    cur = start
    for _ in range(depth):
        nxt = chain.between(floor, cur)
        if nxt is None:
            return ONE
        cur = nxt
    return ALEPH0


def _ascend_to(chain: ConcreteChain, ceil, start, depth: int) -> Card:
    cur = start
    for _ in range(depth):
        nxt = chain.between(cur, ceil)
        if nxt is None:
            return ONE
        cur = nxt
    return ALEPH0


def _ladder_tag(kind_payload, chain: ConcreteChain, depth: int,
                direction: int) -> Card:
    kind, payload = kind_payload
    if kind in ("max", "min"):
        return ONE
    walker = payload()
    prev = next(walker)
    for _ in range(depth):
        cur = next(walker)
        if chain.cmp(cur, prev) != direction:
            raise DomainError("structural ladder is not strictly monotone")
        prev = cur
    return ALEPH0


def derive_cf(chain: ConcreteChain, depth: int = 100) -> Card:
    """Cofinality re-derived by ladder search: 1 or aleph(0)-to-depth."""
    return _ladder_tag(chain.cofinal(), chain, depth, +1)


def derive_ci(chain: ConcreteChain, depth: int = 100) -> Card:
    return _ladder_tag(chain.coinitial(), chain, depth, -1)


def sample_cuts(chain: ConcreteChain, depth: int = 100,
                samples: int = 60) -> frozenset:
    """Cofinality pairs of sampled cuts: principal cuts at enumerated
    elements plus the nonprincipal boundary cuts at sum joints."""
    pairs = set()
    for x in itertools.islice(chain.elements(), samples):
        e0 = chain.above(x)
        if e0 is not None:
            pairs.add(CofPair(ONE, _descend_to(chain, x, e0, depth)))
        d0 = chain.below(x)
        if d0 is not None:
            pairs.add(CofPair(_ascend_to(chain, x, d0, depth), ONE))
    pairs.update(_joint_pairs(chain, depth))
    return frozenset(pairs)


def _joint_pairs(chain: ConcreteChain, depth: int) -> frozenset:
    pairs = set()
    if isinstance(chain, SumChain):
        # a sum repeats a few part kinds: walk each distinct part's ladders once
        distinct = set(chain.parts)
        cf_tag = {p: derive_cf(p, depth) for p in distinct}
        ci_tag = {p: derive_ci(p, depth) for p in distinct}
        for left, right in zip(chain.parts, chain.parts[1:]):
            pairs.add(CofPair(cf_tag[left], ci_tag[right]))
        for part in distinct:
            pairs.update(_joint_pairs(part, depth))
    elif isinstance(chain, RevChain):
        pairs.update(p.mirrored() for p in _joint_pairs(chain.inner, depth))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Soundness report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRow:
    pair: CofPair
    witness: str
    depth: int
    ok: bool
    reason: str = ""

    def render(self) -> str:
        verdict = "pass" if self.ok else "fail"
        return f"pair={self.pair} witness={self.witness} depth={self.depth} verdict={verdict}"


@dataclass(frozen=True)
class OracleReport:
    term: str
    rows: Tuple[WitnessRow, ...]
    unwitnessed: Tuple[CofPair, ...]
    unclaimed: Tuple[CofPair, ...]
    note: str = ("completeness of the claim is checked by sampled cut "
                 "generation only")

    @property
    def ok(self) -> bool:
        return not self.unwitnessed and not self.unclaimed and \
            all(r.ok for r in self.rows)

    def render_lines(self) -> List[str]:
        lines = [r.render() for r in self.rows]
        for p in self.unwitnessed:
            lines.append(f"pair={p} witness=missing depth=- verdict=fail")
        for p in self.unclaimed:
            lines.append(f"pair={p} witness=sampled-but-unclaimed depth=- verdict=fail")
        return lines


def spectrum_soundness(t: OrderTerm, depth: int = 100) -> OracleReport:
    """Verify every claimed countable pair by an explicit witness and hunt
    for sampled pairs missing from the claim."""
    if depth < 1:
        raise DomainError(f"witness depth must be at least 1, got {depth}")
    chain = concretize(t)
    claimed = cut_spectrum(t).pairs_below(ALEPH1)
    rows = []
    passed = set()
    for pair, witness in term_witnesses(t):
        result = verify_witness(chain, witness, depth)
        rows.append(WitnessRow(pair, witness.name, depth, result.ok, result.reason))
        if result.ok:
            passed.add(pair)
    unwitnessed = tuple(sorted(p for p in claimed if p not in passed))
    sampled = sample_cuts(chain, depth)
    unclaimed = tuple(sorted(p for p in sampled if p not in claimed))
    stray = tuple(sorted(p for p in passed if p not in claimed))
    return OracleReport(str(t), tuple(rows), unwitnessed, unclaimed + stray)
