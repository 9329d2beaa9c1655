"""Witness-based verification of spectrum claims on countable orders.

The concrete chains of `chains` re-derive, by explicit ladders, what the
symbolic layer claims about the countable fragment: a cut witness is a
strictly increasing lower ladder and strictly decreasing upper ladder (or
extremal elements for the `1` components), checked for monotonicity,
separation, and frontier convergence up to a depth.  Sampled cut
generation hunts for pairs the symbolic claim would have missed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .cardinals import ALEPH0, ALEPH1, Card, CofPair, ONE
from .chains import ConcreteChain, IntChain, LexChain, RatChain, RevChain, SumChain
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


# perfbench resolves `LexChain` in this module (imported above, unused
# here) and these two names of the integer chains from before `IntChain`
# replaced them.  As functions, they leave `IntChain.cmp` untraced there.

def FinChain(size: int) -> IntChain:
    return IntChain(0, size)


def NatChain() -> IntChain:
    return IntChain(0)


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
    or the single extremal entry, with the walker left just past them
    (None for an extremal side)."""
    if side.extremal is not None:
        return [side.extremal], None, None
    walker = side.ladder()
    entries = []
    for i in range(depth):
        try:
            nxt = next(walker)
        except StopIteration:
            return entries, f"{label} ladder exhausted at index {i}", walker
        if entries and chain.cmp(nxt, entries[-1]) != direction:
            return entries, f"{label} ladder not strictly monotone at index {i}", walker
        entries.append(nxt)
    return entries, None, walker


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

    lower, err, lo_iter = _materialize(w.lower, depth, +1, chain, "lower")
    if err:
        return WitnessResult(False, err)
    upper, err, hi_iter = _materialize(w.upper, depth, -1, chain, "upper")
    if err:
        return WitnessResult(False, err)

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
        return IntChain(0, t.size)
    if isinstance(t, WellOrder):
        if t.kappa != ALEPH0:
            raise DomainError(f"{t} is uncountable; only well(aleph(0)) concretizes")
        return IntChain(0)
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
    if kind == "end":
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
                           _tag_side(_cofinal_side(RevChain(parts[joint])), joint),
                           boundary)))
    return n_left + n_right


# ---------------------------------------------------------------------------
# Sampled cut generation
# ---------------------------------------------------------------------------

def _descend_to(chain: ConcreteChain, floor, start, depth: int) -> Card:
    """Coinitiality tag of {z : z > floor} explored from start: 1 when an
    immediate successor shows up, aleph(0) when the descent survives.  On
    the reversed chain it is the cofinality tag of {z : z < floor}."""
    cur = start
    for _ in range(depth):
        nxt = chain.between(floor, cur)
        if nxt is None:
            return ONE
        cur = nxt
    return ALEPH0


def derive_cf(chain: ConcreteChain, depth: int = 100) -> Card:
    """Cofinality re-derived by ladder search: 1 or aleph(0)-to-depth."""
    kind, payload = chain.cofinal()
    if kind == "end":
        return ONE
    walker = payload()
    prev = next(walker)
    for _ in range(depth):
        cur = next(walker)
        if chain.cmp(cur, prev) != 1:
            raise DomainError("structural ladder is not strictly monotone")
        prev = cur
    return ALEPH0


def derive_ci(chain: ConcreteChain, depth: int = 100) -> Card:
    return derive_cf(RevChain(chain), depth)


def sample_cuts(chain: ConcreteChain, depth: int = 100,
                samples: int = 60) -> frozenset:
    """Cofinality pairs of sampled cuts: principal cuts at enumerated
    elements plus the nonprincipal boundary cuts at sum joints.  A flat sum
    draws at least one sample per part, so every part is reached."""
    flat = chain
    while isinstance(flat, RevChain):
        flat = flat.inner
    if isinstance(flat, SumChain):
        samples = max(samples, len(flat.parts))
    mirror = RevChain(chain)
    pairs = set()
    for x in itertools.islice(chain.elements(), samples):
        e0 = chain.above(x)
        if e0 is not None:
            pairs.add(CofPair(ONE, _descend_to(chain, x, e0, depth)))
        d0 = chain.below(x)
        if d0 is not None:
            pairs.add(CofPair(_descend_to(mirror, x, d0, depth), ONE))
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
