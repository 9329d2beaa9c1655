"""Witness-based verification of spectrum claims on countable orders.

The concrete chains of `chains` re-derive, by explicit ladders, what the
symbolic layer claims about the countable fragment: a cut witness is two
`WitnessSide`s, a strictly increasing lower ladder and strictly decreasing
upper ladder (or extremal elements for the `1` components), checked for
monotonicity, separation, and frontier convergence up to a depth: the two
ladders are pulled in turn toward each probe between them, at most
`PROBE_PULLS` steps each, until one swallows it.  A sum boundary takes its
sides from the parts' own ends, and `derive_cf` walks a chain's cofinal
end through the same ladder walker.  The irrational gap of the rationals
is witnessed by the alternate Pell convergents of sqrt 2.
Sampled cut generation hunts for pairs the symbolic claim would have missed.

One stack walk over a term names its rows and concretizes each distinct
leaf once; the chain, with the reversals pushed down to the leaves, is one
flat `SumChain` of leaf chains: term depth is limited by memory.

Each check of a row runs on its own chain: a leaf witness on its part,
upright or reversed, a sum boundary as two end walks, each part end beside
one point.  The sampler walks each part of a sum on its own.  A check, a
part's end tag and a part sample thus read only the chain in their key, so
one bounded memo (the last 4,096 keys) shares them across the reports of a
process: verdicts, failures included, by (depth, chain, witness name,
claim), `derive_cf`/`derive_ci` tags by (depth, part), and part samples by
(depth, part, sample count) (see `sample_cuts`).  A process walks each
distinct leaf witness, part end and part sample once.  Only what
`spectrum_soundness` and `sample_cuts` build enters the memo; the public
walkers `verify_witness`, `derive_cf` and `derive_ci` are uncached, since a
caller may pass any witness under any name.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .cardinals import ALEPH0, Card, CofPair, ONE
from .chains import (ConcreteChain, IntChain, LexChain, RatChain, RevChain, SumChain,
                     WitnessSide, is_exact)
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
    leaf_head,
)

PROBE_PULLS = 8

# The memo of the module docstring: each key is its kind, the depth and
# what the computation reads.
_MEMO_CAP = 4096
_memo = OrderedDict()


def _memoized(key, compute, *args):
    """compute(*args), walked once while key stays among the last _MEMO_CAP
    keys stored.  The oldest key goes first, popped in one step, so threads
    sharing the memo can at worst walk a key twice."""
    value = _memo.get(key)
    if value is None:
        value = compute(*args)
        if len(_memo) >= _MEMO_CAP:
            _memo.popitem(last=False)
        _memo[key] = value
    return value


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

def _check_depth(depth) -> None:
    """Every ladder walk takes at least one step."""
    if not is_exact(depth, int) or depth < 1:
        raise DomainError(f"witness depth must be an integer at least 1, got {depth!r}")


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
    _check_depth(depth)
    for comp, side, what, article in ((w.claim.left, w.lower, "lower", "a"),
                                      (w.claim.right, w.upper, "upper", "an")):
        if comp not in (ONE, ALEPH0):
            return WitnessResult(False, f"claim component {comp} is not finitely checkable")
        if comp.is_one and side.extremal is None:
            return WitnessResult(False, f"claim 1 needs an extremal {what} element")
        if comp == ALEPH0 and side.ladder is None:
            return WitnessResult(False, f"claim aleph(0) needs {article} {what} ladder")

    lower, err, lo_iter = _materialize(w.lower, depth, +1, chain, "lower")
    if err:
        return WitnessResult(False, err)
    upper, err, hi_iter = _materialize(w.upper, depth, -1, chain, "upper")
    if err:
        return WitnessResult(False, err)

    ends = [lower[-1], upper[-1]]
    if chain.cmp(*ends) >= 0:
        return WitnessResult(False, "ladders are not separated")

    iters = (lo_iter, hi_iter)
    # the ladders in turn, lower first, at most PROBE_PULLS steps each: once
    # one side swallows the probe, the other is not pushed further
    turns = [turn for turn in ((0, "lower", +1), (1, "upper", -1))
             if iters[turn[0]] is not None] * PROBE_PULLS
    for _round in range(depth):
        probe = chain.between(*ends)
        if probe is None:
            if lo_iter is None and hi_iter is None:
                break
            # an adjacent frontier realizes the cut: D would have a maximum
            # or E a minimum, refuting the aleph(0) side
            return WitnessResult(False,
                                 "frontier became adjacent; an aleph(0) claim is refuted")
        for s, what, step in turns:
            try:
                nxt = next(iters[s])
            except StopIteration:
                return WitnessResult(False, f"{what} ladder exhausted while converging")
            if chain.cmp(nxt, ends[s]) != step:
                return WitnessResult(False, f"{what} ladder not strictly monotone")
            ends[s] = nxt
            if chain.cmp(probe, nxt) != step:
                break
        else:
            return WitnessResult(False,
                                 f"element {probe!r} between the ladders is never captured")
        if chain.cmp(*ends) >= 0:
            return WitnessResult(False, "ladders crossed while converging")
    return WitnessResult(True)


# ---------------------------------------------------------------------------
# Witness recipes of the leaves, following the proofs' ladders
# ---------------------------------------------------------------------------

def _pell(p: int, q: int):
    """The alternate convergents of sqrt 2 from p/q.  The step
    (p, q) -> (3p + 4q, 2p + 3q) keeps p^2 - 2q^2 fixed, so the ladder stays
    on one side of sqrt 2, in lowest terms, and closes in on it by a factor
    of about 5.8 per step."""
    while True:
        yield Fraction(p, q)
        p, q = 3 * p + 4 * q, 2 * p + 3 * q


def _sqrt2_lower():
    return _pell(1, 1)


def _sqrt2_upper():
    return _pell(3, 2)


def _rat_witnesses():
    zero = Fraction(0)
    return [
        CutWitness("rat-principal-above-0", WitnessSide.at(zero),
                   WitnessSide.via(lambda: (Fraction(1, 2 ** n) for n in itertools.count(0))),
                   CofPair(ONE, ALEPH0)),
        CutWitness("rat-principal-below-0",
                   WitnessSide.via(lambda: (Fraction(-1, 2 ** n) for n in itertools.count(0))),
                   WitnessSide.at(zero), CofPair(ALEPH0, ONE)),
        CutWitness("rat-sqrt2-gap", WitnessSide.via(_sqrt2_lower),
                   WitnessSide.via(_sqrt2_upper), CofPair(ALEPH0, ALEPH0)),
    ]


def _step(name: str) -> CutWitness:
    return CutWitness(name, WitnessSide.at(0), WitnessSide.at(1), CofPair(ONE, ONE))


RAT_ATOM_NAMES = ("rat", "q", "rationals")


def _leaf(t: OrderTerm):
    """The chain of a term that is neither a sum nor a reversal, and its
    witnesses: extremal neighbours inside discrete pieces, Pell ladders of
    sqrt 2 at the irrational gap of the rationals."""
    if isinstance(t, FiniteChain):
        return IntChain(0, t.size), [_step("finite-step")] if t.size > 1 else []
    if isinstance(t, WellOrder):
        if t.kappa != ALEPH0:
            raise DomainError(f"{t} is uncountable; only well(aleph(0)) concretizes")
        return IntChain(0), [_step("well-step")]
    if isinstance(t, Atom):
        if t.name.lower() in RAT_ATOM_NAMES:
            return RatChain(), _rat_witnesses()
        raise DomainError(f"atom {t.name} has no concrete model")
    raise DomainError(f"{leaf_head(t)} is not in the concretizable countable fragment")


# ---------------------------------------------------------------------------
# Concretization of the countable term fragment: one flat chain of leaves
# ---------------------------------------------------------------------------

POINT = IntChain(0, 1)


def _cut(x: ConcreteChain, y: ConcreteChain, claim: CofPair):
    """The check of the cut between x and y on the chain x + y: x's cofinal
    end below, y's coinitial end above."""
    return SumChain(x, y), CutWitness("sum-boundary", x.cofinal().in_part(0),
                                      y.coinitial().in_part(1), claim)


def _flatten(t: OrderTerm):
    """The chain of t and its (pair, name, checks) rows.

    A check is a (chain, witness) pair that reads nothing outside itself.  A
    leaf witness is checked on its own part, upright or reversed; the
    boundary claim (a, b) of a sum is two checks, each end of an adjacent
    part beside one point: (a, 1) on below + 1 and (1, b) on 1 + above,
    built once per distinct (below, above, claim) of the walk.  Rows follow
    the term: a sum's left side, its right side, then its boundary, each
    named by its path, as `right:rev(left:finite-step)`; a stack keeps the
    (first, last) parts of each finished side in chain order.  Each
    distinct leaf is concretized once, in term order, so the first leaf
    outside the fragment raises.  The chain is then one walk over the leaves
    in chain order: rev(a + b) is rev(b) + rev(a)."""
    rows, leaves, ends, joints = [], {}, [], {}
    stack = [(False, t, False, "", "")]
    while stack:
        boundary, s, back, prefix, suffix = stack.pop()
        if boundary:
            lo, hi = ends.pop(-2), ends.pop()   # the two sides in term order
            claim = CofPair(cf(s.left), ci(s.right))
            if back:
                claim, lo, hi = claim.mirrored(), hi, lo
            below, above = lo[1], hi[0]
            ends.append((lo[0], hi[1]))
            joint = (below, above, claim)
            if joint not in joints:
                joints[joint] = (_cut(below, POINT, CofPair(claim.left, ONE)),
                                 _cut(POINT, above, CofPair(ONE, claim.right)))
            rows.append((claim, prefix + "sum-boundary" + suffix, joints[joint]))
        elif isinstance(s, Sum):
            stack += [(True, s, back, prefix, suffix),
                      (False, s.right, back, prefix + "right:", suffix),
                      (False, s.left, back, prefix + "left:", suffix)]
        elif isinstance(s, Rev):
            stack.append((False, s.inner, not back, prefix + "rev(", ")" + suffix))
        else:
            if s not in leaves:
                # the part and its witnesses upright, then reversed
                chain, wits = _leaf(s)
                leaves[s] = ((chain, wits), (RevChain(chain), [
                    CutWitness(w.name, w.upper, w.lower, w.claim.mirrored()) for w in wits]))
            part, wits = leaves[s][back]
            ends.append((part, part))
            rows += [(w.claim, prefix + w.name + suffix, ((part, w),)) for w in wits]
    parts, stack = [], [(t, False)]
    while stack:
        s, back = stack.pop()
        if isinstance(s, Sum):
            stack += [(k, back) for k in ((s.left, s.right) if back else (s.right, s.left))]
        elif isinstance(s, Rev):
            stack.append((s.inner, not back))
        else:
            parts.append(leaves[s][back][0])
    return (parts[0] if len(parts) == 1 else SumChain(*parts)), rows


def concretize(t: OrderTerm) -> ConcreteChain:
    """The chain of t: the one leaf's chain, reversed when the leaf is under
    an odd number of reversals, or one flat `SumChain` of such parts."""
    return _flatten(t)[0]


def term_witnesses(t: OrderTerm):
    """(pair, name, checks) rows covering every claimed pair of the countable
    fragment: the leaves' own witnesses, and cofinal and coinitial ladders at
    sum boundaries.  Each check is a (chain, witness) pair, and each row is
    named by its path in the term."""
    return _flatten(t)[1]


# ---------------------------------------------------------------------------
# Sampled cut generation
# ---------------------------------------------------------------------------

def derive_cf(chain: ConcreteChain, depth: int = 100) -> Card:
    """Cofinality re-derived by ladder search: 1 or aleph(0)-to-depth."""
    _check_depth(depth)
    side = chain.cofinal()
    _, err, _ = _materialize(side, depth + 1, +1, chain, "structural")
    if err:
        raise DomainError(err)
    return ONE if side.ladder is None else ALEPH0


def derive_ci(chain: ConcreteChain, depth: int = 100) -> Card:
    return derive_cf(RevChain(chain), depth)


SAMPLES = 60


def _sample_part(part: ConcreteChain, count: int, depth: int) -> frozenset:
    """Cofinality pairs of the principal cuts just above and just below each
    of the first `count` elements x of a part, each walked inside the part
    from x's neighbour toward x by `between`: 1 when the walk stops, aleph(0)
    when it survives `depth` steps.  Past an x that ends the part lies no
    cut of the part."""
    ups, downs = set(), set()
    for walk, tags in ((part, ups), (RevChain(part), downs)):
        for x in itertools.islice(walk.elements(), count):
            cur = walk.above(x)
            if cur is None:
                continue
            for _ in range(depth):
                cur = walk.between(x, cur)
                if cur is None:
                    break
            tags.add(ONE if cur is None else ALEPH0)
    return frozenset({CofPair(ONE, tag) for tag in ups} | {CofPair(tag, ONE) for tag in downs})


def sample_cuts(chain: ConcreteChain, depth: int = 100) -> frozenset:
    """Cofinality pairs of sampled cuts on a chain that `concretize` builds:
    principal cuts at the first SAMPLES enumerated elements, round-robin over
    the parts of a flat sum and at least one in each, plus the boundary cuts
    between adjacent parts.  Each part is sampled on its own, once per
    distinct (part, count) through the process-wide memo, and a homogeneous
    part, whose automorphisms commute with the walk, by its first element
    alone.  The cut just past a part's greatest element is the boundary cut
    to the next part, (1, ci) of it by the sum rule: the boundary pairs read
    it from the parts' end tags, and the cut below a least element alike."""
    _check_depth(depth)
    if isinstance(chain, SumChain):
        parts, counts = chain.parts, [0] * len(chain.parts)
        for i, _ in itertools.islice(chain.elements(), max(SAMPLES, len(parts))):
            counts[i] += 1
    else:
        parts, counts = (chain,), [SAMPLES]
    pairs = set()
    for key in dict.fromkeys((p, 1 if p.homogeneous else n) for p, n in zip(parts, counts)):
        pairs |= _memoized(("sample", depth) + key, _sample_part, *key, depth)
    # a sum repeats a few part kinds: walk each distinct part's ladders once
    cf_tag = {p: _memoized(("cf", depth, p), derive_cf, p, depth)
              for p in dict.fromkeys(parts[:-1])}
    ci_tag = {p: _memoized(("ci", depth, p), derive_ci, p, depth)
              for p in dict.fromkeys(parts[1:])}
    pairs.update(CofPair(cf_tag[a], ci_tag[b]) for a, b in zip(parts, parts[1:]))
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
    """Verify every claimed countable pair by explicit witnesses and hunt
    for sampled pairs missing from the claim.  A row passes when all its
    checks pass and reports the first failing reason; a check reads nothing
    outside its chain, so equal checks share one verdict, failures
    included, through the process-wide memo: a term equal to one verified
    before at the same depth walks nothing again."""
    _check_depth(depth)
    chain, witnesses = _flatten(t)
    claimed = cut_spectrum(t).countable_pairs()
    rows, passed = [], set()

    def verdict(c: ConcreteChain, w: CutWitness) -> WitnessResult:
        return _memoized(("verdict", depth, c, w.name, w.claim),
                         verify_witness, c, w, depth)

    for pair, name, checks in witnesses:
        result = next((r for r in itertools.starmap(verdict, checks) if not r.ok),
                      WitnessResult(True))
        rows.append(WitnessRow(pair, name, depth, result.ok, result.reason))
        if result.ok:
            passed.add(pair)
    unwitnessed = tuple(sorted(p for p in claimed if p not in passed))
    sampled = sample_cuts(chain, depth)
    unclaimed = tuple(sorted(p for p in sampled if p not in claimed))
    stray = tuple(sorted(p for p in passed if p not in claimed))
    return OracleReport(tuple(rows), unwitnessed, unclaimed + stray)
