"""Symbolic regular cardinals.

Ordinal indices are kept in Cantor normal form below w^w, which is enough to
index every aleph that the successor-chain recipes ever produce.  Cardinals
are `1` or `aleph(index)`; sets of infinite regular cardinals are finite
unions of initial segments `reg<kappa` and singletons, kept in one canonical
form.  Indices, cardinals and cofinality pairs are slotted and compute their
hash once, at construction, since sets and memo keys hash them again and
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple

from .errors import DomainError


# ---------------------------------------------------------------------------
# Ordinal indices in CNF below w^w
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True, slots=True)
class OrdinalIndex:
    """An ordinal < w^w as a CNF term list ((exp, coeff), ...), exps strictly
    decreasing, coeffs positive.  Tuple comparison of the term lists agrees
    with the ordinal order, so ordering is derived."""

    terms: Tuple[Tuple[int, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        last = None
        for exp, coeff in self.terms:
            if type(exp) is not int or type(coeff) is not int or exp < 0 or coeff <= 0:
                raise DomainError(f"malformed CNF term ({exp!r},{coeff!r})")
            if last is not None and exp >= last:
                raise DomainError("CNF exponents must strictly decrease")
            last = exp
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(n: int) -> "OrdinalIndex":
        if type(n) is not int:
            raise DomainError(f"ordinal indices are ints, got {n!r}")
        if n < 0:
            raise DomainError("ordinal indices are nonnegative")
        return OrdinalIndex(() if n == 0 else ((0, n),))

    @staticmethod
    def omega(power: int = 1, coeff: int = 1) -> "OrdinalIndex":
        return OrdinalIndex(((power, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] != 0

    def finite_part(self) -> int:
        if self.terms and self.terms[-1][0] == 0:
            return self.terms[-1][1]
        return 0

    def limit_part(self) -> "OrdinalIndex":
        if self.terms and self.terms[-1][0] == 0:
            return OrdinalIndex(self.terms[:-1])
        return self

    def plus_nat(self, n: int) -> "OrdinalIndex":
        if n < 0:
            raise DomainError("can only add naturals on the right")
        if n == 0:
            return self
        if self.terms and self.terms[-1][0] == 0:
            exp, coeff = self.terms[-1]
            return OrdinalIndex(self.terms[:-1] + ((0, coeff + n),))
        return OrdinalIndex(self.terms + ((0, n),))

    def succ(self) -> "OrdinalIndex":
        return self.plus_nat(1)

    def plus_omega(self) -> "OrdinalIndex":
        """self + w: the finite tail is absorbed."""
        base = self.limit_part().terms
        if base and base[-1][0] == 1:
            exp, coeff = base[-1]
            return OrdinalIndex(base[:-1] + ((1, coeff + 1),))
        return OrdinalIndex(base + ((1, 1),))

    def is_finite_number(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def pred(self) -> "OrdinalIndex":
        if not self.is_successor:
            raise DomainError("only successor notations have a predecessor")
        exp, coeff = self.terms[-1]
        if coeff == 1:
            return OrdinalIndex(self.terms[:-1])
        return OrdinalIndex(self.terms[:-1] + ((0, coeff - 1),))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, coeff in self.terms:
            if exp == 0:
                chunks.append(str(coeff))
            elif exp == 1:
                chunks.append("w" if coeff == 1 else f"w*{coeff}")
            else:
                chunks.append(f"w^{exp}" if coeff == 1 else f"w^{exp}*{coeff}")
        return "+".join(chunks)


IDX0 = OrdinalIndex.of(0)
IDXW = OrdinalIndex.omega()


def index_is_regular(idx: OrdinalIndex) -> bool:
    """aleph(idx) is regular iff idx is 0 or a successor notation (below w^w
    there are no weakly inaccessible indices)."""
    return idx.is_zero or idx.is_successor


# ---------------------------------------------------------------------------
# Cardinals: 1 and alephs (plus a `0` sentinel for the empty order)
# ---------------------------------------------------------------------------

_RANK_ZERO, _RANK_ONE, _RANK_ALEPH = 0, 1, 2


@dataclass(frozen=True, order=True, slots=True)
class Card:
    """`1`, `aleph(idx)`, or the empty-order sentinel `0`, ordered by rank
    and then by index."""

    rank: int
    index: Optional[OrdinalIndex] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rank, index = self.rank, self.index
        if type(rank) is not int or not _RANK_ZERO <= rank <= _RANK_ALEPH:
            raise DomainError(f"cardinal ranks are 0, 1 and 2, got {rank!r}")
        if rank == _RANK_ALEPH:
            if not isinstance(index, OrdinalIndex):
                raise DomainError(f"an aleph needs an ordinal index, got {index!r}")
            terms = index.terms
        elif index is not None:
            raise DomainError(f"the cardinal {rank} takes no index, got {index}")
        else:
            terms = ()
        # the index's terms rather than the index or None, whose hash is
        # its address on some Pythons: hashes and set orders repeat across runs
        object.__setattr__(self, "_hash", hash((rank, terms)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_zero(self) -> bool:
        return self.rank == _RANK_ZERO

    @property
    def is_one(self) -> bool:
        return self.rank == _RANK_ONE

    @property
    def is_infinite(self) -> bool:
        return self.rank == _RANK_ALEPH

    @property
    def is_uncountable(self) -> bool:
        return self.rank == _RANK_ALEPH and not self.index.is_zero

    def __str__(self) -> str:
        if self.rank == _RANK_ZERO:
            return "0"
        if self.rank == _RANK_ONE:
            return "1"
        return f"aleph({self.index})"


ZERO = Card(_RANK_ZERO)
ONE = Card(_RANK_ONE)


def aleph(idx) -> Card:
    if type(idx) is int:
        idx = OrdinalIndex.of(idx)
    elif not isinstance(idx, OrdinalIndex):
        raise DomainError(f"aleph indices are ints or ordinal indices, got {idx!r}")
    return Card(_RANK_ALEPH, idx)


ALEPH0 = aleph(0)
ALEPH1 = aleph(1)


def is_regular(c: Card) -> bool:
    """True for 1, aleph(0) and successor-index alephs; false for the zero
    sentinel and limit-index (singular) alephs."""
    if c.is_zero:
        return False
    if c.is_one:
        return True
    return index_is_regular(c.index)


def succ(c: Card) -> Card:
    """Cardinal successor aleph(a) -> aleph(a+1); always regular."""
    if not c.is_infinite:
        raise DomainError("cardinal successor is only defined for alephs")
    return aleph(c.index.succ())


def require_infinite_regular(c: Card, what: str) -> None:
    if not (c.is_infinite and is_regular(c)):
        raise DomainError(f"{what} must be an infinite regular cardinal, got {c}")


# ---------------------------------------------------------------------------
# Cofinality pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True, slots=True)
class CofPair:
    """Cofinality pair (kappa, lambda) of a cut: cf of the lower set and
    coinitiality of the upper set.  Components are 1 or infinite regular."""

    left: Card
    right: Card
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in (self.left, self.right):
            if c.is_zero or not is_regular(c):
                raise DomainError(f"cut cofinality components must be 1 or regular, got {c}")
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_symmetric(self) -> bool:
        return self.left == self.right

    @property
    def is_asymmetric(self) -> bool:
        return self.left != self.right

    @property
    def is_strongly_asymmetric(self) -> bool:
        return self.left != self.right and (self.left.is_uncountable or self.right.is_uncountable)

    @property
    def is_principal(self) -> bool:
        # the lower set has a maximum iff its cofinality is 1; dually for the
        # upper set, so principal pairs are exactly those containing 1
        return self.left.is_one or self.right.is_one

    @property
    def both_countable(self) -> bool:
        return not self.left.is_uncountable and not self.right.is_uncountable

    def mirrored(self) -> "CofPair":
        return CofPair(self.right, self.left)

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


# ---------------------------------------------------------------------------
# Sets of infinite regular cardinals
# ---------------------------------------------------------------------------

def _lowered(idx: OrdinalIndex) -> OrdinalIndex:
    """l for l+1 with l a nonzero limit, idx otherwise: aleph(l) is singular,
    so the regulars below aleph(l+1) are those below aleph(l)."""
    if len(idx.terms) > 1 and idx.terms[-1] == (0, 1):
        return OrdinalIndex(idx.terms[:-1])
    return idx


@dataclass(frozen=True)
class CardSet:
    """A finite union of segments reg<kappa and singleton regulars, in the
    one canonical form, so that equal sets compare equal: `bound` covers
    every regular index < bound and is never l+1 for a nonzero limit l;
    `extras` are the other regular indices, sorted, none of them the least
    regular at or above the bound."""

    bound: OrdinalIndex = IDX0
    extras: Tuple[OrdinalIndex, ...] = ()

    @staticmethod
    def normalized(bound: OrdinalIndex, extras: Iterable[OrdinalIndex]) -> "CardSet":
        """Reg_{<aleph(bound)} plus the regular indices `extras`: the bound
        is lowered, then absorbs the run of extras that continues it."""
        bound, rest = _lowered(bound), []
        for e in sorted(set(extras)):
            if rest or _lowered(e) > bound:
                rest.append(e)
            elif e >= bound:
                bound = e.succ()
        return CardSet(bound, tuple(rest))

    @staticmethod
    def empty() -> "CardSet":
        return CardSet()

    @staticmethod
    def segment_below(c: Card) -> "CardSet":
        """Reg_{<c}: all infinite regular cardinals below c."""
        if not c.is_infinite:
            return CardSet()
        return CardSet.normalized(c.index, ())

    @staticmethod
    def singleton(c: Card) -> "CardSet":
        if not (c.is_infinite and is_regular(c)):
            raise DomainError(f"card sets hold infinite regular cardinals, got {c}")
        return CardSet.normalized(IDX0, (c.index,))

    @staticmethod
    def of(*cards: Card) -> "CardSet":
        return CardSet().union(*map(CardSet.singleton, cards))

    def __post_init__(self):
        xs = self.extras
        if _lowered(self.bound) is not self.bound or xs and (
                _lowered(xs[0]) <= self.bound or not all(map(index_is_regular, xs))
                or any(x >= y for x, y in zip(xs, xs[1:]))):
            raise DomainError(f"card set {self} is not in canonical form")

    @property
    def is_empty(self) -> bool:
        return self.bound.is_zero and not self.extras

    def _has(self, idx: OrdinalIndex) -> bool:
        """Membership of aleph(idx), for a regular idx."""
        return idx < self.bound or idx in self.extras

    def contains(self, c: Card) -> bool:
        return c.is_infinite and is_regular(c) and self._has(c.index)

    def union(self, *others: "CardSet") -> "CardSet":
        sets = (self,) + others
        return CardSet.normalized(max(s.bound for s in sets),
                                  [e for s in sets for e in s.extras])

    def intersect(self, other: "CardSet") -> "CardSet":
        return CardSet.normalized(min(self.bound, other.bound),
                                  [e for e in self.extras + other.extras
                                   if self._has(e) and other._has(e)])

    def is_subset(self, other: "CardSet") -> bool:
        # canonical bounds: reg<aleph(b) lies inside reg<aleph(b') iff b <= b'
        return self.bound <= other.bound and all(map(other._has, self.extras))

    @property
    def is_initial_segment(self) -> bool:
        """True iff the set is downward closed in the regulars."""
        return not self.extras

    def sup_card(self) -> Card:
        """Least cardinal strictly above every member (1 for the empty set)."""
        if self.is_empty:
            return ONE
        return aleph(self.extras[-1].succ() if self.extras else self.bound)

    def is_finite(self) -> bool:
        return self.bound < IDXW

    def members(self) -> Iterator[Card]:
        """Ascending members; only for finitely enumerable sets."""
        if not self.is_finite():
            raise DomainError("card set has infinitely many members")
        for n in range(self.bound.finite_part()):
            yield aleph(n)
        for e in self.extras:
            yield aleph(e)

    def __str__(self) -> str:
        items = []
        if not self.bound.is_zero:
            items.append(f"reg<aleph({self.bound})")
        items.extend(f"aleph({e})" for e in self.extras)
        return "{" + ", ".join(items) + "}"


def reg_below(c: Card) -> CardSet:
    """Reg_{<c}; empty when c <= aleph(0)."""
    return CardSet.segment_below(c)
