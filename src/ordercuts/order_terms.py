"""Term language for linear orders and the cut-cofinality calculus.

A term denotes a linear order built from well orders, reversals, sums,
completions, declared atoms and two lexicographic-product constructors (a
schedule-driven one and a refined one steered by a pair of maps on the
regular cardinals).  Every analysis here is a fold over the term: cofinality
and coinitiality, the Coin/Cofin sets, the full symbolic cut spectrum, the
completeness predicates, and the extension recipe that produces an extremely
symmetrically complete superorder.  Coin/Cofin, the spectrum and the
cardinality bound are facts kept on each node: one walker with an explicit
stack computes each fact once per node, children first, and the children of
a sum are its distinct parts.  So term depth is limited by memory, not by
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple, Union

from .cardinals import (
    ALEPH0,
    Card,
    CardSet,
    CofPair,
    ONE,
    OrdinalIndex,
    ZERO,
    aleph,
    is_regular,
    require_infinite_regular,
    succ,
)
from .errors import DomainError, NotDerivableError, OrderCutsError, SideConditionError


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class OrderTerm:
    """The base of the term classes, frozen dataclasses whose fields may hold
    terms.  A node keeps slots filled on first use (see `_fold`): its hash,
    computed children first, a sum's distinct parts, and each of its facts.
    `==`, `str` and `repr` walk a term with a stack, so nothing here
    recurses once per level of a deep term; `repr` is the term's text."""

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        return _render(self)

    def __hash__(self) -> int:
        return _fold(self, "_hash", _subterms, _hash_rule)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, OrderTerm):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


@dataclass(frozen=True, eq=False, repr=False)
class Empty(OrderTerm):
    def __str__(self) -> str:
        return "empty"


@dataclass(frozen=True, eq=False, repr=False)
class FiniteChain(OrderTerm):
    size: int

    def __post_init__(self):
        if type(self.size) is not int:
            raise DomainError(f"finite chain sizes are ints, got {self.size!r}")
        if self.size < 1:
            raise DomainError("finite chains have at least one point; use empty")

    def __str__(self) -> str:
        return f"chain({self.size})"


@dataclass(frozen=True, eq=False, repr=False)
class WellOrder(OrderTerm):
    kappa: Card

    def __post_init__(self):
        require_infinite_regular(self.kappa, "well order length")

    def __str__(self) -> str:
        return f"well({self.kappa})"


@dataclass(frozen=True, eq=False, repr=False)
class Rev(OrderTerm):
    inner: OrderTerm


@dataclass(frozen=True, eq=False, repr=False)
class Sum(OrderTerm):
    left: OrderTerm
    right: OrderTerm

    def __post_init__(self):
        if isinstance(self.left, Empty) or isinstance(self.right, Empty):
            raise DomainError("sum parts must be nonempty; use the sum_of factory")


@dataclass(frozen=True, eq=False, repr=False)
class Completion(OrderTerm):
    inner: OrderTerm


@dataclass(frozen=True, eq=False, repr=False)
class Atom(OrderTerm):
    """An opaque order with declared attributes; the analyzer never looks
    inside.  `cuts` may pin the full (finite) cut spectrum when it is known."""

    name: str
    cf: Card
    ci: Card
    coin: CardSet
    cofin: CardSet
    card_bound: Optional[Card] = None
    cuts: Optional[Tuple[CofPair, ...]] = None

    def __post_init__(self):
        for value, label in ((self.cf, "cf"), (self.ci, "ci")):
            if value.is_zero or not is_regular(value):
                raise DomainError(f"atom {label} must be 1 or infinite regular")
        if self.cf.is_infinite and not self.cofin.contains(self.cf):
            raise DomainError("atom cf must belong to its Cofin set")
        if self.ci.is_infinite and not self.coin.contains(self.ci):
            raise DomainError("atom ci must belong to its Coin set")
        if self.card_bound is not None:
            limit = CardSet.segment_below(succ(self.card_bound)) if self.card_bound.is_infinite else CardSet.empty()
            for s in (self.coin, self.cofin):
                if not s.is_subset(limit):
                    raise DomainError("atom Coin/Cofin exceed the declared cardinality bound")
        if self.cuts is not None:
            object.__setattr__(self, "cuts", tuple(sorted(set(self.cuts))))
            for p in self.cuts:
                if p.right.is_infinite and not self.coin.contains(p.right):
                    raise DomainError(f"declared cut {p} has coinitiality outside Coin")
                if p.left.is_infinite and not self.cofin.contains(p.left):
                    raise DomainError(f"declared cut {p} has cofinality outside Cofin")

    def __str__(self) -> str:
        fields = [self.name, f"cf={self.cf}", f"ci={self.ci}",
                  f"coin={self.coin}", f"cofin={self.cofin}"]
        if self.card_bound is not None:
            fields.append(f"card<={self.card_bound}")
        if self.cuts is not None:
            fields.append("cuts={" + ", ".join(str(p) for p in self.cuts) + "}")
        return "atom(" + "; ".join(fields) + ")"


# -- schedules for the first lexicographic construction ---------------------

RULE_ID, RULE_SUCC, RULE_DSUCC = 0, 1, 2
_RULE_NAMES = {RULE_ID: "id", RULE_SUCC: "plus", RULE_DSUCC: "plusplus"}


@dataclass(frozen=True)
class CardinalSchedule:
    """Values kappa_nu / lambda_nu for nu >= 1: an explicit value at nu=1, a
    uniform successor rule, and a uniform value at limit ordinals."""

    k1: Card
    l1: Card
    ksucc: int = RULE_DSUCC
    lsucc: int = RULE_DSUCC
    klim: Optional[Card] = None
    llim: Optional[Card] = None

    def __post_init__(self):
        if self.klim is None:
            object.__setattr__(self, "klim", self.k1)
        if self.llim is None:
            object.__setattr__(self, "llim", self.l1)
        for r in (self.ksucc, self.lsucc):
            if r not in (RULE_ID, RULE_SUCC, RULE_DSUCC):
                raise DomainError("schedule successor rule must be id/plus/plusplus")

    def kappa_at(self, n: int) -> Card:
        """kappa at nu = 1+n along the base chain."""
        return aleph(self.k1.index.plus_nat(self.ksucc * n))

    def lambda_at(self, n: int) -> Card:
        return aleph(self.l1.index.plus_nat(self.lsucc * n))

    def __str__(self) -> str:
        return (f"k1={self.k1}; l1={self.l1}; ksucc={_RULE_NAMES[self.ksucc]}; "
                f"lsucc={_RULE_NAMES[self.lsucc]}; klim={self.klim}; llim={self.llim}")


@dataclass(frozen=True, eq=False, repr=False)
class LexSchedule(OrderTerm):
    """Lexicographic product of I_0 = l0* + I^c + k0 and I_nu = l_nu* + k_nu
    over index set mu."""

    mu: Card
    k0: Card
    l0: Card
    schedule: CardinalSchedule
    inner: OrderTerm

    def _head(self) -> str:
        return f"lexsched(mu={self.mu}; k0={self.k0}; l0={self.l0}; {self.schedule}; i="


# -- piecewise maps on {1} u Reg for the refined construction ---------------

DOM_ONE, DOM_SINGLE, DOM_SEG, DOM_DEFAULT = "1", "single", "seg", "default"
PHI_SUCC = "succ"

# per domain kind: its text, and its part inside Reg (None for all of Reg)
_PHI_DOMAINS = {
    DOM_ONE: ("1", lambda c: CardSet.empty()),
    DOM_SINGLE: ("{}", CardSet.singleton),
    DOM_SEG: ("reg<{}", CardSet.segment_below),
    DOM_DEFAULT: ("default", lambda c: None),
}


@dataclass(frozen=True)
class PhiPiece:
    """One piece of a phi map, with its domain inside Reg (`regs`) and its
    one value (`image`) fixed when it is built: a `succ` piece has a
    singleton domain, so its image is the successor of that cardinal."""

    dom_kind: str
    dom_card: Optional[Card]  # the singleton value or the segment bound
    value: Union[Card, str]   # a constant, or PHI_SUCC on singleton domains
    regs: Optional[CardSet] = field(init=False, repr=False, compare=False)
    image: Card = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dom_kind not in _PHI_DOMAINS:
            raise DomainError("bad phi piece domain")
        if self.dom_kind in (DOM_SINGLE, DOM_SEG):
            if self.dom_card is None:
                raise DomainError("phi piece needs a cardinal")
            if self.dom_kind == DOM_SINGLE:
                require_infinite_regular(self.dom_card, "phi singleton domain")
        if self.value == PHI_SUCC:
            if self.dom_kind != DOM_SINGLE:
                raise DomainError("succ rule needs a singleton domain")
            image = succ(self.dom_card)
        else:
            require_infinite_regular(self.value, "phi value")
            image = self.value
        object.__setattr__(self, "regs", _PHI_DOMAINS[self.dom_kind][1](self.dom_card))
        object.__setattr__(self, "image", image)

    def matches(self, c: Card) -> bool:
        """`1` lies in the `1` and `default` pieces only."""
        if c.is_one:
            return self.dom_kind in (DOM_ONE, DOM_DEFAULT)
        return self.regs is None or self.regs.contains(c)

    def __str__(self) -> str:
        return f"{_PHI_DOMAINS[self.dom_kind][0].format(self.dom_card)}->{self.value}"


@dataclass(frozen=True)
class PhiMap:
    """First-match piecewise map {1} u Reg -> Reg."""

    pieces: Tuple[PhiPiece, ...]

    def _first_match(self, c: Card) -> Optional[PhiPiece]:
        return next((p for p in self.pieces if p.matches(c)), None)

    def evaluate(self, c: Card) -> Card:
        piece = self._first_match(c)
        if piece is None:
            raise DomainError(f"phi map undefined at {c}")
        return piece.image

    def _live_pieces(self, seg: CardSet):
        """The pieces hit by some member of seg not claimed by an earlier
        piece; nothing for an empty seg."""
        covered = CardSet.empty()
        for piece in self.pieces:
            if piece.regs is None:
                if not seg.is_subset(covered):
                    yield piece
                return
            if not piece.regs.intersect(seg).is_subset(covered):
                yield piece
            covered = covered.union(piece.regs)
        if not seg.is_subset(covered):
            raise DomainError("phi map is partial on the requested segment")

    def image_over(self, seg: CardSet) -> CardSet:
        return CardSet.of(*(p.image for p in self._live_pieces(seg)))

    def range_violation(self, seg: CardSet, target: CardSet) -> Optional[str]:
        """A witness that phi({1} u seg) is not inside target, or None."""
        try:
            v = self.evaluate(ONE)
            if not target.contains(v):
                return f"phi(1)={v} outside {target}"
            for piece in self._live_pieces(seg):
                if not target.contains(piece.image):
                    return f"piece {piece} maps into {piece.image} outside {target}"
        except DomainError as exc:
            return str(exc)
        return None

    def fixed_point_in(self, seg: CardSet) -> Optional[Card]:
        """Some kappa in seg with phi(kappa) = kappa, if one exists: the image
        of the first piece that is the first match of its own image."""
        return next((p.image for p in self.pieces
                     if seg.contains(p.image) and self._first_match(p.image) is p), None)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.pieces) + "]"


@dataclass(frozen=True, eq=False, repr=False)
class LexRefined(OrderTerm):
    """The refined lexicographic construction: coefficient sets steered by
    phil/phir applied to the local cofinality data."""

    mu: Card
    k0: Card
    l0: Card
    phil: PhiMap
    phir: PhiMap
    inner: OrderTerm

    def _head(self) -> str:
        return (f"lexref(mu={self.mu}; k0={self.k0}; l0={self.l0}; "
                f"phil={self.phil}; phir={self.phir}; i=")


# -- smart constructors ------------------------------------------------------

EMPTY = Empty()


def chain(n: int) -> OrderTerm:
    return EMPTY if n == 0 and type(n) is int else FiniteChain(n)


def well(kappa: Card) -> WellOrder:
    return WellOrder(kappa)


def rev(t: OrderTerm) -> OrderTerm:
    if isinstance(t, Rev):
        return t.inner
    if isinstance(t, Empty):
        return t
    return Rev(t)


def sum_of(*terms: OrderTerm) -> OrderTerm:
    parts = [t for t in terms if not isinstance(t, Empty)]
    if not parts:
        return EMPTY
    out = parts[-1]
    for t in reversed(parts[:-1]):
        out = Sum(t, out)
    return out


def completion(t: OrderTerm) -> OrderTerm:
    if isinstance(t, (Empty, Completion)):
        return t
    return Completion(t)


def sum_parts(t: OrderTerm):
    """The leaves of a sum tree, left to right; [t] for a non-sum."""
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Sum):
            stack.append(s.right)
            stack.append(s.left)
        else:
            out.append(s)
    return out


def _render(t: OrderTerm) -> str:
    """The text of a term: nested sums, reversals, completions and
    lexicographic products are walked with a stack, and other terms render
    themselves."""
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Sum):
            seq = ["sum("]
            for p in sum_parts(s):
                seq += [p, ", "]
            seq[-1] = ")"
            stack += reversed(seq)
        elif isinstance(s, (Rev, Completion)):
            stack += [")", s.inner, "rev(" if isinstance(s, Rev) else "comp("]
        elif isinstance(s, (LexSchedule, LexRefined)):
            stack += [")", s.inner, s._head()]
        elif type(s).__str__ is OrderTerm.__str__:
            out.append(f"<{type(s).__name__}>")     # a class with no text of its own
        else:
            out.append(str(s))
    return "".join(out)


def leaf_head(t: OrderTerm) -> str:
    """How a message names a leaf: a `comp`, `lexsched` or `lexref` leaf by
    its head alone, since its body nests to any depth; any other leaf in
    full."""
    return {Completion: "comp(...)", LexSchedule: "lexsched(...)",
            LexRefined: "lexref(...)"}.get(type(t)) or str(t)


# ---------------------------------------------------------------------------
# Facts of terms: one post-order walker
# ---------------------------------------------------------------------------

def _fold(t: OrderTerm, key: str, children, rule):
    """The slot `key` of t, filled first if empty.  A walk with an explicit
    stack fills the empty slot of every node reached through `children`,
    children first, so a rule reads its children's slots without recursing.
    A rule that fails leaves its error in the slot, without the frames that
    raised it."""
    if not hasattr(t, key):
        stack = [(t, False)]
        while stack:
            s, ready = stack.pop()
            if hasattr(s, key):
                continue
            if not isinstance(s, OrderTerm):
                raise DomainError(f"unknown term {s!r}")
            if not ready:
                stack.append((s, True))
                stack.extend((c, False) for c in children(s) if not hasattr(c, key))
                continue
            try:
                value = rule(s)
            except OrderCutsError as exc:
                value = exc.with_traceback(None)
            object.__setattr__(s, key, value)
    return getattr(t, key)


def _ok(value):
    """A fact, or its stored error raised without the old traceback, which
    would otherwise grow on every read."""
    if isinstance(value, OrderCutsError):
        raise value.with_traceback(None)
    return value


def _subterms(t: OrderTerm):
    return [v for v in map(t.__getattribute__, t.__match_args__)
            if isinstance(v, OrderTerm)]


def _hash_rule(t: OrderTerm) -> int:
    # a frozen dataclass's hash: that of the tuple of its fields
    return hash(tuple(map(t.__getattribute__, t.__match_args__)))


def _summands(t: OrderTerm):
    """The nodes whose facts a rule reads through the sum and reversal laws:
    a sum's distinct parts, in order of first appearance and kept on the sum,
    or a reversal's inner order.  So a flat sum is one step of a walk."""
    if isinstance(t, Rev):
        return (t.inner,)
    if isinstance(t, Sum) and not hasattr(t, "_parts"):
        object.__setattr__(t, "_parts", tuple(dict.fromkeys(sum_parts(t))))
    return getattr(t, "_parts", ())


def _summands_or_inner(t: OrderTerm):
    """For Coin/Cofin, which also reads a completion's or a lexicographic
    product's inner order."""
    inner = getattr(t, "inner", None)
    return _summands(t) if inner is None else (inner,)


# ---------------------------------------------------------------------------
# Regularity gate for the lexicographic constructions
# ---------------------------------------------------------------------------

def _lex_regularity_failures(t: OrderTerm):
    named = [("mu", t.mu), ("k0", t.k0), ("l0", t.l0)]
    if isinstance(t, LexSchedule):
        s = t.schedule
        named += [("k1", s.k1), ("l1", s.l1), ("klim", s.klim), ("llim", s.llim)]
    return [f"{name}={value}" for name, value in named
            if not (value.is_infinite and is_regular(value))]


def _require_lex_regular(t: OrderTerm) -> None:
    bad = _lex_regularity_failures(t)
    if bad:
        raise SideConditionError("regular-params",
                                 "not infinite regular: " + ", ".join(bad))


# ---------------------------------------------------------------------------
# Cofinality / coinitiality
# ---------------------------------------------------------------------------

def _end(t: OrderTerm, top: bool) -> Card:
    """The cofinality of t when `top`, else its coinitiality.  A sum steps
    to the part at that end and a reversal flips the end, in a loop; the
    exact `type` dispatch keeps this cheap, as it runs twice per sum node."""
    while True:
        kind = type(t)
        if kind is Sum:
            t = t.right if top else t.left
        elif kind is Rev:
            t, top = t.inner, not top
        elif kind is Completion:
            t = t.inner
        elif kind is WellOrder:
            return t.kappa if top else ONE
        elif kind is FiniteChain:
            return ONE
        elif kind is Atom:
            return t.cf if top else t.ci
        elif kind is Empty:
            return ZERO
        elif kind is LexSchedule or kind is LexRefined:
            _require_lex_regular(t)
            return t.k0 if top else t.l0
        else:
            raise DomainError(f"unknown term {t!r}")


def cf(t: OrderTerm) -> Card:
    """Cofinality of the order; `0` sentinel for the empty order."""
    return _end(t, True)


def ci(t: OrderTerm) -> Card:
    """Coinitiality: cofinality under the reversed order."""
    return _end(t, False)


def _succ_chain_closure(base: OrdinalIndex, step: int) -> CardSet:
    """All regulars <= some value of the chain aleph(base + step*n)."""
    if step == 0:
        return CardSet.segment_below(aleph(base.succ()))
    return CardSet.segment_below(aleph(base.plus_omega()))


def coin_cofin(t: OrderTerm) -> Tuple[CardSet, CardSet]:
    """(Coin, Cofin): the infinite coinitialities and cofinalities realized
    by subsets of the order."""
    return _ok(_fold(t, "_coin_cofin", _summands_or_inner, _coin_cofin_rule))


def _coin_cofin_rule(t: OrderTerm) -> Tuple[CardSet, CardSet]:
    if isinstance(t, (Empty, FiniteChain)):
        return CardSet.empty(), CardSet.empty()
    if isinstance(t, WellOrder):
        return CardSet.empty(), CardSet.segment_below(succ(t.kappa))
    if isinstance(t, Rev):
        coin, cofin = coin_cofin(t.inner)
        return cofin, coin
    if isinstance(t, Sum):
        coins, cofins = zip(*map(coin_cofin, _summands(t)))
        return CardSet.empty().union(*coins), CardSet.empty().union(*cofins)
    if isinstance(t, Completion):
        return coin_cofin(t.inner)
    if isinstance(t, Atom):
        return t.coin, t.cofin
    # a lexicographic product
    _require_lex_regular(t)
    mu_seg = CardSet.segment_below(succ(t.mu))
    if isinstance(t, LexRefined):
        rl, rr = refined_rl_rr(t)
        return (rr.union(t.phir.image_over(rl), mu_seg, CardSet.singleton(t.l0)),
                rl.union(t.phil.image_over(rr), mu_seg, CardSet.singleton(t.k0)))
    coin_i, cofin_i = coin_cofin(t.inner)
    s = t.schedule
    coin = coin_i.union(CardSet.segment_below(succ(t.l0)), mu_seg,
                        _succ_chain_closure(s.l1.index, s.lsucc))
    cofin = cofin_i.union(CardSet.segment_below(succ(t.k0)), mu_seg,
                          _succ_chain_closure(s.k1.index, s.ksucc))
    if t.mu.is_uncountable:
        coin = coin.union(_succ_chain_closure(s.llim.index, s.lsucc))
        cofin = cofin.union(_succ_chain_closure(s.klim.index, s.ksucc))
    return coin, cofin


def refined_rl_rr(t: LexRefined) -> Tuple[CardSet, CardSet]:
    """The sets Rl = Cofin(I) u Reg_{<k0} u Reg_{<mu} and
    Rr = Coin(I) u Reg_{<l0} u Reg_{<mu}."""
    coin_i, cofin_i = coin_cofin(t.inner)
    below_mu = CardSet.segment_below(t.mu)
    return (cofin_i.union(CardSet.segment_below(t.k0), below_mu),
            coin_i.union(CardSet.segment_below(t.l0), below_mu))


def card_bound(t: OrderTerm) -> Card:
    """A declared cardinality bound, where one is derivable."""
    return _ok(_cardinality(t)[0])


def _cardinality(t: OrderTerm):
    return _fold(t, "_cardinality", _summands, _cardinality_rule)


def _cardinality_rule(t: OrderTerm):
    """(card_bound, extension base) of t, each a Card or the error that
    stops it.  They differ on a lexicographic product alone: it has no
    bound, and the corollary conditions see all of it through Coin/Cofin,
    so the sup of those and of its parameters is its base."""
    if isinstance(t, Rev):
        return _cardinality(t.inner)
    if isinstance(t, Sum):
        return tuple(next((c for c in column if isinstance(c, OrderCutsError)), None)
                     or max(column)
                     for column in zip(*map(_cardinality, _summands(t))))
    if isinstance(t, (LexSchedule, LexRefined)):
        try:
            coin, cofin = coin_cofin(t)
            base = max(coin.sup_card(), cofin.sup_card(), t.mu, t.k0, t.l0)
        except OrderCutsError as exc:
            base = exc
        return NotDerivableError("no cardinality bound is derivable for "
                                 "lexicographic products"), base
    if isinstance(t, Completion):
        bound = NotDerivableError("the cardinality of a completion is not determined by the inner order")
    elif isinstance(t, Atom):
        bound = t.card_bound if t.card_bound is not None else \
            NotDerivableError(f"atom {t.name} has no declared cardinality bound")
    else:
        bound = t.kappa if isinstance(t, WellOrder) else ONE
    return bound, bound


# ---------------------------------------------------------------------------
# Affine index chains: decision helpers for families indexed by n >= 0
# ---------------------------------------------------------------------------

def _chain_eq_exists(a: OrdinalIndex, s: int, b: OrdinalIndex, t: int) -> bool:
    """Does a + s*n = b + t*n hold for some n >= 0?"""
    if a.limit_part() != b.limit_part():
        return False
    fa, fb = a.finite_part(), b.finite_part()
    if s == t:
        return fa == fb
    num, den = fa - fb, t - s
    return num % den == 0 and num // den >= 0


def _chain_lt_exists(a: OrdinalIndex, s: int, b: OrdinalIndex, t: int) -> bool:
    """Does a + s*n < b + t*n hold for some n >= 0?"""
    la, lb = a.limit_part(), b.limit_part()
    if la != lb:
        return la < lb
    if t > s:
        return True
    return a.finite_part() < b.finite_part()


def _affine(base: OrdinalIndex, step: int, n: int) -> Card:
    return aleph(base.plus_nat(step * n))


# ---------------------------------------------------------------------------
# Spectrum parts
# ---------------------------------------------------------------------------

class _Part:
    """Shared defaults of the spectrum parts.  A one-sided family stores one
    orientation; `flipped` mirrors each of its pairs.  A pair fails to be
    strongly asymmetric exactly when it is symmetric with infinite
    components or it is one of the four pairs over {1, aleph(0)}.  So each
    shape answers two questions, and every flag reads them:
    `has_infinite_symmetric`, does the part hold a symmetric pair with
    infinite components, and `countable_pairs`, its pairs over {1, aleph(0)}."""

    principal = False
    flipped = False

    def mirrored(self):
        return replace(self, flipped=not self.flipped)

    def pairs_below(self, bound: Card) -> Iterator[CofPair]:
        if self.flipped:
            return (p.mirrored() for p in self._pairs_below(bound))
        return self._pairs_below(bound)


@dataclass(frozen=True)
class ExplicitPairs(_Part):
    """A finite set of concrete cofinality pairs, all principal or all not."""

    pairs: Tuple[CofPair, ...]
    principal: bool = field()  # required, unlike the inherited default

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))
        for p in self.pairs:
            if p.is_principal != self.principal:
                raise DomainError(f"pair {p} does not match principal={self.principal}")

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def mirrored(self):
        return ExplicitPairs(tuple(p.mirrored() for p in self.pairs), self.principal)

    def has_infinite_symmetric(self) -> bool:
        return any(p.is_symmetric and p.left.is_infinite for p in self.pairs)

    def countable_pairs(self) -> Tuple[CofPair, ...]:
        return tuple(p for p in self.pairs if p.both_countable)

    def _pairs_below(self, bound: Card) -> Iterator[CofPair]:
        for p in self.pairs:
            if p.left < bound and p.right < bound:
                yield p

    def render(self) -> str:
        body = ", ".join(str(p) for p in self.pairs)
        return "{" + body + "}"


@dataclass(frozen=True)
class RowSeg(_Part):
    """{(fixed, l) : l in seg}; flipped, {(k, fixed) : k in seg}."""

    fixed: Card
    seg: CardSet
    flipped: bool = False

    @property
    def is_empty(self) -> bool:
        return self.seg.is_empty

    @property
    def principal(self) -> bool:
        return self.fixed.is_one

    def has_infinite_symmetric(self) -> bool:
        return self.seg.contains(self.fixed)

    def countable_pairs(self) -> Tuple[CofPair, ...]:
        if self.fixed.is_uncountable or not self.seg.contains(ALEPH0):
            return ()
        pair = CofPair(self.fixed, ALEPH0)
        return (pair.mirrored() if self.flipped else pair,)

    def _pairs_below(self, bound: Card) -> Iterator[CofPair]:
        if self.fixed < bound:
            for lam in self.seg.intersect(CardSet.segment_below(bound)).members():
                yield CofPair(self.fixed, lam)

    def render(self) -> str:
        if self.flipped:
            return f"{{(k,{self.fixed}) : k in {self.seg}}}"
        return f"{{({self.fixed},l) : l in {self.seg}}}"


@dataclass(frozen=True)
class PhiFam(_Part):
    """{(k, phi(k)) : k in seg}; flipped, {(phi(l), l) : l in seg}."""

    seg: CardSet
    phi: PhiMap
    flipped: bool = False

    @property
    def is_empty(self) -> bool:
        return self.seg.is_empty

    def has_infinite_symmetric(self) -> bool:
        return self.phi.fixed_point_in(self.seg) is not None

    def countable_pairs(self) -> Tuple[CofPair, ...]:
        if self.seg.contains(ALEPH0) and self.phi.evaluate(ALEPH0) == ALEPH0:
            return (CofPair(ALEPH0, ALEPH0),)
        return ()

    def _pairs_below(self, bound: Card) -> Iterator[CofPair]:
        for kap in self.seg.intersect(CardSet.segment_below(bound)).members():
            lam = self.phi.evaluate(kap)
            if lam < bound:
                yield CofPair(kap, lam)

    def render(self) -> str:
        if self.flipped:
            return f"{{(phi(l),l) : l in {self.seg}, phi={self.phi}}}"
        return f"{{(k,phi(k)) : k in {self.seg}, phi={self.phi}}}"


@dataclass(frozen=True)
class ChainPairs(_Part):
    """{(aleph(la + ls*n), aleph(ra + rs*n)) : n >= 0}."""

    la: OrdinalIndex
    ls: int
    ra: OrdinalIndex
    rs: int

    is_empty = False

    def mirrored(self):
        return ChainPairs(self.ra, self.rs, self.la, self.ls)

    def has_infinite_symmetric(self) -> bool:
        return _chain_eq_exists(self.la, self.ls, self.ra, self.rs)

    def countable_pairs(self) -> Tuple[CofPair, ...]:
        if self.la.is_zero and self.ra.is_zero:
            return (CofPair(ALEPH0, ALEPH0),)
        return ()

    def _pairs_below(self, bound: Card) -> Iterator[CofPair]:
        n = 0
        while True:
            left, right = _affine(self.la, self.ls, n), _affine(self.ra, self.rs, n)
            if not (left < bound and right < bound):
                return
            yield CofPair(left, right)
            if self.ls == 0 and self.rs == 0:
                return
            n += 1

    def render(self) -> str:
        return (f"{{(aleph({self.la}+{self.ls}n), aleph({self.ra}+{self.rs}n)) "
                f": n>=0}}")


@dataclass(frozen=True)
class ChainSeg(_Part):
    """{(aleph(la + ls*n), l) : l in reg<aleph(ba + bs*n), n >= 0}; flipped,
    {(k, aleph(la + ls*n)) : k in reg<aleph(ba + bs*n), n >= 0}."""

    la: OrdinalIndex
    ls: int
    ba: OrdinalIndex
    bs: int
    flipped: bool = False

    @property
    def is_empty(self) -> bool:
        return self.ba.is_zero and self.bs == 0

    def has_infinite_symmetric(self) -> bool:
        return _chain_lt_exists(self.la, self.ls, self.ba, self.bs)

    def countable_pairs(self) -> Tuple[CofPair, ...]:
        # (aleph(0), aleph(0)) at n = 0, or at a later n of a constant chain
        if self.la.is_zero and (not self.ba.is_zero or self.ls == 0 < self.bs):
            return (CofPair(ALEPH0, ALEPH0),)
        return ()

    def _pairs_below(self, bound: Card) -> Iterator[CofPair]:
        below = CardSet.segment_below(bound)
        n = 0
        while True:
            head = _affine(self.la, self.ls, n)
            if not head < bound:
                return
            seg = CardSet.segment_below(_affine(self.ba, self.bs, n)).intersect(below)
            for lam in seg.members():
                yield CofPair(head, lam)
            if self.ls == 0:
                # constant chain: stop once the inner segment saturates
                if self.bs == 0 or not _affine(self.ba, self.bs, n) < bound:
                    return
            n += 1

    def render(self) -> str:
        chain_ = f"aleph({self.la}+{self.ls}n)"
        seg = f"reg<aleph({self.ba}+{self.bs}n)"
        if self.flipped:
            return f"{{(k, {chain_}) : k in {seg}, n>=0}}"
        return f"{{({chain_}, l) : l in {seg}, n>=0}}"


SpectrumPart = Union[ExplicitPairs, RowSeg, PhiFam, ChainPairs, ChainSeg]

# sort ranks of the shapes; a flipped family ranks one after its shape
_PART_RANK = {ExplicitPairs: 0, RowSeg: 1, PhiFam: 3, ChainPairs: 5, ChainSeg: 6}


def _chain_offset(base: OrdinalIndex, step: int, other: OrdinalIndex):
    """k >= 0 with other = base + step*k, or None."""
    if base.limit_part() != other.limit_part():
        return None
    diff = other.finite_part() - base.finite_part()
    if step == 0:
        return 0 if diff == 0 else None
    if diff < 0 or diff % step:
        return None
    return diff // step


def _subsumes(a: SpectrumPart, b: SpectrumPart) -> bool:
    """True when family a contains family b (same shape, shifted base)."""
    if isinstance(a, ChainPairs) and isinstance(b, ChainPairs):
        if (a.ls, a.rs) != (b.ls, b.rs):
            return False
        kl = _chain_offset(a.la, a.ls, b.la)
        kr = _chain_offset(a.ra, a.rs, b.ra)
        return kl is not None and kl == kr
    if isinstance(a, ChainSeg) and isinstance(b, ChainSeg):
        if (a.ls, a.bs, a.flipped) != (b.ls, b.bs, b.flipped):
            return False
        kl = _chain_offset(a.la, a.ls, b.la)
        kb = _chain_offset(a.ba, a.bs, b.ba)
        return kl is not None and kl == kb
    return False


@dataclass(frozen=True)
class CutSpectrum:
    """A symbolic set of cut cofinality pairs: explicit pairs plus map- and
    chain-indexed families, kept in a normal form so that equal spectra
    compare equal structurally."""

    parts: Tuple[SpectrumPart, ...]

    @staticmethod
    def of(parts) -> "CutSpectrum":
        # explicit pairs merge by principality and rows by fixed component
        # and orientation; phi families over finitely enumerable segments
        # expand fully, and degenerate chain families collapse to simpler
        # shapes
        principal_pairs, other_pairs, rows, rest = set(), set(), {}, []
        for p in parts:
            if p.is_empty:
                continue
            if isinstance(p, ChainSeg) and p.ls == 0 and p.bs == 0:
                p = RowSeg(aleph(p.la), CardSet.segment_below(aleph(p.ba)), p.flipped)
            if isinstance(p, ExplicitPairs):
                (principal_pairs if p.principal else other_pairs).update(p.pairs)
            elif isinstance(p, RowSeg):
                rows.setdefault((p.fixed, p.flipped), []).append(p.seg)
            elif isinstance(p, PhiFam) and p.seg.is_finite():
                fam = (CofPair(k, p.phi.evaluate(k)) for k in p.seg.members())
                other_pairs.update(q.mirrored() if p.flipped else q for q in fam)
            elif isinstance(p, ChainPairs) and p.ls == 0 and p.rs == 0:
                other_pairs.add(CofPair(aleph(p.la), aleph(p.ra)))
            else:
                rest.append(p)
        out = [RowSeg(fixed, segs[0].union(*segs[1:]), flipped)
               for (fixed, flipped), segs in rows.items()]
        if principal_pairs:
            out.append(ExplicitPairs(tuple(principal_pairs), True))
        if other_pairs:
            out.append(ExplicitPairs(tuple(other_pairs), False))
        # drop chain families subsumed by another chain family
        for i, p in enumerate(rest):
            if not any(j != i and _subsumes(q, p) and not (_subsumes(p, q) and j > i)
                       for j, q in enumerate(rest)):
                out.append(p)
        uniq = sorted(set(out), key=lambda p: (_PART_RANK[type(p)] + p.flipped,
                                               p.render()))
        return CutSpectrum(tuple(uniq))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def union(self, other: "CutSpectrum") -> "CutSpectrum":
        return CutSpectrum.of(self.parts + other.parts)

    def mirrored(self) -> "CutSpectrum":
        return CutSpectrum.of(tuple(p.mirrored() for p in self.parts))

    def has_infinite_symmetric(self) -> bool:
        return any(p.has_infinite_symmetric() for p in self.parts)

    def countable_pairs(self) -> frozenset:
        """The pairs over {1, aleph(0)}: those below aleph(1)."""
        return frozenset(q for p in self.parts for q in p.countable_pairs())

    def has_nonprincipal_symmetric(self) -> bool:
        """Tag-based route: symmetric pair inside a part not tagged principal."""
        return any(p.has_infinite_symmetric() for p in self.parts if not p.principal)

    def pairs_below(self, bound: Card) -> frozenset:
        if not (bound.is_infinite and bound.index.is_finite_number()):
            raise DomainError("enumeration needs a bound aleph(n) with finite n")
        out = set()
        for p in self.parts:
            out.update(p.pairs_below(bound))
        return frozenset(out)

    def render_lines(self):
        return [p.render() for p in self.parts]

    def __str__(self) -> str:
        return " u ".join(self.render_lines()) if self.parts else "{}"


# ---------------------------------------------------------------------------
# Cut spectra of terms
# ---------------------------------------------------------------------------

def _schedule_rows(t: LexSchedule):
    """The five cofinality row families of the schedule product.  The matched
    successor row includes nu = 1: it arises as soon as both restriction sets
    at rank 0 have extremal elements."""
    s = t.schedule
    coin_i, cofin_i = coin_cofin(t.inner)
    rows = [
        ExplicitPairs((CofPair(ONE, t.mu), CofPair(t.mu, ONE)), principal=True),
        # mu_0 = 0: one side comes from a cut in I_0 = l0* + I^c + k0
        RowSeg(s.k1, coin_i.union(CardSet.segment_below(t.l0))),
        RowSeg(s.l1, cofin_i.union(CardSet.segment_below(t.k0)), True),
        # 0 < mu_0 along the base chain nu = 1 + n
        ChainSeg(s.k1.index.plus_nat(s.ksucc), s.ksucc, s.l1.index, s.lsucc),
        ChainSeg(s.l1.index.plus_nat(s.lsucc), s.lsucc, s.k1.index, s.ksucc, True),
        # both sides extremal at mu_0: (kappa_nu, lambda_nu), nu successor
        ChainPairs(s.k1.index, s.ksucc, s.l1.index, s.lsucc),
    ]
    if t.mu.is_uncountable:
        rows.extend([
            # chains restarting above each limit ordinal
            ChainSeg(s.klim.index.plus_nat(s.ksucc), s.ksucc,
                     s.llim.index, s.lsucc),
            ChainSeg(s.llim.index.plus_nat(s.lsucc), s.lsucc,
                     s.klim.index, s.ksucc, True),
            ChainPairs(s.klim.index.plus_nat(s.ksucc), s.ksucc,
                       s.llim.index.plus_nat(s.lsucc), s.lsucc),
            # cuts one-sided at a limit mu_0: the other cofinality is cf(mu_0)
            RowSeg(s.klim, CardSet.segment_below(t.mu)),
            RowSeg(s.llim, CardSet.segment_below(t.mu), True),
        ])
    return rows


def _refined_rows(t: LexRefined):
    for check in _refined_conditions(t)[:2]:    # the two range conditions
        if not check.passed:
            raise SideConditionError(check.name, check.detail)
    rl, rr = refined_rl_rr(t)
    return [
        ExplicitPairs((CofPair(ONE, t.mu), CofPair(t.mu, ONE)), principal=True),
        PhiFam(rl, t.phir),
        PhiFam(rr, t.phil, True),
    ]


def cut_spectrum(t: OrderTerm) -> CutSpectrum:
    """The exact symbolic set of cut cofinality pairs of the order."""
    return _ok(_fold(t, "_spectrum", _summands, _spectrum_rule))


def _spectrum_rule(t: OrderTerm) -> CutSpectrum:
    if isinstance(t, Empty):
        return CutSpectrum.of(())
    if isinstance(t, FiniteChain):
        if t.size < 2:
            return CutSpectrum.of(())
        return CutSpectrum.of((ExplicitPairs((CofPair(ONE, ONE),), True),))
    if isinstance(t, WellOrder):
        parts = [ExplicitPairs((CofPair(ONE, ONE),), True),
                 RowSeg(ONE, CardSet.segment_below(t.kappa), True)]
        return CutSpectrum.of(parts)
    if isinstance(t, Rev):
        return cut_spectrum(t.inner).mirrored()
    if isinstance(t, Sum):
        # the parts' spectra plus the boundary pair (cf(left), ci(right)) of
        # every sum node, normalized once; the tree is walked in preorder (a
        # node's boundary, then its left, then its right), so the first
        # error raised is the one the recursive definition meets first.  A
        # pair is built at the first sighting of its (cf, ci), so it raises
        # where the recursion would
        parts, seen, boundaries = [], set(), {}
        stack = [t]
        while stack:
            s = stack.pop()
            if isinstance(s, Sum):
                ends = (cf(s.left), ci(s.right))
                if ends not in boundaries:
                    boundaries[ends] = CofPair(*ends)
                stack.append(s.right)
                stack.append(s.left)
            elif s not in seen:
                seen.add(s)
                parts.extend(cut_spectrum(s).parts)
        parts.extend(ExplicitPairs((b,), b.is_principal) for b in boundaries.values())
        return CutSpectrum.of(parts)
    if isinstance(t, Completion):
        raise NotDerivableError(
            "the cut spectrum of a free-standing completion is not derivable; "
            "completions are only analyzed inside the lexicographic constructions")
    if isinstance(t, Atom):
        if t.cuts is None:
            raise NotDerivableError(
                f"atom {t.name} does not declare its cut spectrum")
        return CutSpectrum.of(ExplicitPairs((p,), p.is_principal) for p in t.cuts)
    _require_lex_regular(t)
    if isinstance(t, LexSchedule):
        return CutSpectrum.of(_schedule_rows(t))
    return CutSpectrum.of(_refined_rows(t))


# ---------------------------------------------------------------------------
# Side conditions of the two constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        tag = "pass" if self.passed else "fail"
        return f"{self.name}: {tag}" + (f" ({self.detail})" if self.detail else "")


def _check(name: str, passed: bool, detail: str = "") -> ConditionCheck:
    return ConditionCheck(name, passed, detail if not passed else "")


def _schedule_conditions(t: LexSchedule):
    """Conditions (a)-(c) hold when the listed rows of the spectrum hold no
    infinite symmetric pair: (a) the two rows at mu_0 = 0, (b) the chain
    segments, with k1 >= l0 and l1 >= k0, and (c) the chains of pairs."""
    s = t.schedule
    rows = _schedule_rows(t)
    a_ok = not any(r.has_infinite_symmetric() for r in rows[1:3])
    b_ok = s.k1 >= t.l0 and s.l1 >= t.k0 and not any(
        r.has_infinite_symmetric() for r in rows if isinstance(r, ChainSeg))
    c_ok = not any(r.has_infinite_symmetric() for r in rows if isinstance(r, ChainPairs))
    d_ok = (not t.mu.is_uncountable) or (s.klim >= t.mu and s.llim >= t.mu)
    return (_check("cond-a", a_ok, f"k1={s.k1} vs Coin(I)+Reg<l0={rows[1].seg}; "
                                   f"l1={s.l1} vs Cofin(I)+Reg<k0={rows[2].seg}"),
            _check("cond-b", b_ok,
                   "some kappa_{nu+1} < lambda_nu or lambda_{nu+1} < kappa_nu"),
            _check("cond-c", c_ok, "kappa_nu = lambda_nu at some successor nu"),
            _check("cond-d", d_ok, f"klim={s.klim}, llim={s.llim} below mu={t.mu}"))


def _refined_conditions(t: LexRefined):
    rl, rr = refined_rl_rr(t)
    wl = t.phil.range_violation(rr, rl)
    wr = t.phir.range_violation(rl, rr)
    both = rl.union(rr)
    fixed = t.phil.fixed_point_in(both) or t.phir.fixed_point_in(both)
    return (_check("phi-left-range", wl is None, wl),
            _check("phi-right-range", wr is None, wr),
            _check("phi-no-fixed-point", fixed is None, f"phi fixes {fixed}"))


def check_side_conditions(t: OrderTerm):
    """Per-condition verdicts for a lexicographic construction term: the
    regularity of its parameters first, and the rest only once they are
    infinite regular; `mu-uncountable` last."""
    if isinstance(t, LexSchedule):
        rest = _schedule_conditions
    elif isinstance(t, LexRefined):
        rest = _refined_conditions
    else:
        raise DomainError("side conditions apply to lexsched/lexref terms only")
    bad = _lex_regularity_failures(t)
    regular = _check("regular-params", not bad, "; ".join(bad))
    if bad:
        return (regular,)
    return (regular,) + rest(t) + (_check("mu-uncountable", t.mu.is_uncountable,
                                          f"mu={t.mu} is countable"),)


# ---------------------------------------------------------------------------
# Completeness predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Completeness:
    symmetric: bool
    strong: bool
    extreme: bool
    spherical_balls: bool


def nonprincipal_cuts_all_asymmetric(spec: CutSpectrum) -> bool:
    """Second route for the order-ball criterion: inspect components instead
    of the principal tags.  A symmetric pair without a `1` component is a
    nonprincipal symmetric cut."""
    return not spec.has_infinite_symmetric()


def completeness_predicates(t: OrderTerm) -> Completeness:
    """The four completeness notions, decided from the cut spectrum: a pair
    is symmetric when it is infinite symmetric or (1, 1), and not strongly
    asymmetric when it is infinite symmetric or countable."""
    spec, cf_t, ci_t = cut_spectrum(t), cf(t), ci(t)
    infinite_symmetric, countable = spec.has_infinite_symmetric(), spec.countable_pairs()
    symmetric = not infinite_symmetric and CofPair(ONE, ONE) not in countable
    strong = not infinite_symmetric and not countable
    extreme = strong and cf_t.is_uncountable and ci_t.is_uncountable
    spherical = not spec.has_nonprincipal_symmetric()
    return Completeness(symmetric, strong, extreme, spherical)


# ---------------------------------------------------------------------------
# Extension recipe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderExtension:
    term: LexSchedule
    mu: Card
    k1: Card
    l1: Card
    base: Card
    note: str


def extend_order(t: OrderTerm, k0: Card = aleph(1),
                 l0: Card = aleph(1)) -> OrderExtension:
    """Instantiate the recipe: mu above k0, l0 and the base derived from the
    input (see `_cardinality`), kappa_1 = mu, lambda_1 = mu^+, double
    successors, limits restarting at the nu=1 values.  The result embeds the
    input and, for uncountable k0 and l0, is extremely symmetrically complete."""
    require_infinite_regular(k0, "k0")
    require_infinite_regular(l0, "l0")
    base = _ok(_cardinality(t)[1])
    mu = succ(max(k0, l0, base))
    sched = CardinalSchedule(k1=mu, l1=succ(mu))
    term = LexSchedule(mu=mu, k0=k0, l0=l0, schedule=sched, inner=t)
    note = ("each point a of the input embeds as a sequence with first "
            "coordinate a inside I_0 = l0* + I^c + k0")
    return OrderExtension(term, mu, sched.k1, sched.l1, base, note)
