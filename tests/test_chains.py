"""The concrete chains shared by the Hahn layer and the ladder oracle."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from ordercuts import chains, oracle
from ordercuts.chains import ConcreteChain, IntChain, LexChain, RatChain, RevChain, SumChain
from ordercuts.errors import DomainError

INT, RAT = IntChain(), RatChain()
OMEGA = IntChain(0)


@pytest.mark.parametrize("chain", [
    IntChain(0, 1), IntChain(0, 7), INT, RAT,
    LexChain((INT, INT)), LexChain((RAT, INT)), LexChain((IntChain(0, 3), RAT)),
    LexChain((INT, IntChain(0, 2), RAT)),
], ids=str)
def test_index_chains_order_like_python(chain):
    """Hahn elements compare points with `<`: every index chain accepts the
    points it enumerates and orders them as Python does."""
    points = list(itertools.islice(chain.elements(), 200))
    for p in points:
        chain.check(p)
    for x in points:
        for y in points:
            assert chain.cmp(x, y) == (x > y) - (x < y)


def test_rat_cmp_matches_python_order_on_mixed_values():
    """`RatChain.cmp` compares by one cross-multiplication: on signed ints
    and Fractions, equal values of either type included, it agrees with
    Python's order."""
    rng = random.Random(11)

    def draw():
        n = rng.randint(-12, 12)
        if rng.random() < 0.2:
            n *= 10 ** 40
        return rng.choice((n, Fraction(n, rng.randint(1, 4)), Fraction(n)))

    pairs = [(draw(), draw()) for _ in range(5000)]
    pairs += [(x, x) for x, _ in pairs[:50]] + [(3, Fraction(6, 2)), (Fraction(-2), -2)]
    assert sum(x == y for x, y in pairs) > 100
    for x, y in pairs:
        assert RAT.cmp(x, y) == (x > y) - (x < y)


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 1), (-2, -2)])
def test_empty_integer_interval_rejected(lo, hi):
    with pytest.raises(DomainError, match="has no points"):
        IntChain(lo, hi)


# ---------------------------------------------------------------------------
# The end contract: each chain states its two ends once
# ---------------------------------------------------------------------------

_SHAPES = [
    IntChain(0, 1), IntChain(0, 7), OMEGA, INT, IntChain(None, 3), RAT,
    SumChain(IntChain(0, 3), RAT, OMEGA),
    SumChain(RevChain(OMEGA), IntChain(0, 1), INT, IntChain(0, 2)),
    LexChain((IntChain(0, 3), IntChain(0, 2))),
    LexChain((OMEGA, IntChain(0, 2))),
    LexChain((IntChain(0, 2), RAT)),
    LexChain((IntChain(None, 3), IntChain(0, 4), OMEGA)),
    # a dense factor's own midpoint, and the fallback below y in `between`
    LexChain((RAT, IntChain(0, 2))),
    LexChain((RevChain(OMEGA), IntChain(0, 2))),
    SumChain(LexChain((IntChain(0, 2), OMEGA)), IntChain(0, 1), RAT),
]
END_SHAPES = _SHAPES + [RevChain(c) for c in _SHAPES]


def _is_index(chain):
    """An index chain: int and rat chains and lex products of index chains."""
    if isinstance(chain, LexChain):
        return all(map(_is_index, chain.factors))
    return isinstance(chain, (IntChain, RatChain))


def _check_end(chain, side, extreme, beyond, sign):
    """One end of `chain`: the top end when sign is +1, the bottom end when
    it is -1, with `extreme` the greatest or least element and `beyond` the
    neighbour map that steps past that end.  An index chain also checks
    that the end's elements are its points; other chains have only the
    `check` that refuses every point."""
    check = chain.check if _is_index(chain) else (lambda p: None)
    if side.extremal is not None:
        check(side.extremal)
        assert side.extremal == extreme
        assert beyond(extreme) is None
        for x in itertools.islice(chain.elements(), 200):
            assert sign * chain.cmp(extreme, x) >= 0, x
    else:
        assert extreme is None
        rungs = list(itertools.islice(side.ladder(), 60))
        assert len(rungs) == 60
        for r in rungs:
            check(r)
        assert all(chain.cmp(b, a) == sign for a, b in zip(rungs, rungs[1:]))
        for x in itertools.islice(chain.elements(), 30):
            assert any(chain.cmp(r, x) == sign for r in rungs), x


@pytest.mark.parametrize("chain", END_SHAPES, ids=repr)
def test_each_end_is_stated_once(chain):
    """An extremal `cofinal()` is the greatest element, with nothing above
    it; a cofinal ladder rises strictly past each enumerated element, and
    the chain then has no greatest element.  `coinitial()` mirrors this."""
    _check_end(chain, chain.cofinal(), chain.greatest(), chain.above, +1)
    _check_end(chain, chain.coinitial(), chain.least(), chain.below, -1)


@pytest.mark.parametrize("chain", END_SHAPES, ids=repr)
def test_only_an_end_lacks_a_neighbour(chain):
    """The converse of the end contract: `above(x)` is None only at the
    greatest element, and `below(x)` only at the least.  So the cut just
    past a part's greatest element of a sum is the boundary cut read from
    the ends of the two parts."""
    top, bottom = chain.greatest(), chain.least()
    for x in itertools.islice(chain.elements(), 200):
        assert (chain.above(x) is None) == (top is not None and chain.cmp(x, top) == 0), x
        assert (chain.below(x) is None) == (bottom is not None and chain.cmp(x, bottom) == 0), x


# ---------------------------------------------------------------------------
# The walk contract of `ConcreteChain`, on every shape
# ---------------------------------------------------------------------------

CONTRACT_PREFIX = 30


def _sorted_prefix(chain):
    """The first CONTRACT_PREFIX enumerated elements in chain order, and
    whether they are all the chain's elements."""
    points = list(itertools.islice(chain.elements(), CONTRACT_PREFIX + 1))
    whole = len(points) <= CONTRACT_PREFIX
    points = points[:CONTRACT_PREFIX]
    return sorted(points, key=functools.cmp_to_key(chain.cmp)), whole


@pytest.mark.parametrize("chain", END_SHAPES, ids=repr)
def test_cmp_is_a_strict_total_order(chain):
    """`cmp` on the enumerated elements, sorted by it, is the order of their
    positions: antisymmetric, transitive, and 0 only on an element and
    itself, so `elements()` never repeats."""
    points, _ = _sorted_prefix(chain)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert chain.cmp(x, y) == (i > j) - (i < j), (x, y)


@pytest.mark.parametrize("chain", END_SHAPES, ids=repr)
def test_steps_lie_strictly_beyond(chain):
    """`above(x)` and `below(x)`, when not None, lie strictly above and
    below x; they need not be its neighbours."""
    for x in itertools.islice(chain.elements(), CONTRACT_PREFIX):
        up, down = chain.above(x), chain.below(x)
        assert up is None or chain.cmp(x, up) < 0, x
        assert down is None or chain.cmp(down, x) < 0, x


@pytest.mark.parametrize("chain", END_SHAPES, ids=repr)
def test_between_lies_strictly_inside(chain):
    """`between(x, y)` for x < y lies strictly inside or is None, and is
    None only when no enumerated element lies between.  On a finite shape,
    every element enumerated, it is None exactly then."""
    points, whole = _sorted_prefix(chain)
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            y = points[j]
            z = chain.between(x, y)
            if z is None:
                assert j == i + 1, (x, y)
            else:
                assert chain.cmp(x, z) < 0 < chain.cmp(y, z), (x, y, z)
                assert not whole or j > i + 1, (x, y, z)


@pytest.mark.parametrize("chain", [c for c in END_SHAPES if _is_index(c)], ids=repr)
def test_check_returns_its_stored_form(chain):
    for p in itertools.islice(chain.elements(), CONTRACT_PREFIX):
        stored = chain.check(p)
        assert repr(chain.check(stored)) == repr(stored), p


def test_lex_walks_build_no_chain(monkeypatch):
    """`below` and `coinitial` of a lex product walk its factors directly,
    as `above` and `cofinal` do, and build no mirrored product."""
    lex = LexChain((INT, IntChain(0, 2), RAT))
    points = list(itertools.islice(lex.elements(), 30))
    built = []
    for cls in (LexChain, RevChain):
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            built.append(_cls.__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    for x in points:
        lex.below(x)
    list(itertools.islice(lex.coinitial().ladder(), 8))
    assert built == []


def test_least_and_greatest_derive_from_the_ends():
    shapes = [c for c in vars(chains).values()
              if isinstance(c, type) and issubclass(c, ConcreteChain)]
    assert {SumChain, RevChain, LexChain} <= set(shapes)
    for cls in shapes:
        if cls is not ConcreteChain:
            assert "least" not in vars(cls) and "greatest" not in vars(cls), cls


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,y,mid", [
    (0, 1, Fraction(1, 2)), (-3, 4, Fraction(1, 2)), (0, 2, Fraction(1)),
    (Fraction(1, 3), 1, Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)),
])
def test_rat_midpoint_is_exact(x, y, mid):
    """`RatChain.between` is the exact midpoint, a Fraction also on int
    points, where (x + y) / 2 would be a float."""
    z = RAT.between(x, y)
    assert type(z) is Fraction and z == mid


@pytest.mark.parametrize("chain,x", [
    (LexChain((INT,)), (1,)),
    (LexChain((RAT, INT)), (Fraction(1, 2), 3)),
    (LexChain((IntChain(0, 3), IntChain(0, 2))), (2, 1)),
    pytest.param(RAT, 2, id="rat-2"),
    pytest.param(RAT, Fraction(1, 3), id="rat-1/3"),
    pytest.param(RevChain(RAT), 2, id="rev(rat)-2"),
    pytest.param(SumChain(RAT, INT), (0, 1), id="sum(rat,int)-(0, 1)"),
], ids=str)
def test_lex_between_a_point_and_itself_is_none(chain, x):
    """Nothing lies strictly between a point and itself: every chain says
    None, a lex product instead of running past its last factor into an
    IndexError, and the rationals instead of returning the point."""
    assert chain.between(x, x) is None


def test_lex_check_rewrites_only_through_a_rat_factor():
    """A lex point is rebuilt only when some factor stores its points in
    another form: over int factors `check` returns the point itself, and a
    rat factor, also inside a nested product, makes its coordinates
    canonical."""
    p = (3, -4)
    assert LexChain((INT, INT)).check(p) is p
    stored = LexChain((RAT, INT)).check((Fraction(2), 1))
    assert stored == (2, 1) and type(stored[0]) is int
    nested = LexChain((INT, LexChain((RAT,)))).check((1, (Fraction(2),)))
    assert nested == (1, (2,)) and type(nested[1][0]) is int
    with pytest.raises(DomainError, match="not a point"):
        LexChain((INT, INT)).check((1, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Homogeneity: the sampler descends a homogeneous part once per direction
# ---------------------------------------------------------------------------

HOMOGENEOUS = [c for c in END_SHAPES if c.homogeneous]


def test_only_the_rationals_claim_homogeneity():
    assert HOMOGENEOUS == [RAT, RevChain(RAT)]
    assert all(c.homogeneous is False for c in END_SHAPES if c not in HOMOGENEOUS)


@pytest.mark.parametrize("chain", HOMOGENEOUS, ids=repr)
def test_translation_is_an_automorphism_of_the_walk(chain):
    """z -> z + (y - x) takes x to y, keeps `cmp`, and maps `above`,
    `below` and `between` results to each other."""
    points = list(itertools.islice(chain.elements(), 40))
    for x, y in zip(points[:8], points[-8:]):
        def move(z):
            return z + (y - x)

        assert move(x) == y
        for z in points:
            assert move(chain.above(z)) == chain.above(move(z))
            assert move(chain.below(z)) == chain.below(move(z))
            for w in points:
                assert chain.cmp(move(z), move(w)) == chain.cmp(z, w)
                if chain.cmp(z, w) < 0:
                    assert move(chain.between(z, w)) == chain.between(move(z), move(w))


@pytest.mark.parametrize("chain", HOMOGENEOUS, ids=repr)
def test_homogeneous_descents_end_alike(chain):
    """The descents from the first n points give the pairs of the first
    point's two descents alone, for every n up to 20."""
    first = oracle._sample_part(chain, 1, 30)
    assert len(first) == 2
    assert all(oracle._sample_part(chain, n, 30) == first for n in range(2, 21))


# ---------------------------------------------------------------------------
# Exact points and bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lo,hi,bad", [(0.5, 3, "0.5"), (0, "a", "'a'"),
                                       (True, None, "True")])
def test_integer_chain_bounds_must_be_integers(lo, hi, bad):
    with pytest.raises(DomainError, match=bad):
        IntChain(lo, hi)
