"""Cardinal notation, successor arithmetic, and card-set algebra."""

import re

import pytest
from hypothesis import given, strategies as st

from subproc import run_python
from ordercuts.cardinals import (
    ALEPH0,
    Card,
    CardSet,
    CofPair,
    ONE,
    OrdinalIndex,
    ZERO,
    aleph,
    is_regular,
    reg_below,
    succ,
)
from ordercuts.errors import DomainError


def idx(*terms):
    return OrdinalIndex(tuple(terms))


W = OrdinalIndex.omega()


class TestOrdinalIndex:
    def test_order(self):
        assert OrdinalIndex.of(3) < W < W.plus_nat(1) < idx((1, 2)) < idx((2, 1))

    def test_succ_and_pred(self):
        assert W.succ().pred() == W
        assert OrdinalIndex.of(0).succ() == OrdinalIndex.of(1)
        with pytest.raises(DomainError):
            W.pred()

    def test_plus_omega_absorbs_finite_tail(self):
        assert OrdinalIndex.of(5).plus_omega() == W
        assert W.plus_nat(3).plus_omega() == idx((1, 2))
        assert idx((2, 3), (0, 4)).plus_omega() == idx((2, 3), (1, 1))

    def test_limit_classification(self):
        assert W.is_limit and not W.is_successor
        assert W.plus_nat(1).is_successor
        assert OrdinalIndex.of(0).is_zero

    def test_render(self):
        assert str(idx((2, 3), (1, 2), (0, 5))) == "w^2*3+w*2+5"
        assert str(W) == "w"
        assert str(OrdinalIndex.of(0)) == "0"

    @pytest.mark.parametrize("build, value", [
        (lambda: aleph(1.5), "1.5"),
        (lambda: aleph("x"), "'x'"),
        (lambda: aleph(True), "True"),
        (lambda: OrdinalIndex.of(2.0), "2.0"),
        (lambda: OrdinalIndex.of(False), "False"),
        (lambda: idx((0, 1.5)), "1.5"),
        (lambda: idx((True, 1)), "True"),
    ], ids=["aleph-float", "aleph-str", "aleph-bool", "of-float", "of-bool",
            "term-float", "term-bool"])
    def test_only_exact_ints(self, build, value):
        """An index is built from exact ints only; anything else, bools
        included, is refused with the value named."""
        with pytest.raises(DomainError, match=value):
            build()


class TestRegularity:
    def test_succ_examples(self):
        assert succ(aleph(0)) == aleph(1)
        assert succ(aleph(1)) == aleph(2)
        # singular input, regular successor
        assert succ(aleph(W)) == aleph(W.plus_nat(1))
        assert is_regular(succ(aleph(W)))

    def test_succ_rejects_one(self):
        with pytest.raises(DomainError):
            succ(ONE)

    def test_is_regular(self):
        assert is_regular(ALEPH0)
        assert is_regular(aleph(2))
        assert not is_regular(aleph(W))  # cf(aleph_w) = aleph_0
        assert is_regular(ONE)

    def test_succ_increases(self):
        for c in (aleph(0), aleph(3), aleph(W), aleph(W.plus_nat(4))):
            assert succ(c) > c
            assert is_regular(succ(c))


class TestRegBelow:
    def test_examples(self):
        assert reg_below(ALEPH0).is_empty
        assert reg_below(ONE).is_empty
        assert reg_below(aleph(2)) == CardSet.of(aleph(0), aleph(1))

    def test_segment_step(self):
        for c in (aleph(0), aleph(1), aleph(5)):
            assert reg_below(succ(c)) == reg_below(c).union(CardSet.singleton(c))


class TestCardSet:
    def test_union_absorbs_boundary(self):
        seg = reg_below(aleph(1)).union(CardSet.singleton(aleph(1)))
        assert seg == reg_below(aleph(2))
        assert seg.is_initial_segment

    def test_membership(self):
        assert reg_below(aleph(2)).contains(ALEPH0)
        assert not reg_below(aleph(2)).contains(aleph(2))
        assert not reg_below(aleph(2)).contains(ONE)

    def test_singular_gap_merge(self):
        # regulars below aleph_w plus the next regular form one segment again
        seg = CardSet.segment_below(aleph(W))
        merged = seg.union(CardSet.singleton(aleph(W.plus_nat(1))))
        assert merged == CardSet.segment_below(aleph(W.plus_nat(2)))

    def test_initial_segment_examples(self):
        assert not CardSet.singleton(aleph(1)).is_initial_segment
        assert CardSet.singleton(aleph(0)).is_initial_segment  # = reg<aleph(1)

    def test_singleton_rejects_singular(self):
        with pytest.raises(DomainError):
            CardSet.singleton(aleph(W))

    def test_members(self):
        assert list(reg_below(aleph(3)).members()) == [aleph(0), aleph(1), aleph(2)]
        with pytest.raises(DomainError):
            list(CardSet.segment_below(aleph(W)).members())

    def test_of_is_a_union_of_singletons(self):
        assert CardSet.of() == CardSet.empty()
        assert CardSet.of(aleph(1), aleph(0), aleph(1)) == reg_below(aleph(2))
        for c in (ONE, ZERO, aleph(W)):
            with pytest.raises(DomainError, match="infinite regular"):
                CardSet.of(ALEPH0, c)

    def test_union_takes_any_number_of_sets(self):
        a, b, c = reg_below(aleph(2)), CardSet.singleton(aleph(3)), CardSet.singleton(aleph(2))
        assert a.union() == a
        assert a.union(b, c) == a.union(b).union(c) == reg_below(aleph(4))


class TestCanonicalForm:
    """A set has one stored form: aleph(l) is singular for a limit l, so the
    regulars below aleph(l+1) are those below aleph(l)."""

    def test_limit_successor_bound_is_lowered(self):
        low, high = CardSet.segment_below(aleph(W)), CardSet.segment_below(aleph(W.succ()))
        assert high == low and hash(high) == hash(low)
        assert str(high) == "{reg<aleph(w)}"
        assert high.is_subset(low) and low.is_subset(high)
        assert high.sup_card() == aleph(W)

    def test_lowered_bound_absorbs_the_next_regular(self):
        seg = CardSet.normalized(W.succ(), (W.succ(), W.plus_nat(3)))
        assert seg == CardSet(W.plus_nat(2), (W.plus_nat(3),))

    @pytest.mark.parametrize("bound, extras", [
        (W.succ(), ()),                                 # reg<aleph(w+1) is reg<aleph(w)
        (OrdinalIndex.of(2), (OrdinalIndex.of(2),)),    # the next regular is absorbed
        (W, (W.succ(),)),
        (OrdinalIndex.of(3), (OrdinalIndex.of(1),)),    # an extra below the bound
        (OrdinalIndex.of(0), (OrdinalIndex.of(3), OrdinalIndex.of(2))),
        (OrdinalIndex.of(0), (OrdinalIndex.of(3), OrdinalIndex.of(3))),
        (OrdinalIndex.of(0), (W,)),                     # a singular extra
    ])
    def test_refuses_other_forms(self, bound, extras):
        with pytest.raises(DomainError, match="card set"):
            CardSet(bound, extras)

    def test_accepts_canonical_forms(self):
        for bound, extras in ((W, (W.plus_nat(2),)), (OrdinalIndex.of(2), (OrdinalIndex.of(4),)),
                              (W.plus_nat(2), ()), (OrdinalIndex.of(1), ())):
            assert CardSet.normalized(bound, extras) == CardSet(bound, extras)


small_indexes = st.integers(min_value=0, max_value=6).map(OrdinalIndex.of)
limit_indexes = st.builds(lambda c, n: OrdinalIndex.omega(1, c).plus_nat(n),
                          st.integers(1, 2), st.integers(0, 3))
indexes = st.one_of(small_indexes, limit_indexes)
regular_indexes = indexes.filter(lambda i: i.is_zero or i.is_successor)
card_sets = st.lists(
    st.one_of(indexes.map(lambda i: CardSet.segment_below(aleph(i))),
              regular_indexes.map(lambda i: CardSet.singleton(aleph(i)))),
    max_size=5).map(lambda parts: _union_all(parts))


def _union_all(parts):
    return CardSet.empty().union(*parts)


@given(card_sets, card_sets)
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(card_sets, card_sets, card_sets)
def test_union_associates(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(card_sets)
def test_union_idempotent(a):
    assert a.union(a) == a


@given(card_sets, card_sets, regular_indexes)
def test_membership_respects_ops(a, b, i):
    c = aleph(i)
    assert a.union(b).contains(c) == (a.contains(c) or b.contains(c))
    assert a.intersect(b).contains(c) == (a.contains(c) and b.contains(c))


@given(card_sets, card_sets)
def test_subset_via_intersection(a, b):
    assert a.is_subset(a.union(b))
    assert a.intersect(b).is_subset(a)


def test_derived_orders():
    assert sorted([aleph(W), aleph(0), ONE, ZERO, aleph(3)]) == \
        [ZERO, ONE, aleph(0), aleph(3), aleph(W)]
    assert sorted([CofPair(ALEPH0, ONE), CofPair(ONE, aleph(1)), CofPair(ONE, ALEPH0)]) == \
        [CofPair(ONE, ALEPH0), CofPair(ONE, aleph(1)), CofPair(ALEPH0, ONE)]


def test_cof_pair_classification():
    assert CofPair(ONE, ALEPH0).is_principal
    assert not CofPair(ONE, ALEPH0).is_strongly_asymmetric
    assert CofPair(ONE, aleph(1)).is_strongly_asymmetric
    assert CofPair(aleph(1), aleph(1)).is_symmetric
    assert not CofPair(aleph(0), aleph(1)).is_principal
    with pytest.raises(DomainError):
        CofPair(aleph(W), ONE)


# ---------------------------------------------------------------------------
# Well-formed cardinals, with hashes that repeat from run to run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rank,index,message", [
    (3, None, "cardinal ranks are 0, 1 and 2, got 3"),
    (-1, None, "cardinal ranks are 0, 1 and 2, got -1"),
    (True, None, "cardinal ranks are 0, 1 and 2, got True"),
    (2, None, "an aleph needs an ordinal index, got None"),
    (2, 0, "an aleph needs an ordinal index, got 0"),
    (1, OrdinalIndex.of(3), "the cardinal 1 takes no index, got 3"),
    (0, OrdinalIndex.of(0), "the cardinal 0 takes no index, got 0"),
], ids=["rank-3", "rank-negative", "rank-bool", "aleph-no-index", "aleph-int-index",
        "one-with-index", "zero-with-index"])
def test_malformed_cards_refused(rank, index, message):
    # Card(1, idx) would render 1 yet differ from ONE; Card(2) would render
    # aleph(None) and break is_regular
    with pytest.raises(DomainError, match=re.escape(message)):
        Card(rank, index)


HASH_PROBE = """
from ordercuts.cardinals import ALEPH0, ALEPH1, CofPair, ONE, ZERO
pairs = {CofPair(ONE, ONE), CofPair(ONE, ALEPH0), CofPair(ALEPH0, ONE),
         CofPair(ALEPH1, ALEPH0)}
print(hash(ONE), hash(ZERO), [str(p) for p in pairs])
"""


def test_card_hashes_repeat_across_runs():
    # no hash reads an address, such as that of None, so the order of a
    # set of pairs is the same in every interpreter
    first, second = run_python("-c", HASH_PROBE), run_python("-c", HASH_PROBE)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
