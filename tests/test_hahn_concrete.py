"""Finite-support Hahn arithmetic: ordering, valuation, archimedean classes,
ultrametric balls, and series products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordercuts import hahn_concrete as hc
from ordercuts.chains import IntChain, LexChain, RatChain
from ordercuts.errors import DomainError
from ordercuts.hahn_concrete import (
    BALL_DISJOINT,
    BALL_EQUAL,
    ExponentGroup,
    HahnElement,
    INF,
    INT_CHAIN,
    RAT_CHAIN,
    SeriesElement,
    arch_equiv,
    arch_witness,
    ball,
    ball_compare,
    law_failures,
    nat_valuation,
    point_le,
    residue,
    series_valuation,
)

LEX2 = LexChain((INT_CHAIN, INT_CHAIN))
CHAINS = [INT_CHAIN, RAT_CHAIN, LEX2]


def rand_point(rng, chain):
    if chain is INT_CHAIN:
        return rng.randint(-5, 5)
    if chain is RAT_CHAIN:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    if isinstance(chain, IntChain):
        return rng.randrange(chain.lo, chain.hi)
    return tuple(rand_point(rng, f) for f in chain.factors)


def rand_elem(rng, chain, max_support=3, allow_zero=True):
    size = rng.randint(0 if allow_zero else 1, max_support)
    items = [(rand_point(rng, chain), Fraction(rng.randint(-4, 4)))
             for _ in range(size)]
    out = HahnElement.make(chain, items)
    if not allow_zero and out.is_zero:
        return HahnElement.make(chain, [(rand_point(rng, chain), Fraction(1))])
    return out


class TestGroupLaws:
    def test_additive_inverse(self):
        a = HahnElement.make(INT_CHAIN, [(0, 2), (3, -1)])
        assert (a + (-a)).is_zero

    def test_earlier_index_dominates(self):
        a = HahnElement.make(INT_CHAIN, [(1, 1)])
        b = HahnElement.make(INT_CHAIN, [(2, 100)])
        assert a > b

    def test_mismatched_chains_rejected(self):
        a = HahnElement.make(INT_CHAIN, [(0, 1)])
        b = HahnElement.make(RAT_CHAIN, [(Fraction(0), 1)])
        with pytest.raises(DomainError):
            a + b

    def test_trichotomy_random(self):
        rng = random.Random(7)
        for _ in range(10_000):
            chain = rng.choice(CHAINS)
            a, b = rand_elem(rng, chain), rand_elem(rng, chain)
            cmps = [a < b, a == b, a > b]
            assert sum(cmps) == 1

    def test_translation_invariance(self):
        rng = random.Random(8)
        for _ in range(500):
            chain = rng.choice(CHAINS)
            a, b, c = (rand_elem(rng, chain) for _ in range(3))
            assert (a < b) == (a + c < b + c)

    def test_support_stays_finite_and_bounded(self):
        rng = random.Random(19)
        for _ in range(500):
            chain = rng.choice(CHAINS)
            a, b = rand_elem(rng, chain), rand_elem(rng, chain)
            merged = set(a.support()) | set(b.support())
            assert set((a + b).support()) <= merged


class TestValuation:
    def test_zero_is_infinite(self):
        assert nat_valuation(HahnElement.zero(INT_CHAIN)) is INF

    def test_min_support(self):
        a = HahnElement.make(INT_CHAIN, [(3, -2), (7, 1)])
        assert nat_valuation(a) == 3

    def test_ultrametric_triangle_random(self):
        rng = random.Random(9)
        for _ in range(1000):
            chain = rng.choice(CHAINS)
            a, b = rand_elem(rng, chain), rand_elem(rng, chain)
            va, vb, vdiff = nat_valuation(a), nat_valuation(b), nat_valuation(a - b)
            low = va if point_le(va, vb) else vb
            assert point_le(low, vdiff)
            if va != vb:
                assert vdiff == low

    def test_order_compatibility(self):
        rng = random.Random(10)
        zero = HahnElement.zero(INT_CHAIN)
        for _ in range(500):
            a, b = rand_elem(rng, INT_CHAIN), rand_elem(rng, INT_CHAIN)
            lo, hi = sorted([a.abs(), b.abs()])
            assert zero <= lo <= hi
            assert point_le(nat_valuation(hi), nat_valuation(lo))


class TestArchimedean:
    def test_scalar_multiple(self):
        a = HahnElement.make(INT_CHAIN, [(2, 1)])
        assert arch_equiv(a, a.scale(5))
        assert arch_witness(a, a.scale(5)) is not None

    def test_lower_valuation_dominates(self):
        a = HahnElement.make(INT_CHAIN, [(1, 1)])
        b = HahnElement.make(INT_CHAIN, [(2, 100)])
        assert not arch_equiv(a, b)
        assert arch_witness(a, b) is None
        for n in (1, 10, 1000):
            assert a.abs().scale(n) > b.abs()

    def test_criterion_matches_witness_search(self):
        rng = random.Random(11)
        for _ in range(800):
            chain = rng.choice(CHAINS)
            a = rand_elem(rng, chain, allow_zero=False)
            b = rand_elem(rng, chain, allow_zero=False)
            assert arch_equiv(a, b) == (arch_witness(a, b) is not None)
            assert arch_equiv(a, b) == (nat_valuation(a) == nat_valuation(b))


class TestBalls:
    def test_contains_both_spanning_points(self):
        rng = random.Random(12)
        for _ in range(300):
            chain = rng.choice(CHAINS)
            a, b = rand_elem(rng, chain), rand_elem(rng, chain)
            B = ball(a, b)
            assert B.member(a) and B.member(b)

    def test_every_element_is_a_center(self):
        rng = random.Random(13)
        for _ in range(300):
            chain = rng.choice(CHAINS)
            a, b = rand_elem(rng, chain), rand_elem(rng, chain)
            if a == b:
                continue
            B = ball(a, b)
            x, y = _two_members(rng, chain, B)
            assert ball_compare(ball(x, y), B) in (BALL_EQUAL, "first-within-second")

    def test_degenerate_ball_is_singleton(self):
        a = HahnElement.make(INT_CHAIN, [(0, 1)])
        B = ball(a, a)
        assert B.member(a)
        assert not B.member(a + a)

    def test_nested_or_disjoint(self):
        rng = random.Random(14)
        for _ in range(300):
            chain = rng.choice(CHAINS)
            b1 = ball(rand_elem(rng, chain), rand_elem(rng, chain))
            b2 = ball(rand_elem(rng, chain), rand_elem(rng, chain))
            rel = ball_compare(b1, b2)
            if rel == BALL_DISJOINT:
                assert not b1.member(b2.center) and not b2.member(b1.center)

    def test_ball_is_coset_of_convex_subgroup(self):
        rng = random.Random(15)
        for _ in range(200):
            chain = rng.choice(CHAINS)
            a = rand_elem(rng, chain)
            b = rand_elem(rng, chain)
            if a == b:
                b = b + HahnElement.make(chain, [(rand_point(rng, chain), 1)])
            B = ball(a, b)
            x, y = _two_members(rng, chain, B)
            # translate to 0: members minus the center close under + and -
            u, v = x - a, y - a
            assert B.member(a + u + v)
            assert B.member(a - u)


def _two_members(rng, chain, B):
    out = []
    for _ in range(2):
        bump = HahnElement.make(chain, [(rand_point(rng, chain),
                                         Fraction(rng.randint(-3, 3)))])
        shift = bump if point_le(B.radius, nat_valuation(bump)) else \
            HahnElement.zero(chain)
        out.append(B.center + shift)
    return out


class TestSeries:
    def test_monomial_product(self):
        g = ExponentGroup(2)
        tg = SeriesElement.monomial(g, (Fraction(1), Fraction(0)))
        th = SeriesElement.monomial(g, (Fraction(2), Fraction(1)))
        assert tg * th == SeriesElement.monomial(g, (Fraction(3), Fraction(1)))

    def test_difference_of_squares(self):
        g = ExponentGroup(1)
        one = SeriesElement.one(g)
        t = SeriesElement.monomial(g, (Fraction(1),))
        t2 = SeriesElement.monomial(g, (Fraction(2),))
        assert (one + t) * (one - t) == one - t2

    def test_valuation_additive_random(self):
        rng = random.Random(16)
        g = ExponentGroup(2)
        for _ in range(500):
            a = _rand_series(rng, g)
            b = _rand_series(rng, g)
            if a.is_zero or b.is_zero:
                continue
            assert series_valuation(a * b) == g.add(series_valuation(a),
                                                    series_valuation(b))

    def test_positive_product(self):
        rng = random.Random(17)
        g = ExponentGroup(2)
        for _ in range(300):
            a, b = _rand_series(rng, g), _rand_series(rng, g)
            if a.is_positive and b.is_positive:
                assert (a * b).is_positive

    def test_residue(self):
        g = ExponentGroup(1)
        one = SeriesElement.one(g)
        t = SeriesElement.monomial(g, (Fraction(1),))
        assert residue(one + t + t) == 1
        assert residue(t) == 0
        with pytest.raises(DomainError):
            residue(SeriesElement.monomial(g, (Fraction(-1),)))

    def test_series_are_hahn_elements(self):
        assert SeriesElement is HahnElement
        t = HahnElement.monomial(ExponentGroup(1), (1,), Fraction(1, 2))
        assert str(t) == "series(exp=lex1; (1):1/2)"
        assert t.terms[0][0] == (Fraction(1),)

    NON_GROUP_POINTS = [
        (INT_CHAIN, 1), (RAT_CHAIN, Fraction(1, 2)), (IntChain(0, 3), 2),
        (LEX2, (1, 2)),
    ]

    @pytest.mark.parametrize("chain,point", NON_GROUP_POINTS)
    def test_product_needs_an_exponent_group(self, chain, point):
        a = HahnElement.monomial(chain, point)
        with pytest.raises(DomainError):
            a * a

    @pytest.mark.parametrize("chain,point", NON_GROUP_POINTS)
    def test_residue_needs_an_exponent_group(self, chain, point):
        with pytest.raises(DomainError, match="no residue"):
            residue(HahnElement.monomial(chain, point))

    def test_ring_laws_random(self):
        rng = random.Random(18)
        g = ExponentGroup(2)
        for _ in range(200):
            a, b, c = (_rand_series(rng, g) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _drop_least_term(mul):
    def faulty(self, other):
        out = mul(self, other)
        return HahnElement(out.chain, out.terms[1:])
    return faulty


def _greatest_point(a):
    return a.terms[-1][0] if a.terms else INF


@pytest.mark.parametrize("chain,owner,attr,fault", [
    (ExponentGroup(2), HahnElement, "__mul__", _drop_least_term(HahnElement.__mul__)),
    (INT_CHAIN, hc, "nat_valuation", _greatest_point),
    (RAT_CHAIN, hc, "arch_witness", lambda a, b: None),
    (LEX2, hc.UltraBall, "member", lambda self, x: x == self.center),
], ids=["product", "valuation", "witness", "ball"])
def test_law_failures_catch_planted_faults(monkeypatch, chain, owner, attr, fault):
    """The law suite is not vacuous: it passes on the real arithmetic and
    reports failures once one operation is broken."""
    assert law_failures(chain, 300, random.Random(8)) == []
    monkeypatch.setattr(owner, attr, fault)
    assert law_failures(chain, 300, random.Random(8))


def _rand_series(rng, group):
    items = []
    for _ in range(rng.randint(0, 3)):
        g = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                  for _ in range(group.dims))
        items.append((g, Fraction(rng.randint(-4, 4))))
    return SeriesElement.make(group, items)


# ---------------------------------------------------------------------------
# Merge arithmetic against a plain dict-of-Fraction reference
# ---------------------------------------------------------------------------

_INT_PT = st.integers(-4, 4)
# rat points mix ints with Fractions, some of them equal (2 and 2/1)
_RAT_PT = st.one_of(st.integers(-2, 2),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
MERGE_FAMILIES = [
    (INT_CHAIN, _INT_PT),
    (RAT_CHAIN, _RAT_PT),
    (IntChain(0, 5), st.integers(0, 4)),
    (LEX2, st.tuples(_INT_PT, _INT_PT)),
    (LexChain((RAT_CHAIN, INT_CHAIN)), st.tuples(_RAT_PT, st.integers(-2, 2))),
]
_COEFF = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def _items(point):
    return st.lists(st.tuples(point, _COEFF), max_size=6)


def _ref(items):
    acc = {}
    for p, c in items:
        acc[p] = acc.get(p, Fraction(0)) + Fraction(c)
    return {p: c for p, c in acc.items() if c != 0}


def _ref_combine(x, y, sign):
    out = dict(x)
    for p, c in y.items():
        out[p] = out.get(p, Fraction(0)) + sign * c
    return {p: c for p, c in out.items() if c != 0}


def _ref_sign(d):
    if not d:
        return 0
    return 1 if d[min(d)] > 0 else -1


def _assert_normal(e):
    points = [p for p, _ in e.terms]
    assert all(p < q for p, q in zip(points, points[1:]))
    assert all(type(c) is Fraction and c != 0 for _, c in e.terms)


class TestMergeArithmetic:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_dict_reference(self, data):
        chain, point = data.draw(st.sampled_from(MERGE_FAMILIES))
        xs, ys = data.draw(_items(point)), data.draw(_items(point))
        a, b = HahnElement.make(chain, xs), HahnElement.make(chain, ys)
        ra, rb = _ref(xs), _ref(ys)
        total, diff = a + b, a - b
        assert dict(total.terms) == _ref_combine(ra, rb, 1)
        assert dict(diff.terms) == _ref_combine(ra, rb, -1)
        # the validating path agrees with the merge, term for term
        assert total == HahnElement.make(chain, xs + ys)
        assert diff == HahnElement.make(chain, xs + [(p, -Fraction(c)) for p, c in ys])
        assert a.compare(b) == _ref_sign(_ref_combine(ra, rb, -1))
        assert b.compare(a) == -a.compare(b)
        assert dict(a.abs().terms) == (ra if _ref_sign(ra) >= 0
                                       else {p: -c for p, c in ra.items()})
        for e in (a, b, total, diff, a.abs()):
            _assert_normal(e)

    def test_full_cancellation(self):
        for chain, items in [(INT_CHAIN, [(0, 2), (3, -1)]),
                             (RAT_CHAIN, [(Fraction(1, 2), 1), (2, Fraction(3, 4))]),
                             (LEX2, [((1, 0), 5), ((0, 7), -2)])]:
            a = HahnElement.make(chain, items)
            neg = HahnElement.make(chain, [(p, -c) for p, c in items])
            assert (a + neg).terms == () and (a - a).terms == ()
            assert a.compare(a) == 0

    def test_equal_int_and_fraction_rat_points(self):
        a = HahnElement.make(RAT_CHAIN, [(2, 1)])
        b = HahnElement.make(RAT_CHAIN, [(Fraction(2), 3)])
        # one term, keeping the left operand's point object
        assert (a + b).terms == ((2, Fraction(4)),)
        assert type((a + b).terms[0][0]) is int
        assert type((b + a).terms[0][0]) is Fraction
        assert (a - HahnElement.make(RAT_CHAIN, [(Fraction(2), 1)])).is_zero
        assert a.compare(b) == -1 and b.compare(a) == 1

    def test_empty_operands(self):
        a = HahnElement.make(LEX2, [((0, 1), 2), ((1, -1), -3)])
        zero = HahnElement.zero(LEX2)
        assert a + zero == a and zero + a == a
        assert a - zero == a and zero - a == -a
        assert (zero + zero).is_zero and (zero - zero).is_zero
        assert zero.compare(zero) == 0
        assert a.compare(zero) == 1 and zero.compare(a) == -1
        assert zero.abs() == zero

    def test_abs_negates_at_most_once(self):
        a = HahnElement.make(INT_CHAIN, [(0, -2), (3, 5)])
        pos = a.abs()
        assert pos == -a and pos.abs() is pos

    def test_compare_rejects_mismatched_chains(self):
        a = HahnElement.make(INT_CHAIN, [(0, 1)])
        b = HahnElement.make(IntChain(0, 3), [(0, 1)])
        with pytest.raises(DomainError):
            a.compare(b)
        with pytest.raises(DomainError):
            a - b
        g1, g2 = ExponentGroup(1), ExponentGroup(2)
        with pytest.raises(DomainError):
            SeriesElement.one(g1).compare(SeriesElement.one(g2))


_EXP = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))


def _series_items(dims):
    # exponents as ints or Fractions, so make's coercion is exercised too
    coord = st.one_of(st.integers(-1, 1), _EXP)
    return st.lists(st.tuples(st.tuples(*[coord] * dims), _COEFF), max_size=5)


def _series_ref(items):
    return _ref([(tuple(Fraction(q) for q in g), c) for g, c in items])


class TestSeriesMerge:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_dict_reference(self, data):
        dims = data.draw(st.integers(1, 3))
        group = ExponentGroup(dims)
        xs, ys = data.draw(_series_items(dims)), data.draw(_series_items(dims))
        a, b = SeriesElement.make(group, xs), SeriesElement.make(group, ys)
        ra, rb = _series_ref(xs), _series_ref(ys)
        assert dict((a + b).terms) == _ref_combine(ra, rb, 1)
        assert dict((a - b).terms) == _ref_combine(ra, rb, -1)
        prod = {}
        for g, c in ra.items():
            for h, d in rb.items():
                k = tuple(x + y for x, y in zip(g, h))
                prod[k] = prod.get(k, Fraction(0)) + c * d
        assert dict((a * b).terms) == {k: c for k, c in prod.items() if c != 0}
        assert a.compare(b) == _ref_sign(_ref_combine(ra, rb, -1))
        for e in (a + b, a - b, a * b):
            _assert_normal(e)
            assert all(type(q) is Fraction for g, _ in e.terms for q in g)


def test_arithmetic_on_made_elements_runs_no_checks(monkeypatch):
    """Validation happens in make only: +, -, compare, abs and the series
    product on existing elements never re-check a point."""
    rng = random.Random(21)
    chains = [INT_CHAIN, RAT_CHAIN, IntChain(0, 7), LEX2,
              LexChain((RAT_CHAIN, INT_CHAIN))]
    elems = [rand_elem(rng, chain, max_support=5) for chain in chains for _ in range(20)]
    series = [_rand_series(rng, ExponentGroup(d)) for d in (1, 2, 3) for _ in range(20)]

    calls = [0]

    def counting(check):
        def wrapper(self, p):
            calls[0] += 1
            return check(self, p)
        return wrapper

    for cls in (IntChain, RatChain, LexChain, ExponentGroup):
        monkeypatch.setattr(cls, "check", counting(cls.check))

    for a, b in zip(elems, elems[1:]):
        if a.chain == b.chain:
            a + b, a - b, a.compare(b), a.abs(), a < b
    for a, b in zip(series, series[1:]):
        if a.chain == b.chain:
            a + b, a - b, a * b, a.compare(b)
    assert calls[0] == 0

    # make still validates every point: one lex check plus one per factor
    HahnElement.make(LEX2, [((1, 2), 1)])
    assert calls[0] == 3
