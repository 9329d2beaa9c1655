"""Finite-support Hahn arithmetic: ordering, valuation, archimedean classes,
ultrametric balls, and series products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordercuts import hahn_concrete as hc
from ordercuts.chains import IntChain, LexChain, RatChain, RevChain, SumChain
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

    @pytest.mark.parametrize("a_zero,b_zero,witness", [
        (True, True, 1), (True, False, None), (False, True, None),
    ])
    def test_witness_on_zero(self, a_zero, b_zero, witness):
        """Zero is equivalent to itself, with 1 as witness, and to nothing
        else."""
        x = HahnElement.make(INT_CHAIN, [(2, 3)])
        a, b = (HahnElement.zero(INT_CHAIN) if z else x for z in (a_zero, b_zero))
        assert arch_witness(a, b) == witness

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


@pytest.mark.parametrize("chain", [IntChain(), IntChain(0, 3),
                                   LexChain((IntChain(0, 3), INT_CHAIN))],
                         ids=["Z-not-INT_CHAIN", "fin3", "lex-fin3-int"])
def test_law_failures_draw_points_by_chain_type(chain):
    """The law suite picks its point draws by the chain's type and interval,
    not by identity with the module's Z and Q."""
    assert law_failures(chain, 100, random.Random(8)) == []


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


def _canonical(v):
    """An int exactly when v is integral, a Fraction with denominator > 1
    otherwise, and never a bool."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _canonical_point(chain, p):
    """Every rat point, rat factor of a lex point and exponent component is
    canonical; an int chain's points are ints."""
    if isinstance(chain, LexChain):
        return all(_canonical_point(f, q) for f, q in zip(chain.factors, p))
    if isinstance(chain, ExponentGroup):
        return all(_canonical(q) for q in p)
    return _canonical(p)


def _assert_normal(e):
    """Sorted support, no zero coefficient, and every coefficient and every
    point in canonical form."""
    points = [p for p, _ in e.terms]
    assert all(p < q for p, q in zip(points, points[1:]))
    assert all(c != 0 and _canonical(c) for _, c in e.terms)
    assert all(_canonical_point(e.chain, p) for p in points)


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
        # one term, at the one stored form of the point, in either order
        assert b.terms == ((2, 3),) and type(b.terms[0][0]) is int
        assert (a + b).terms == ((2, 4),)
        assert type((a + b).terms[0][0]) is int
        assert type((b + a).terms[0][0]) is int
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
    # exponents as ints or Fractions, so check's canonical form is exercised too
    coord = st.one_of(st.integers(-1, 1), _EXP)
    return st.lists(st.tuples(st.tuples(*[coord] * dims), _COEFF), max_size=5)


def _series_ref(items):
    return _ref([(tuple(Fraction(q) for q in g), c) for g, c in items])


def _ref_product(ra, rb):
    prod = {}
    for g, c in ra.items():
        for h, d in rb.items():
            k = tuple(x + y for x, y in zip(g, h))
            prod[k] = prod.get(k, Fraction(0)) + c * d
    return {k: c for k, c in prod.items() if c != 0}


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
        assert dict((a * b).terms) == _ref_product(ra, rb)
        assert a.compare(b) == _ref_sign(_ref_combine(ra, rb, -1))
        for e in (a + b, a - b, a * b):
            _assert_normal(e)


# ---------------------------------------------------------------------------
# The series product kernel on integer-scaled exponents
# ---------------------------------------------------------------------------

def _assert_product(xs, ys, group):
    """a * b over `group` matches the dict-of-Fraction reference and is
    sorted and canonical, so it equals the reference term for term."""
    a, b = SeriesElement.make(group, xs), SeriesElement.make(group, ys)
    out = a * b
    assert dict(out.terms) == _ref_product(_series_ref(xs), _series_ref(ys))
    _assert_normal(out)
    return out


class _CountingFraction(Fraction):
    """A Fraction that counts the Fractions built: each one it constructs,
    and each sum it takes part in, whose result is one of its own kind."""

    made = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)

    def __add__(self, other):
        return _CountingFraction(Fraction.__add__(self, other))

    __radd__ = __add__


class TestProductKernel:
    def test_mixed_denominators_match_dict_reference(self):
        """Exponent denominators 1, 2, 3, 5, 7 and 11, so both operands scale
        by their lcm 2310 and map back through x/2310."""
        rng = random.Random(30)
        dens = (1, 2, 3, 5, 7, 11)
        for _ in range(150):
            dims = rng.randint(1, 3)
            group = ExponentGroup(dims)
            xs, ys = ([(tuple(Fraction(rng.randint(-12, 12), rng.choice(dens))
                              for _ in range(dims)), _wide_coeff(rng))
                       for _ in range(rng.randint(0, 12))] for _ in range(2))
            # every denominator occurs, in one operand or the other
            xs += [((Fraction(1, d),) * dims, 1) for d in dens[:3]]
            ys += [((Fraction(-1, d),) * dims, 2) for d in dens[3:]]
            _assert_product(xs, ys, group)

    def test_int_exponents(self):
        """With integral exponents, ints or integral Fractions, the product
        runs on the int tuples as they are and stores ints."""
        rng = random.Random(31)
        for _ in range(100):
            group = ExponentGroup(rng.randint(1, 3))
            xs, ys = ([(tuple(rng.choice((q, Fraction(q))) for q in
                              (rng.randint(-5, 5) for _ in range(group.dims))),
                        _wide_coeff(rng)) for _ in range(rng.randint(0, 10))]
                      for _ in range(2))
            out = _assert_product(xs, ys, group)
            assert all(type(q) is int for g, _ in out.terms for q in g)

    def test_dimension_zero(self):
        g = ExponentGroup(0)
        a = HahnElement.make(g, [((), Fraction(1, 2)), ((), 3)])
        assert (a * a).terms == (((), Fraction(49, 4)),)
        assert (a * HahnElement.make(g, [((), Fraction(2, 7))])).terms == (((), 1),)
        assert (a * HahnElement.zero(g)).is_zero and (HahnElement.zero(g) * a).is_zero

    def test_products_that_cancel(self):
        g = ExponentGroup(1)
        half = Fraction(1, 2)
        one_plus = HahnElement.make(g, [((0,), 1), ((half,), 1)])
        one_minus = HahnElement.make(g, [((0,), 1), ((half,), -1)])
        # (1 + t^1/2)(1 - t^1/2) = 1 - t: the middle terms cancel
        assert (one_plus * one_minus).terms == (((0,), 1), ((1,), -1))
        # every term of x*y - y*x cancels, and a zero factor gives zero
        x = HahnElement.make(g, [((Fraction(1, 3),), 1)])
        y = HahnElement.make(g, [((half,), 1)])
        assert (x * y - y * x).is_zero
        assert (x * (y - y)).is_zero

    def test_halves_sum_to_ints_in_sorted_order(self):
        g = ExponentGroup(2)
        h = Fraction(1, 2)
        a = HahnElement.make(g, [((h, -h), 1), ((3 * h, h), 2), ((-h, 5 * h), Fraction(1, 3))])
        b = HahnElement.make(g, [((h, h), 3), ((-h, -3 * h), 1)])
        out = a * b
        assert out.terms == (((-1, 1), Fraction(1, 3)), ((0, -2), 1), ((0, 3), 1),
                             ((1, -1), 2), ((1, 0), 3), ((2, 1), 6))
        assert all(type(q) is int for g_, _ in out.terms for q in g_)
        # a half that stays a half keeps its Fraction
        c = HahnElement.make(g, [((h, 0), 1)])
        assert (c * b).terms == (((0, Fraction(-3, 2)), 1), ((1, h), 3))

    def test_product_builds_one_fraction_per_distinct_output_component(self, monkeypatch):
        """Two 40-term operands make 1,600 pairs of terms, but the product
        builds a Fraction only to map each distinct output component back,
        not one per component of each pair."""
        rng = random.Random(32)
        group = ExponentGroup(2)
        pool = [(_CountingFraction(2 * i + 1, 2), _CountingFraction(3 * j + 1, 3))
                for i in range(-6, 6) for j in range(-5, 5)]
        a, b = (HahnElement.make(group, [(p, rng.randint(1, 4)) for p in rng.sample(pool, 40)])
                for _ in range(2))
        assert len(a.terms) == len(b.terms) == 40
        monkeypatch.setattr(hc, "Fraction", _CountingFraction)
        _CountingFraction.made = 0
        out = a * b
        made = _CountingFraction.made
        monkeypatch.undo()
        distinct = {q for g, _ in out.terms for q in g}
        assert made <= len(distinct) < 200
        assert dict(out.terms) == _ref_product(dict(a.terms), dict(b.terms))


def test_equal_chains_combine_and_different_chains_do_not():
    """Operands over equal chains combine whether or not the chain objects
    are the same; operands over different chains are refused."""
    c1, c2 = LexChain((INT_CHAIN, INT_CHAIN)), LexChain((INT_CHAIN, INT_CHAIN))
    assert c1 is not c2 and c1 == c2
    a = HahnElement.make(c1, [((0, 1), 1)])
    b = HahnElement.make(c2, [((0, 1), 2), ((1, 0), 1)])
    assert (a + b).terms == (((0, 1), 3), ((1, 0), 1))
    assert (a - b).terms == (((0, 1), -1), ((1, 0), -1))
    assert a.compare(b) == -1 and arch_equiv(a, b)
    g1, g2 = ExponentGroup(2), ExponentGroup(2)
    assert g1 is not g2
    t = HahnElement.make(g1, [((1, 0), 1)]) * HahnElement.make(g2, [((0, 1), 1)])
    assert t.terms == (((1, 1), 1),)
    x, y = HahnElement.make(INT_CHAIN, [(0, 1)]), HahnElement.make(RAT_CHAIN, [(0, 1)])
    for op in (lambda: x + y, lambda: x - y, lambda: x.compare(y), lambda: y < x):
        with pytest.raises(DomainError, match="different index chains"):
            op()


@pytest.mark.parametrize("items,message", [
    ([(1, 1), (Fraction(1, 2), 1), (2, 0.5)], "1/2 is not a point of int"),
    ([(1, 1), (Fraction(1, 2), 0.5)], "1/2 is not a point of int"),
    ([(1, 1), (2, 0.5), (Fraction(1, 2), 1)], "coefficient 0.5 is not an int or a Fraction"),
    ([(3, 1), (1, 2), (2, "x")], "coefficient 'x' is not an int or a Fraction"),
], ids=["bad-point-first", "bad-point-and-coefficient", "bad-coefficient-first",
        "bad-coefficient-on-valid-point"])
def test_make_reports_the_first_bad_item(items, message):
    """make checks item by item, the point before its coefficient, so the
    first bad value in the input is the one reported, from a list or a
    one-pass iterator alike."""
    for given_items in (items, iter(items)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            HahnElement.make(INT_CHAIN, given_items)


def test_make_adds_repeated_points_and_stores_canonical_forms():
    half = Fraction(1, 2)
    a = HahnElement.make(RAT_CHAIN, [(1, 2), (half, 1), (1, -2), (Fraction(4, 2), Fraction(4, 2)),
                                     (3, half), (Fraction(3), half), (-1, 0)])
    assert a.terms == ((half, 1), (2, 2), (3, 1))
    assert all(type(x) is int for x in (a.terms[1][0], a.terms[1][1], a.terms[2][0],
                                        a.terms[2][1]))
    # (2, 0) given with Fraction(2) or 2 is one point, stored with the int
    lex = LexChain((RAT_CHAIN, INT_CHAIN))
    b = HahnElement.make(lex, (((Fraction(2), 0), 1), ((1, 1), 1), ((2, 0), half)))
    assert b.terms == (((1, 1), 1), ((2, 0), Fraction(3, 2)))
    assert type(b.terms[1][0][0]) is int
    assert HahnElement.make(INT_CHAIN, [(5, 1), (5, -1)]).is_zero


@pytest.mark.parametrize("cases", [0, -3])
@pytest.mark.parametrize("chain", [INT_CHAIN, ExponentGroup(1)], ids=str)
def test_law_failures_refuse_an_empty_budget(chain, cases):
    """No cases would check nothing and report no failures."""
    with pytest.raises(DomainError, match="at least 1 case"):
        law_failures(chain, cases, random.Random(0))


_SCALAR = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
_CANON_FAMILIES = ([(chain, _items(point)) for chain, point in MERGE_FAMILIES]
                   + [(ExponentGroup(d), _series_items(d)) for d in (1, 2, 3)])


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_operation_stays_canonical(self, data):
        """Coefficients and exponent components are ints when integral and
        Fractions otherwise, after make and after every operation."""
        chain, items = data.draw(st.sampled_from(_CANON_FAMILIES))
        a = HahnElement.make(chain, data.draw(items))
        b = HahnElement.make(chain, data.draw(items))
        out = [a, b, a + b, a - b, -a, a.abs(),
               a.scale(data.draw(_SCALAR)), a.scale(2), a.scale(Fraction(2, 3))]
        if isinstance(chain, ExponentGroup):
            out.append(a * b)
        for e in out:
            _assert_normal(e)

    def test_integral_results_are_ints(self):
        half = Fraction(1, 2)
        g = ExponentGroup(2)
        cases = [
            (HahnElement.make(INT_CHAIN, [(0, half), (0, half)]), ((0, 1),)),
            (HahnElement.make(INT_CHAIN, [(0, Fraction(4, 2))]), ((0, 2),)),
            (HahnElement.make(RAT_CHAIN, [(1, half)]) + HahnElement.make(RAT_CHAIN, [(1, half)]),
             ((1, 1),)),
            (HahnElement.make(RAT_CHAIN, [(1, 3 * half)]) - HahnElement.make(RAT_CHAIN, [(1, half)]),
             ((1, 1),)),
            # half-integer exponents and coefficients whose products are integral
            (HahnElement.make(g, [((half, Fraction(-1, 2)), half)])
             * HahnElement.make(g, [((half, Fraction(5, 2)), 2)]), (((1, 2), 1),)),
            (HahnElement.make(g, [((Fraction(2), half), 1)]), (((2, half), 1),)),
            (HahnElement.make(INT_CHAIN, [(0, half)]).scale(2), ((0, 1),)),
            (HahnElement.make(INT_CHAIN, [(0, 3)]).scale(Fraction(1, 3)), ((0, 1),)),
            (HahnElement.make(INT_CHAIN, [(0, half)]).scale(Fraction(4)), ((0, 2),)),
        ]
        for e, terms in cases:
            assert e.terms == terms
            _assert_normal(e)
        assert repr(cases[1][0]) == "HahnElement(chain=IntChain(lo=None, hi=None), terms=((0, 2),))"
        assert type(cases[0][0].coeff(5)) is int and cases[0][0].coeff(5) == 0
        assert type(residue(HahnElement.zero(g))) is int and g.zero() == (0, 0)


def _wide_point(rng, chain):
    """A point from a range wide enough for a few hundred distinct terms;
    integral rat points come as ints or as Fractions."""
    if isinstance(chain, IntChain):
        lo = -1000 if chain.lo is None else chain.lo
        hi = 1000 if chain.hi is None else chain.hi - 1
        return rng.randint(lo, hi)
    if isinstance(chain, RatChain):
        q = Fraction(rng.randint(-1000, 1000), rng.randint(1, 3))
        return q.numerator if q.denominator == 1 and rng.random() < 0.5 else q
    if isinstance(chain, ExponentGroup):
        return tuple(_wide_point(rng, RAT_CHAIN) for _ in range(chain.dims))
    return tuple(_wide_point(rng, f) for f in chain.factors)


def _twin(chain, p):
    """The same point with its integral rationals written as the other
    exact type, where the chain takes both: 2 for Fraction(2) and back."""
    if isinstance(chain, RatChain):
        return Fraction(p) if type(p) is int else p.numerator if p.denominator == 1 else p
    if isinstance(chain, ExponentGroup):
        return tuple(_twin(RAT_CHAIN, q) for q in p)
    if isinstance(chain, LexChain):
        return tuple(_twin(f, q) for f, q in zip(chain.factors, p))
    return p


def _wide_coeff(rng):
    c = rng.choice((rng.randint(1, 5), Fraction(rng.randint(1, 9), rng.randint(2, 4))))
    return rng.choice((c, -c))


@pytest.mark.parametrize("seed,chain", enumerate(
    [chain for chain, _ in MERGE_FAMILIES] + [ExponentGroup(d) for d in (1, 2, 3)]),
    ids=str)
def test_lopsided_merges_match_dict_reference(seed, chain):
    """A long operand (100-300 terms; fin(5) has room for three) against a
    short one (0-8 terms), in both orders, for + and -.  The short terms
    fall below, inside and above the long support, meet its points (also
    as the equal point of the other exact type), and cancel some of them."""
    rng = random.Random(seed)
    for _ in range(30):
        pool = sorted({_wide_point(rng, chain) for _ in range(400)})
        k = min(5, len(pool) // 4)
        below, inner, above = pool[:k], pool[k:len(pool) - k], pool[len(pool) - k:]
        long_items = [(p, _wide_coeff(rng))
                      for p in rng.sample(inner, min(len(inner), rng.randint(100, 300)))]
        x = HahnElement.make(chain, long_items)
        short = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.randrange(6)
            if kind < 3:
                short.append((rng.choice((below, inner, above)[kind]), _wide_coeff(rng)))
                continue
            p, c = rng.choice(x.terms)
            p = _twin(chain, p) if rng.random() < 0.5 else p
            # kind 3 meets a point, 4 cancels it in a sum, 5 in a difference
            short.append((p, (_wide_coeff(rng), -c, c)[kind - 3]))
        y = HahnElement.make(chain, short)
        rx, ry = _ref(long_items), _ref(short)
        for a, b, ra, rb in ((x, y, rx, ry), (y, x, ry, rx)):
            for sign, out in ((1, a + b), (-1, a - b)):
                assert dict(out.terms) == _ref_combine(ra, rb, sign)
                _assert_normal(out)


# criterion 6's families and seeds
_LAW_SUITE_FAMILIES = [(INT_CHAIN, 6001), (RAT_CHAIN, 6002), (LEX2, 6003),
                       (LexChain((RAT_CHAIN, INT_CHAIN)), 6004),
                       (ExponentGroup(1), 1001), (ExponentGroup(2), 1002),
                       (ExponentGroup(3), 1003)]


def test_law_suite_draws_fixed_cases(monkeypatch):
    """The law suite's work is pinned: the same number of made elements
    and the same random stream afterwards, so a faster suite does the same
    cases, not fewer."""
    make, calls = HahnElement.make, [0]

    def counting(chain, items):
        calls[0] += 1
        return make(chain, items)

    monkeypatch.setattr(HahnElement, "make", staticmethod(counting))
    reads = []
    for chain, seed in _LAW_SUITE_FAMILIES:
        rng = random.Random(seed)
        assert law_failures(chain, 200, rng) == []
        reads.append(round(rng.random(), 12))
    assert calls[0] == 8476
    assert reads == [0.659595510351, 0.655896731301, 0.094034106162, 0.182569514909,
                     0.721288417031, 0.883337441484, 0.414329519062]


def test_arch_witness_is_exact_beyond_float_range():
    """The witness is searched from the floor of the coefficient ratio, not
    from float division, which overflows past about 1e308."""
    big = HahnElement.make(INT_CHAIN, [(0, 10 ** 400)])
    assert arch_witness(big, HahnElement.make(INT_CHAIN, [(0, 1)])) == 10 ** 400 + 1


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


@pytest.mark.parametrize("chain,items,named", [
    (INT_CHAIN, [(True, 1), (1, 1)], "True"),
    (ExponentGroup(1), [((False,), 1)], "False"),
    (RAT_CHAIN, [(True, 1)], "True"),
    (RAT_CHAIN, [(1, 0.1)], "0.1"),
    (INT_CHAIN, [(1, "x")], "'x'"),
    (INT_CHAIN, [(1, None)], "None"),
    (INT_CHAIN, [(1, False)], "False"),
], ids=["bool-int-point", "bool-exponent", "bool-rat-point", "float-coefficient",
        "str-coefficient", "none-coefficient", "bool-coefficient"])
def test_make_accepts_only_exact_values(chain, items, named):
    """A bool is no point and no coefficient, and a float, string or None is
    no coefficient: make rejects each with a DomainError naming it, instead
    of merging True into 1 or storing a float's binary expansion."""
    with pytest.raises(DomainError, match=named):
        HahnElement.make(chain, items)


@pytest.mark.parametrize("chain,stored,refused", [
    (INT_CHAIN, [(-3, -3)],
     [(Fraction(1, 2), "1/2 is not a point of int"), (True, "True is not a point of int")]),
    (RAT_CHAIN, [(5, 5), (Fraction(4, 2), 2), (Fraction(-1, 2), Fraction(-1, 2))],
     [(0.5, "0.5 is not a point of rat"), (True, "True is not a point of rat")]),
    (LexChain((RAT_CHAIN, INT_CHAIN)),
     [((Fraction(6, 3), 1), (2, 1)), ((Fraction(1, 3), 0), (Fraction(1, 3), 0))],
     [((1,), r"\(1\) is not a point of lex\(rat,int\)"),
      ((Fraction(1, 2), Fraction(1, 2)), "1/2 is not a point of int")]),
    (ExponentGroup(2),
     [((Fraction(2), Fraction(1, 2)), (2, Fraction(1, 2))), ((0, Fraction(-3, 1)), (0, -3))],
     [((1,), r"\(1\) is not an exponent of lex2"), ((1, 0.5), "0.5 is not rational")]),
], ids=["int", "rat", "lex(rat,int)", "lex2"])
def test_check_returns_the_stored_point(chain, stored, refused):
    """`check` returns a point in its one stored form, each rational an int
    when integral and a Fraction otherwise, on rat points, rat factors of
    lex points and exponent components alike, and `make` keeps that form.
    Bad points are refused with the same messages as ever."""
    for point, form in stored:
        out = chain.check(point)
        assert out == form and repr(out) == repr(form)
        assert HahnElement.make(chain, [(point, 1)]).terms == ((form, 1),)
    for point, message in refused:
        with pytest.raises(DomainError, match=f"^{message}$"):
            chain.check(point)


@pytest.mark.parametrize("k,named", [
    (0.1, "0.1"), (True, "True"), ("x", "'x'"), (None, "None"),
], ids=["float", "bool", "str", "none"])
def test_scale_accepts_only_exact_scalars(k, named):
    """scale takes the exact scalars make takes: a float is not turned into
    its binary expansion, True does not act as 1, and a string or None is a
    DomainError naming it rather than a bare ValueError or TypeError."""
    a = HahnElement.make(INT_CHAIN, [(1, 1)])
    with pytest.raises(DomainError, match=named):
        a.scale(k)


def test_scale_by_exact_scalars():
    a = HahnElement.make(INT_CHAIN, [(1, 1), (2, -3)])
    assert a.scale(Fraction(1, 2)) == HahnElement.make(INT_CHAIN, [(1, Fraction(1, 2)),
                                                                    (2, Fraction(-3, 2))])
    assert a.scale(2) == a + a
    assert a.scale(0).is_zero


@pytest.mark.parametrize("dims,named", [
    (-1, "-1"), (True, "True"), (1.5, "1.5"), ("a", "'a'"),
], ids=["negative", "bool", "float", "str"])
def test_exponent_group_dimension_checked(dims, named):
    """An exponent group needs an int dimension >= 0, not a bool: lex-1 and
    lexTrue are no groups, and a float or string is a DomainError naming it
    rather than a bare TypeError."""
    with pytest.raises(DomainError, match=named):
        ExponentGroup(dims)


def test_exponent_group_of_dimension_zero():
    """lex0 stays: the CLI accepts series(exp=lex0), a copy of Q."""
    g = ExponentGroup(0)
    assert str(g) == "lex0" and g.zero() == ()
    one = HahnElement.one(g)
    assert one * one == one


@pytest.mark.parametrize("chain,cls", [
    (SumChain(IntChain(0, 2), IntChain(0, 2)), "SumChain"),
    (RevChain(INT_CHAIN), "RevChain"),
    (LexChain((INT_CHAIN, RevChain(INT_CHAIN))), "RevChain"),
    (LexChain((RevChain(INT_CHAIN),)), "RevChain"),
], ids=["sum", "rev", "lex-with-rev-factor", "lex-of-rev"])
def test_make_over_a_chain_without_point_checks(chain, cls):
    """A chain that is no index chain cannot check points: make over it is
    a DomainError naming the chain's class, not an AttributeError, and so
    are the zero element and an element made from no points."""
    for build in (lambda: HahnElement.make(chain, [((0, 1), 1)]),
                  lambda: HahnElement.make(chain, []),
                  lambda: HahnElement.zero(chain)):
        with pytest.raises(DomainError, match=f"{cls} is not an index chain"):
            build()


def test_make_over_a_nested_lex_chain_is_refused():
    """A lex factor is an integer or a rational chain: a nested product is the
    flat one with its factors in order, so make and zero refuse a lex factor
    at once, with no walk down the nesting."""
    nested = LexChain((INT_CHAIN, LexChain((RAT_CHAIN,))))
    for build in (lambda: HahnElement.make(nested, [((1, (Fraction(1, 2),)), 1)]),
                  lambda: HahnElement.make(nested, []),
                  lambda: HahnElement.zero(nested)):
        with pytest.raises(DomainError, match="a lex factor is an IntChain or a "
                                              "RatChain, not LexChain"):
            build()
    with pytest.raises(DomainError, match="not ExponentGroup"):
        HahnElement.zero(LexChain((ExponentGroup(1),)))
    flat = LexChain((INT_CHAIN, RAT_CHAIN))
    assert HahnElement.make(flat, [((1, Fraction(1, 2)), 1)]).support() == \
        ((1, Fraction(1, 2)),)
