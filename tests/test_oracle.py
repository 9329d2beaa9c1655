"""Ladder witnesses and spectrum soundness on the countable fragment."""

import collections
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordercuts.cardinals import ALEPH1, CardSet, CofPair, ONE, aleph
from ordercuts.errors import DomainError
from ordercuts import cli, oracle
from ordercuts.chains import (
    ConcreteChain,
    IntChain,
    LexChain,
    RatChain,
    RevChain,
    SumChain,
)
from ordercuts.oracle import (
    CutWitness,
    WitnessRow,
    WitnessSide,
    concretize,
    derive_cf,
    derive_ci,
    sample_cuts,
    spectrum_soundness,
    term_witnesses,
    verify_witness,
)
from ordercuts.order_terms import (
    Atom,
    EMPTY,
    OrderTerm,
    Rev,
    Sum,
    cf,
    chain,
    ci,
    cut_spectrum,
    rev,
    sum_of,
    sum_parts,
    well,
)

A0 = aleph(0)
OMEGA = well(A0)
OMEGA_STAR = rev(OMEGA)

RAT_ATOM = Atom("rat", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
                (CofPair(ONE, A0), CofPair(A0, ONE), CofPair(A0, A0)))


class TestVerifyWitness:
    def test_integer_step_cut(self):
        z = concretize(sum_of(OMEGA_STAR, OMEGA))
        w = CutWitness("step", WitnessSide.at((0, 0)), WitnessSide.at((1, 0)),
                       CofPair(ONE, ONE))
        assert verify_witness(z, w, 100).ok

    def test_sqrt2_gap_any_depth(self):
        rat = RatChain()

        def lower():
            lo, hi = Fraction(1), Fraction(2)
            while True:
                mid = (lo + hi) / 2
                if mid * mid < 2:
                    lo = mid
                    yield lo
                else:
                    hi = mid

        def upper():
            lo, hi = Fraction(1), Fraction(2)
            yield hi
            while True:
                mid = (lo + hi) / 2
                if mid * mid < 2:
                    lo = mid
                else:
                    hi = mid
                    yield hi

        w = CutWitness("sqrt2", WitnessSide.via(lower), WitnessSide.via(upper),
                       CofPair(A0, A0))
        for depth in (5, 25, 100):
            assert verify_witness(rat, w, depth).ok

    def test_nat_symmetric_claims_fail(self):
        nat = IntChain(0)
        wide = CutWitness("wide", WitnessSide.via(lambda: itertools.count(0)),
                          WitnessSide.via(lambda: (10 ** 6 - n
                                                   for n in itertools.count(0))),
                          CofPair(A0, A0))
        tight = CutWitness("tight", WitnessSide.via(lambda: itertools.count(0)),
                           WitnessSide.via(lambda: (200 - n
                                                    for n in itertools.count(0))),
                           CofPair(A0, A0))
        for depth in (10, 50, 100):
            assert not verify_witness(nat, wide, depth).ok
            assert not verify_witness(nat, tight, depth).ok

    def test_malformed_ladder_reports_index(self):
        nat = IntChain(0)
        w = CutWitness("bad", WitnessSide.via(lambda: iter([0, 2, 1])),
                       WitnessSide.via(lambda: (100 - n for n in itertools.count(0))),
                       CofPair(A0, A0))
        result = verify_witness(nat, w, 10)
        assert not result.ok
        assert "index 2" in result.reason

    def test_unseparated_rejected(self):
        nat = IntChain(0)
        w = CutWitness("crossed", WitnessSide.at(10), WitnessSide.at(5),
                       CofPair(ONE, ONE))
        assert not verify_witness(nat, w, 10).ok

    def test_acceptance_monotone_in_depth(self):
        z = concretize(sum_of(OMEGA, OMEGA_STAR))
        w = CutWitness("middle",
                       WitnessSide.via(lambda: ((0, n) for n in itertools.count(0))),
                       WitnessSide.via(lambda: ((1, n) for n in itertools.count(0))),
                       CofPair(A0, A0))
        verdicts = [verify_witness(z, w, d).ok for d in (5, 20, 50, 100)]
        assert verdicts == [True, True, True, True]


class TestSoundness:
    def test_omega_plus_omega_star(self):
        report = spectrum_soundness(sum_of(OMEGA, OMEGA_STAR))
        assert report.ok
        witnessed = {r.pair for r in report.rows if r.ok}
        assert CofPair(A0, A0) in witnessed
        assert CofPair(ONE, ONE) in witnessed

    def test_omega_has_no_symmetric_witness(self):
        report = spectrum_soundness(OMEGA)
        assert report.ok
        assert {r.pair for r in report.rows} == {CofPair(ONE, ONE)}
        assert sample_cuts(concretize(OMEGA)) == frozenset({CofPair(ONE, ONE)})

    def test_rationals_atom(self):
        report = spectrum_soundness(RAT_ATOM)
        assert report.ok
        assert len(report.rows) == 3

    def test_unclaimed_pair_detected(self):
        # claim omits the middle cut: the sampler must flag it
        bad_atom = Atom("rat", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
                        (CofPair(ONE, A0), CofPair(A0, ONE)))
        report = spectrum_soundness(bad_atom)
        assert not report.ok
        assert CofPair(A0, A0) in report.unclaimed

    def test_non_concretizable_rejected(self):
        with pytest.raises(DomainError):
            spectrum_soundness(well(aleph(1)))

    def test_empty_order_has_no_cuts(self):
        # countable with no cuts: an ok report with nothing in it, though
        # the empty order has no chain to concretize
        for t in (EMPTY, chain(0), sum_of(EMPTY, rev(EMPTY))):
            report = spectrum_soundness(t)
            assert report.ok
            assert (report.rows, report.unwitnessed, report.unclaimed) == ((), (), ())
            assert report.render_lines() == []
        with pytest.raises(DomainError, match="empty is not in the concretizable"):
            concretize(EMPTY)

    def test_depth_below_one_rejected(self):
        for t in (sum_of(OMEGA, OMEGA_STAR), OMEGA):
            for depth in (0, -3):
                with pytest.raises(DomainError):
                    spectrum_soundness(t, depth)
        assert spectrum_soundness(OMEGA, 1).ok


class TestLexSampling:
    def test_zxz_principal_pattern(self, monkeypatch):
        monkeypatch.setattr(oracle, "SAMPLES", 40)
        zz = LexChain((SumChain(RevChain(IntChain(0)), IntChain(0)),) * 2)
        sampled = sample_cuts(zz, depth=100)
        principal = {p for p in sampled if p.is_principal}
        assert principal == {CofPair(ONE, ONE)}

    @pytest.mark.parametrize("chain_,expected", [
        (LexChain((IntChain(0, 3), IntChain(0, 2))), {(ONE, ONE)}),
        (LexChain((IntChain(0, 2), IntChain(0))), {(ONE, ONE), (A0, ONE)}),
        (RevChain(LexChain((IntChain(0, 2), IntChain(0)))), {(ONE, ONE), (ONE, A0)}),
    ], ids=["fin3xfin2", "fin2xomega", "rev(fin2xomega)"])
    def test_lex_sampling_without_immediate_neighbours(self, chain_, expected):
        """`above` on a product need not be the next element (on fin(3) x
        fin(2) it takes (0, 1) to (1, 1) past (1, 0)); the sampler walks
        `between` from it back toward x, so it still finds each principal
        cut's pair."""
        assert sample_cuts(chain_) == frozenset(CofPair(*p) for p in expected)

    def test_zxz_between(self):
        zz = LexChain((SumChain(RevChain(IntChain(0)), IntChain(0)),) * 2)
        a = ((1, 0), (1, 0))
        b = ((1, 1), (1, 0))
        mid = zz.between(a, b)
        assert mid is not None
        assert zz.cmp(a, mid) < 0 < zz.cmp(b, mid)


class TestDerivedCfCi:
    def test_against_symbolic(self):
        terms = [OMEGA, OMEGA_STAR, chain(1), chain(4),
                 sum_of(OMEGA_STAR, OMEGA), sum_of(OMEGA, OMEGA),
                 sum_of(chain(2), OMEGA_STAR), RAT_ATOM]
        # Z as one integer chain, against the symbolic answer for omega* + omega
        cases = [(concretize(t), t) for t in terms] + \
            [(IntChain(), sum_of(OMEGA_STAR, OMEGA))]
        for c, t in cases:
            assert derive_cf(c) == cf(t)
            assert derive_ci(c) == ci(t)
            assert sample_cuts(c) <= cut_spectrum(t).pairs_below(ALEPH1)
        assert sample_cuts(IntChain()) == \
            cut_spectrum(sum_of(OMEGA_STAR, OMEGA)).pairs_below(ALEPH1)


countable_terms = st.recursive(
    st.sampled_from([OMEGA, OMEGA_STAR, chain(1), chain(3)]),
    lambda inner: st.one_of(
        inner.map(rev),
        st.tuples(inner, inner).map(lambda ab: sum_of(*ab)),
    ),
    max_leaves=5,
)


@settings(max_examples=40, deadline=None)
@given(countable_terms)
def test_soundness_on_random_terms(t):
    report = spectrum_soundness(t, depth=60)
    assert report.ok, "\n".join(report.render_lines())


@settings(max_examples=25, deadline=None)
@given(countable_terms)
def test_witness_acceptance_monotone_in_depth(t):
    # every structural witness accepted at depth 90 is accepted below it
    from ordercuts.oracle import term_witnesses
    for _, _, checks in term_witnesses(t):
        for chain_, witness in checks:
            if verify_witness(chain_, witness, 90).ok:
                for depth in (60, 30, 10):
                    assert verify_witness(chain_, witness, depth).ok


# ---------------------------------------------------------------------------
# The flat sum chain: (part, element) addressing
# ---------------------------------------------------------------------------

def _size(c):
    if isinstance(c, IntChain):
        return c.hi
    if isinstance(c, RevChain):
        return _size(c.inner)
    return sum(_size(p) for p in c.parts)


def _position(c, x):
    """Rank of x in a finite chain built from IntChain, RevChain, SumChain."""
    if isinstance(c, IntChain):
        return x
    if isinstance(c, RevChain):
        return _size(c.inner) - 1 - _position(c.inner, x)
    i, y = x
    return sum(_size(p) for p in c.parts[:i]) + _position(c.parts[i], y)


finite_parts = st.integers(1, 4).map(chain)
finite_sums = st.lists(
    st.one_of(finite_parts, finite_parts.map(rev),
              st.lists(finite_parts, min_size=2, max_size=3)
              .map(lambda ps: rev(sum_of(*ps)))),
    min_size=2, max_size=7).map(lambda ps: sum_of(*ps))


@settings(max_examples=60, deadline=None)
@given(finite_sums)
def test_finite_sum_matches_positions(t):
    c = concretize(t)
    total = _size(c)
    elems = list(c.elements())
    pos = [_position(c, x) for x in elems]
    assert sorted(pos) == list(range(total))
    assert _position(c, c.least()) == 0
    assert _position(c, c.greatest()) == total - 1
    for x, px in zip(elems, pos):
        up, down = c.above(x), c.below(x)
        assert (up is None) == (px == total - 1)
        assert up is None or _position(c, up) == px + 1
        assert (down is None) == (px == 0)
        assert down is None or _position(c, down) == px - 1
        for y, py in zip(elems, pos):
            assert c.cmp(x, y) == (px > py) - (px < py)
            if px < py:
                z = c.between(x, y)
                assert (z is None) == (py - px == 1)
                assert z is None or px < _position(c, z) < py


mixed_parts = st.sampled_from([OMEGA, OMEGA_STAR, RAT_ATOM, rev(RAT_ATOM)])


@settings(max_examples=30, deadline=None)
@given(st.lists(mixed_parts, min_size=2, max_size=6))
def test_mixed_sum_between_is_strict(parts):
    c = concretize(sum_of(*parts))
    elems = list(itertools.islice(c.elements(), 24))
    for x in elems:
        for y in elems:
            if c.cmp(x, y) < 0:
                z = c.between(x, y)
                assert z is None or c.cmp(x, z) < 0 < c.cmp(y, z)
        up, down = c.above(x), c.below(x)
        assert up is None or c.cmp(x, up) < 0
        assert down is None or c.cmp(down, x) < 0


@pytest.mark.parametrize("term,rows", [
    (sum_of(sum_of(OMEGA, chain(2)), OMEGA_STAR), [
        "pair=(1,1) witness=left:left:well-step depth=100 verdict=pass",
        "pair=(1,1) witness=left:right:finite-step depth=100 verdict=pass",
        "pair=(aleph(0),1) witness=left:sum-boundary depth=100 verdict=pass",
        "pair=(1,1) witness=right:rev(well-step) depth=100 verdict=pass",
        "pair=(1,aleph(0)) witness=sum-boundary depth=100 verdict=pass",
    ]),
    (sum_of(OMEGA, rev(sum_of(chain(2), OMEGA))), [
        "pair=(1,1) witness=left:well-step depth=100 verdict=pass",
        "pair=(1,1) witness=right:rev(left:finite-step) depth=100 verdict=pass",
        "pair=(1,1) witness=right:rev(right:well-step) depth=100 verdict=pass",
        "pair=(1,1) witness=right:rev(sum-boundary) depth=100 verdict=pass",
        "pair=(aleph(0),aleph(0)) witness=sum-boundary depth=100 verdict=pass",
    ]),
])
def test_nested_sum_rows_pinned(term, rows):
    report = spectrum_soundness(term)
    assert report.ok
    assert report.render_lines() == rows


SAMPLE_POOL = [OMEGA, OMEGA_STAR, chain(1), chain(3), RAT_ATOM,
               rev(sum_of(chain(2), OMEGA))]


def _leaf_count(parts):
    """The flat parts of a sum of SAMPLE_POOL terms: its reversed sum has two."""
    return sum(2 if p is SAMPLE_POOL[-1] else 1 for p in parts)


def test_sampling_reaches_every_part():
    # a reversed sum part is flattened into its leaves, and a prefix of one
    # sample per flat part reaches every one of them
    rng = random.Random(60)
    for n in range(2, 61):
        parts = [rng.choice(SAMPLE_POOL) for _ in range(n)]
        c = concretize(sum_of(*parts))
        m = _leaf_count(parts)
        assert len(c.parts) == m
        reached = {i for i, _ in itertools.islice(c.elements(), max(60, m))}
        assert reached == set(range(m))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [12, 60, 61, 96, 192])
def test_sample_cuts_reaches_every_part(monkeypatch, n, reverse):
    # sample_cuts samples each part of the flat sum that concretize builds,
    # with or without a reversal around the term, by the count of samples a
    # round-robin prefix puts in it, and a homogeneous part by one sample
    rng = random.Random(n)
    parts = [rng.choice(SAMPLE_POOL) for _ in range(n)]
    term = sum_of(*parts)
    c = concretize(rev(term) if reverse else term)
    m = _leaf_count(parts)
    assert isinstance(c, SumChain) and len(c.parts) == m
    sampled = []
    sample_part = oracle._sample_part

    def recording(part, count, depth):
        sampled.append((part, count))
        return sample_part(part, count, depth)

    monkeypatch.setattr(oracle, "_sample_part", recording)
    sample_cuts(c, depth=5)
    # sums of at most 60 parts keep the fixed 60 samples
    counts = collections.Counter(
        i for i, _ in itertools.islice(c.elements(), max(oracle.SAMPLES, m)))
    assert set(counts) == set(range(m))
    expected = {(p, 1 if p.homogeneous else counts[i]) for i, p in enumerate(c.parts)}
    assert len(sampled) == len(expected) and set(sampled) == expected


def test_concretize_pushes_reversals_to_the_leaves():
    a, b = chain(2), chain(3)
    assert concretize(rev(sum_of(a, OMEGA))) == \
        SumChain(RevChain(IntChain(0)), RevChain(IntChain(0, 2)))
    assert concretize(rev(sum_of(rev(a), b))) == \
        SumChain(RevChain(IntChain(0, 3)), IntChain(0, 2))
    assert concretize(rev(OMEGA)) == RevChain(IntChain(0))
    # repeated leaves share one part object, and two reversals cancel
    c = concretize(sum_of(OMEGA, rev(sum_of(OMEGA, OMEGA_STAR)), OMEGA))
    assert c.parts[0] is c.parts[1] is c.parts[3] is c.parts[2].inner


def _rat_free_sum(rng, k):
    parts = []
    for _ in range(k):
        triple = [OMEGA, OMEGA_STAR, chain(rng.randint(1, 4))]
        rng.shuffle(triple)
        parts.extend(triple)
    return sum_of(*parts)


def test_verify_cmp_count_linear_in_parts(monkeypatch):
    # a deterministic count, not a timing: 4x the parts may cost at most 5x
    # the chain comparisons
    calls = [0]

    def counting(cmp):
        def wrapper(self, x, y):
            calls[0] += 1
            return cmp(self, x, y)
        return wrapper

    for cls in vars(oracle).values():
        if isinstance(cls, type) and issubclass(cls, ConcreteChain) \
                and "cmp" in vars(cls):
            monkeypatch.setattr(cls, "cmp", counting(cls.cmp))
    counts = {}
    for k in (16, 64):
        calls[0] = 0
        oracle._memo.clear()
        assert spectrum_soundness(_rat_free_sum(random.Random(k), k)).ok
        counts[3 * k] = calls[0]
    assert counts[192] <= 5 * counts[48], counts


def test_verify_long_sum_does_not_recurse():
    # the witness walk over the binary sum tree uses a stack, so a sum
    # of more parts than the recursion limit verifies like a short one
    report = spectrum_soundness(sum_of(*[OMEGA] * 1200), depth=5)
    assert report.ok
    names = [row.witness for row in report.rows]
    assert len(names) == 2 * 1200 - 1
    assert names[:3] == ["left:well-step", "right:left:well-step",
                         "right:right:left:well-step"]
    assert names[-1] == "sum-boundary"


@pytest.mark.usefixtures("default_recursion_limit")
def test_verify_deep_nest_does_not_recurse():
    # one walk over the term with a stack flattens a 2,000-level
    # sum(well(aleph(0)), rev(...)) nest into 2,001 parts: one witness per
    # leaf and one per boundary
    t = OMEGA
    for _ in range(2000):
        t = sum_of(OMEGA, rev(t))
    report = spectrum_soundness(t)
    assert report.ok
    names = [row.witness for row in report.rows]
    assert len(names) == 4001
    assert names[:3] == ["left:well-step", "right:rev(left:well-step)",
                         "right:rev(right:rev(left:well-step))"]
    assert names[2000] == "right:rev(" * 2000 + "well-step" + ")" * 2000
    assert names[-2:] == ["right:rev(sum-boundary)", "sum-boundary"]


# ---------------------------------------------------------------------------
# Depth and sample-count guards
# ---------------------------------------------------------------------------

def _sqrt2_witness():
    return next(w for _, name, ((_, w),) in term_witnesses(RAT_ATOM)
                if name == "rat-sqrt2-gap")


@pytest.mark.parametrize("call", [
    lambda: verify_witness(RatChain(), _sqrt2_witness(), 0),
    lambda: sample_cuts(SumChain(RatChain(), IntChain(0)), 0),
    lambda: derive_cf(IntChain(0), 0),
    lambda: derive_ci(RevChain(IntChain(0)), 0),
    lambda: spectrum_soundness(sum_of(OMEGA, OMEGA_STAR), 2.5),
    lambda: spectrum_soundness(OMEGA, True),
    lambda: verify_witness(RatChain(), _sqrt2_witness(), -1),
], ids=["verify_witness-0", "sample_cuts-0", "derive_cf-0", "derive_ci-0",
        "spectrum_soundness-float", "spectrum_soundness-bool",
        "verify_witness-negative"])
def test_bad_depth_or_samples_rejected(call):
    with pytest.raises(DomainError):
        call()


class _StubLadder(ConcreteChain):
    """Python's order on ints, with a given list as its cofinal ladder."""

    def __init__(self, rungs):
        self.rungs = rungs

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def cofinal(self):
        return WitnessSide.via(lambda: iter(self.rungs))


@pytest.mark.parametrize("rungs,reason", [([0, 1, 2], "exhausted at index 3"),
                                          ([0, 2, 1, 3], "not strictly monotone")])
def test_derive_cf_rejects_a_broken_ladder(rungs, reason):
    """A finite or non-monotone cofinal ladder is a DomainError, not a bare
    StopIteration."""
    with pytest.raises(DomainError, match=reason):
        derive_cf(_StubLadder(rungs), 10)


def test_depth_one_walks_a_step():
    # one step is enough to see the immediate successors of omega's points
    assert sample_cuts(SumChain(RatChain(), IntChain(0)), 1) == \
        frozenset({CofPair(ONE, ONE), CofPair(ONE, A0), CofPair(A0, ONE)})
    assert derive_cf(IntChain(0), 1) == A0
    assert derive_ci(IntChain(0), 1) == ONE
    assert verify_witness(RatChain(), _sqrt2_witness(), 1).ok


# ---------------------------------------------------------------------------
# Pell ladders of sqrt 2
# ---------------------------------------------------------------------------

def test_pell_ladders_close_in_on_sqrt2():
    lower = list(itertools.islice(oracle._sqrt2_lower(), 200))
    upper = list(itertools.islice(oracle._sqrt2_upper(), 200))
    for lo, hi in zip(lower, upper):
        assert lo.numerator ** 2 < 2 * lo.denominator ** 2
        assert hi.numerator ** 2 > 2 * hi.denominator ** 2
        # in lowest terms, the convergents themselves: p^2 - 2q^2 = -1 or 1
        assert lo.numerator ** 2 - 2 * lo.denominator ** 2 == -1
        assert hi.numerator ** 2 - 2 * hi.denominator ** 2 == 1
    assert lower[0] == 1 and upper[0] == Fraction(3, 2)
    assert all(a < b for a, b in zip(lower, lower[1:]))
    assert all(a > b for a, b in zip(upper, upper[1:]))
    gaps = [hi - lo for lo, hi in zip(lower, upper)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < Fraction(1, 10 ** 300)


@pytest.mark.parametrize("depth", [30, 100, 300])
def test_sqrt2_walk_draws_at_most_four_convergents_per_step(monkeypatch, depth):
    # a count, not a timing: once one ladder swallows a probe, the other is
    # not pulled further, so a round draws about one convergent per side
    drawn = [0]
    pell = oracle._pell

    def counting(p, q):
        for x in pell(p, q):
            drawn[0] += 1
            yield x

    monkeypatch.setattr(oracle, "_pell", counting)
    assert verify_witness(RatChain(), _sqrt2_witness(), depth).ok
    assert drawn[0] <= 4 * depth, drawn[0]


# ---------------------------------------------------------------------------
# Each ladder gets at most PROBE_PULLS steps per probe
# ---------------------------------------------------------------------------

def _ladder_to_one(sign, catch=None):
    """Rungs 1 - sign/(j + 1) closing in on 1 from below (sign +1) or from
    above (sign -1): 0 or 2 first, so 1 is the first probe.  Rung `catch`
    is 1 itself, which swallows that probe."""
    def rungs():
        for j in itertools.count():
            if j == catch:
                yield Fraction(1)
                return
            yield 1 - Fraction(sign, j + 1)
    return WitnessSide.via(rungs)


@pytest.mark.parametrize("side,sign", [("lower", +1), ("upper", -1)])
def test_each_ladder_captures_within_its_own_probe_pulls(side, sign):
    for catch, ok in ((1, True), (oracle.PROBE_PULLS, True),
                      (oracle.PROBE_PULLS + 1, False)):
        ladders = {"lower": _ladder_to_one(+1), "upper": _ladder_to_one(-1)}
        ladders[side] = _ladder_to_one(sign, catch)
        w = CutWitness("hand-made", ladders["lower"], ladders["upper"], CofPair(A0, A0))
        result = verify_witness(RatChain(), w, 1)
        assert result.ok == ok, (catch, result)
        assert ok or result.reason == \
            f"element {Fraction(1)!r} between the ladders is never captured"


# ---------------------------------------------------------------------------
# Verdicts shared between repeated parts equal the plain per-witness walk
# ---------------------------------------------------------------------------

DIFF_LEAVES = [OMEGA, OMEGA_STAR, chain(1), chain(3), RAT_ATOM, rev(RAT_ATOM),
               rev(sum_of(chain(2), OMEGA)), rev(sum_of(RAT_ATOM, OMEGA_STAR, RAT_ATOM))]


def _random_tree(rng, leaves):
    """A sum of the leaves, in order, over a random binary tree."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return sum_of(_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))


def _random_sums(count):
    for seed in range(count):
        rng = random.Random(seed)
        # a short pool, so leaves and adjacent pairs repeat
        pool = rng.sample(DIFF_LEAVES, 3)
        yield _random_tree(rng, [rng.choice(pool) for _ in range(rng.randint(2, 9))])


def _plain_rows(t, depth):
    rows = []
    for pair, name, checks in term_witnesses(t):
        failed = [r for r in (verify_witness(c, w, depth) for c, w in checks) if not r.ok]
        rows.append(WitnessRow(pair, name, depth, not failed,
                               failed[0].reason if failed else ""))
    return tuple(rows)


def _plain_sample_cuts(c, depth, samples=60):
    flat = c
    while isinstance(flat, RevChain):
        flat = flat.inner
    if isinstance(flat, SumChain):
        samples = max(samples, len(flat.parts))

    def descend(walk, floor, cur):
        for _ in range(depth):
            cur = walk.between(floor, cur)
            if cur is None:
                return ONE
        return A0

    def joints(c):
        if isinstance(c, RevChain):
            return {p.mirrored() for p in joints(c.inner)}
        if not isinstance(c, SumChain):
            return set()
        out = {CofPair(derive_cf(a, depth), derive_ci(b, depth))
               for a, b in zip(c.parts, c.parts[1:])}
        for part in c.parts:
            out |= joints(part)
        return out

    pairs = joints(c)
    for x in itertools.islice(c.elements(), samples):
        up, down = c.above(x), c.below(x)
        if up is not None:
            pairs.add(CofPair(ONE, descend(c, x, up)))
        if down is not None:
            pairs.add(CofPair(descend(RevChain(c), x, down), ONE))
    return frozenset(pairs)


@pytest.mark.parametrize("probe_pulls", [oracle.PROBE_PULLS, 0])
def test_shared_verdicts_match_plain_rows(monkeypatch, probe_pulls):
    # with no probe pulls, ladder witnesses fail: a shared failing verdict
    # must carry the reason of a check walked on its own
    monkeypatch.setattr(oracle, "PROBE_PULLS", probe_pulls)
    failures = 0
    for t in _random_sums(14):
        for term in (t, rev(t)):
            rows = spectrum_soundness(term, depth=30).rows
            assert rows == _plain_rows(term, 30), str(term)
            failures += sum(not r.ok for r in rows)
    assert (failures > 0) == (probe_pulls == 0)


def test_boundary_verdict_needs_both_parts():
    # an atom that claims a least element the rationals lack: its boundary
    # claims (aleph(0),1) like omega's, and must fail after omega's passed
    # at the same left part
    liar = Atom("rat", A0, ONE, CardSet.of(A0), CardSet.of(A0), A0,
                (CofPair(ONE, A0), CofPair(A0, ONE), CofPair(A0, A0)))
    t = sum_of(sum_of(OMEGA, OMEGA), liar, OMEGA, liar)
    rows = spectrum_soundness(t, depth=30).rows
    assert rows == _plain_rows(t, 30)
    boundary_verdicts = [r.ok for r in rows if r.witness.endswith("sum-boundary")]
    assert True in boundary_verdicts and False in boundary_verdicts


def test_boundary_walks_the_upper_part_end(monkeypatch):
    # a bounded decreasing ladder is no coinitial end of the rationals; the
    # boundary after omega must find that out although omega has no greatest
    # element to stop the probes below the cut
    monkeypatch.setattr(RatChain, "coinitial", lambda self: WitnessSide.via(
        lambda: (Fraction(-2) + Fraction(1, 2 ** n) for n in itertools.count(0))))
    report = spectrum_soundness(sum_of(OMEGA, RAT_ATOM), 30)
    assert not report.ok
    assert [r.ok for r in report.rows if r.witness == "sum-boundary"] == [False]


def test_shared_descents_match_plain_sampling():
    # single leaves, sums whose finite parts are sampled end to end, and
    # random sums, each upright and reversed, down to walks of one step
    terms = DIFF_LEAVES + [chain(1), sum_of(chain(1), chain(2)),
                           sum_of(chain(3), rev(chain(2)), RAT_ATOM, chain(1), OMEGA),
                           sum_of(OMEGA_STAR, chain(4), rev(RAT_ATOM), rev(chain(1)))]
    terms += list(_random_sums(14))
    for depth in (1, 2, 30):
        for t in terms:
            for c in (concretize(t), concretize(rev(t))):
                assert sample_cuts(c, depth) == _plain_sample_cuts(c, depth), (str(t), depth)


# ---------------------------------------------------------------------------
# Cost follows the distinct structure of a sum, not its length
# ---------------------------------------------------------------------------

def _rat_sum(rng, k):
    parts = []
    for _ in range(k):
        triple = [OMEGA, OMEGA_STAR, RAT_ATOM]
        rng.shuffle(triple)
        parts.extend(triple)
    return sum_of(*parts)


def test_sqrt2_ladders_walked_once_per_distinct_leaf(monkeypatch):
    starts = {"lower": 0, "upper": 0}

    def counting(side, ladder):
        def start():
            starts[side] += 1
            return ladder()
        return start

    monkeypatch.setattr(oracle, "_sqrt2_lower", counting("lower", oracle._sqrt2_lower))
    monkeypatch.setattr(oracle, "_sqrt2_upper", counting("upper", oracle._sqrt2_upper))
    for term, leaves in ((_rat_sum(random.Random(8), 8), 1),
                         (rev(_rat_sum(random.Random(5), 5)), 1),
                         (sum_of(_rat_sum(random.Random(3), 3), rev(RAT_ATOM),
                                 OMEGA, rev(RAT_ATOM)), 2)):
        starts.update(lower=0, upper=0)
        oracle._memo.clear()
        assert spectrum_soundness(term).ok
        assert starts == {"lower": leaves, "upper": leaves}


def test_one_descent_per_homogeneous_part_and_direction(monkeypatch):
    # each descent starts at a neighbour of its sample, and on a rat part,
    # upright or reversed, that neighbour is a rat above() or below(): one
    # of each per part and process, whatever the part's sample count (60
    # alone, 2 or 3 in a sum of 24 parts)
    cases = [(concretize(t), parts) for t, parts in (
        (RAT_ATOM, 1), (_rat_sum(random.Random(8), 8), 1),
        (rev(RAT_ATOM), 2), (rev(_rat_sum(random.Random(5), 5)), 2))]
    plain = [_plain_sample_cuts(c, 30) for c, _ in cases]
    steps = collections.Counter()

    def counting(name):
        step = getattr(RatChain, name)

        def wrapper(self, x):
            steps[name] += 1
            return step(self, x)
        return wrapper

    for name in ("above", "below"):
        monkeypatch.setattr(RatChain, name, counting(name))
    for (c, parts), pairs in zip(cases, plain):
        assert sample_cuts(c, 30) == pairs, str(c)
        assert steps == {"above": parts, "below": parts}, (str(c), steps)


def test_verify_cmp_count_flat_in_rat_triples(monkeypatch):
    # a deterministic count, not a timing: 8 rat triples may cost at most
    # 2x the chain comparisons of one
    calls = [0]

    def counting(cmp):
        def wrapper(self, x, y):
            calls[0] += 1
            return cmp(self, x, y)
        return wrapper

    for cls in vars(oracle).values():
        if isinstance(cls, type) and issubclass(cls, ConcreteChain) \
                and "cmp" in vars(cls):
            monkeypatch.setattr(cls, "cmp", counting(cls.cmp))
    counts = {}
    for k in (1, 8):
        calls[0] = 0
        oracle._memo.clear()
        assert spectrum_soundness(_rat_sum(random.Random(k), k)).ok
        counts[k] = calls[0]
    assert counts[8] <= 2 * counts[1], counts


def test_verify_walks_each_leaf_witness_and_part_end_once(monkeypatch):
    # a deterministic count: one walk per distinct leaf witness, and at
    # most two per distinct part, its cofinal and its coinitial end
    t = _rat_free_sum(random.Random(64), 64)
    parts = set(sum_parts(t))
    bound = sum(len(term_witnesses(part)) for part in parts) + 2 * len(parts)
    assert bound == 17
    calls = [0]
    walk = oracle.verify_witness

    def counting(chain_, witness, depth=100):
        calls[0] += 1
        return walk(chain_, witness, depth)

    monkeypatch.setattr(oracle, "verify_witness", counting)
    assert spectrum_soundness(t).ok
    assert calls[0] <= bound, calls


# ---------------------------------------------------------------------------
# One process-wide memo: every entry is what a cold walk of its key gives
# ---------------------------------------------------------------------------

def _liar(cf_, ci_):
    return Atom("rat", cf_, ci_, CardSet.of(A0), CardSet.of(A0), A0,
                (CofPair(ONE, A0), CofPair(A0, ONE), CofPair(A0, A0)))


# atoms that claim a greatest or a least element the rationals lack, so some
# boundary verdicts in the memo are failures
MEMO_LEAVES = DIFF_LEAVES + [_liar(ONE, A0), _liar(A0, ONE), rev(_liar(A0, ONE))]


def _memo_sums(count):
    """Random sums over a short pool of MEMO_LEAVES, each upright and
    reversed."""
    for seed in range(count):
        rng = random.Random(seed)
        pool = rng.sample(MEMO_LEAVES, 4)
        t = _random_tree(rng, [rng.choice(pool) for _ in range(rng.randint(2, 9))])
        yield from (t, rev(t))


def _cold(key, witnesses):
    """A fresh walk of what a memo key names.  A verdict walks its check; a
    part sample walks the first `count` elements of its part alone, as the
    plain sampler does."""
    kind, depth, c, *rest = key
    if kind == "verdict":
        return verify_witness(c, witnesses[(c, *rest)], depth)
    if kind == "cf":
        return derive_cf(c, depth)
    if kind == "ci":
        return derive_ci(c, depth)
    assert kind == "sample" and not isinstance(c, SumChain)
    return _plain_sample_cuts(c, depth, *rest)


def _samples_an_end(key):
    """A part sample that reaches the part's least or greatest element,
    past which the cut is a boundary cut of the sum."""
    if key[0] != "sample":
        return False
    _, _, part, count = key
    ends = [e for e in (part.least(), part.greatest()) if e is not None]
    return any(part.cmp(x, e) == 0 for x in itertools.islice(part.elements(), count)
               for e in ends)


def _assert_memo_is_cold(terms):
    witnesses = {(c, w.name, w.claim): w for t in terms
                 for _, _, checks in term_witnesses(t) for c, w in checks}
    kinds = set()
    for key, value in list(oracle._memo.items()):
        assert value == _cold(key, witnesses), key
        kinds.add(key[0])
    return kinds


@pytest.mark.parametrize("depth", [30, 100])
def test_memo_entries_equal_cold_walks(depth):
    terms = list(_memo_sums(12))
    for t in terms:
        spectrum_soundness(t, depth)
    assert _assert_memo_is_cold(terms) == {"verdict", "cf", "ci", "sample"}
    samples = [key for key in oracle._memo if key[0] == "sample"]
    assert {_samples_an_end(key) for key in samples} == {False, True}
    assert any(not v.ok for k, v in oracle._memo.items() if k[0] == "verdict")


@pytest.mark.parametrize("depth", [30, 100])
def test_memo_descents_match_plain_sampling(depth):
    # part samples shared across sums, those that reach a part's end
    # included, give the pairs of a plain walk of every sample
    chains = [concretize(t) for t in _memo_sums(12)]
    for c in chains + chains[::-1]:
        assert sample_cuts(c, depth) == _plain_sample_cuts(c, depth)
    assert any(map(_samples_an_end, oracle._memo))


def test_verify_reports_independent_of_item_order(workload_text):
    # countable.defs and the seed-1 countable-verify batch, one item per
    # report: forward, then reversed twice (the second time on a warm memo),
    # match items each verified on an empty memo, text and machine formats
    defs = [d for d in cli.parse_definitions(workload_text("countable_verify", 1))
            if isinstance(d[1], OrderTerm)]

    def reports(order, cold=False):
        out = {}
        for d in order:
            if cold:
                oracle._memo.clear()
            report = cli.run([d], "verify")
            out[d[0]] = (report.render_text(), report.render_machine())
        return out

    cold = reports(defs, cold=True)
    oracle._memo.clear()
    assert reports(defs) == cold
    oracle._memo.clear()
    assert reports(defs[::-1]) == cold
    assert reports(defs[::-1]) == cold


def _counting_walks(monkeypatch):
    calls = {"verify_witness": 0, "_sample_part": 0, "derive_cf": 0}
    for name in calls:
        def counting(*args, _walk=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _walk(*args)
        monkeypatch.setattr(oracle, name, counting)
    return calls


def test_equal_term_walks_nothing_again(monkeypatch):
    calls = _counting_walks(monkeypatch)
    first = spectrum_soundness(_rat_sum(random.Random(3), 3))
    assert all(calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    assert spectrum_soundness(_rat_sum(random.Random(3), 3)) == first
    assert calls == {"verify_witness": 0, "_sample_part": 0, "derive_cf": 0}


def test_other_depth_shares_no_entry(monkeypatch):
    # after a walk at depth 100, depth 30 walks and stores what it does on
    # an empty memo
    calls = _counting_walks(monkeypatch)
    t = _rat_sum(random.Random(3), 3)
    spectrum_soundness(t, 30)
    cold, stored = dict(calls), len(oracle._memo)
    oracle._memo.clear()
    spectrum_soundness(t, 100)
    at_100 = len(oracle._memo)
    calls.update(dict.fromkeys(calls, 0))
    spectrum_soundness(t, 30)
    assert calls == cold
    assert len(oracle._memo) == at_100 + stored


def test_memo_never_exceeds_its_cap():
    # a part is sampled once per count, so ten depths of the terms fill it
    terms = [t for n in range(2, 90) for t in (chain(n), sum_of(OMEGA, chain(n)))]
    first = None
    for depth in range(30, 40):
        for t in terms:
            spectrum_soundness(t, depth)
            first = first or next(iter(oracle._memo))
            assert len(oracle._memo) <= oracle._MEMO_CAP
    assert len(oracle._memo) == oracle._MEMO_CAP and first not in oracle._memo
    assert _assert_memo_is_cold(terms) >= {"verdict", "cf", "ci", "sample"}
    # the evicted entries are walked again, as on an empty memo
    for t in terms[:8]:
        assert spectrum_soundness(t, 30).rows == _plain_rows(t, 30)
        assert sample_cuts(concretize(t), 30) == _plain_sample_cuts(concretize(t), 30)
        assert len(oracle._memo) <= oracle._MEMO_CAP


# ---------------------------------------------------------------------------
# Boundary claims shared per pair of leaf entries equal a per-node walk
# ---------------------------------------------------------------------------

CLAIM_LEAVES = [OMEGA, chain(1), chain(3), RAT_ATOM,
                _liar(ONE, ONE), _liar(ONE, A0), _liar(A0, ONE)]


def _claim_tree(rng, leaves):
    """A random sum of `leaves` CLAIM_LEAVES over a binary tree, each node
    under a plain `Rev` one time in three, so reversals of sums nest."""
    if leaves == 1:
        t = rng.choice(CLAIM_LEAVES)
    else:
        cut = rng.randint(1, leaves - 1)
        t = Sum(_claim_tree(rng, cut), _claim_tree(rng, leaves - cut))
    return Rev(t) if rng.random() < 1 / 3 else t


def _claim_nest(rng, levels):
    """A term nested `levels` deep: each level a sum beside a small random
    tree, on either side, or a reversal."""
    t = _claim_tree(rng, 2)
    for _ in range(levels):
        if rng.random() < 1 / 4:
            t = Rev(t)
        else:
            other = _claim_tree(rng, rng.randint(1, 3))
            t = Sum(t, other) if rng.random() < 1 / 2 else Sum(other, t)
    return t


def _per_node_rows(t, depth):
    """The report rows of t by a plain recursion over its nodes, walking
    every check of every row.  A leaf's witnesses are walked on its part,
    reversed under an odd number of reversals; each `Sum` node claims
    (cf(left), ci(right)), mirrored under an odd number of reversals, and
    walks it at the ends of the parts beside the cut, each beside a point."""
    point, rows = IntChain(0, 1), []

    def end_check(x, y, claim):
        return verify_witness(SumChain(x, y), CutWitness(
            "sum-boundary", x.cofinal().in_part(0), y.coinitial().in_part(1), claim), depth)

    def walk(s, back, prefix, suffix):
        # the (first, last) parts of s in chain order
        if isinstance(s, Sum):
            lo = walk(s.left, back, prefix + "left:", suffix)
            hi = walk(s.right, back, prefix + "right:", suffix)
            claim = CofPair(cf(s.left), ci(s.right))
            if back:
                claim, lo, hi = claim.mirrored(), hi, lo
            result = end_check(lo[1], point, CofPair(claim.left, ONE))
            if result.ok:
                result = end_check(point, hi[0], CofPair(ONE, claim.right))
            rows.append(WitnessRow(claim, prefix + "sum-boundary" + suffix, depth,
                                   result.ok, result.reason))
            return lo[0], hi[1]
        if isinstance(s, Rev):
            return walk(s.inner, not back, prefix + "rev(", ")" + suffix)
        part = concretize(s)
        for _, _, ((_, w),) in term_witnesses(s):
            if back:
                w = CutWitness(w.name, w.upper, w.lower, w.claim.mirrored())
            result = verify_witness(RevChain(part) if back else part, w, depth)
            rows.append(WitnessRow(w.claim, prefix + w.name + suffix, depth,
                                   result.ok, result.reason))
        return (RevChain(part),) * 2 if back else (part, part)

    walk(t, False, "", "")
    return tuple(rows)


@pytest.mark.parametrize("levels", [30, 100])
def test_shared_boundary_claims_match_per_node_walk(levels):
    # random trees and nests `levels` deep, verified at depth `levels`: the
    # rows, names, claims and verdicts of the report and of term_witnesses
    # equal the per-node walk, and the liars' boundary rows still fail
    rng = random.Random(levels)
    terms = [_claim_tree(rng, rng.randint(2, 12)) for _ in range(12)]
    terms += [_claim_nest(rng, levels) for _ in range(3)]
    failures = collections.Counter()
    for t in terms:
        expected = _per_node_rows(t, levels)
        assert spectrum_soundness(t, levels).rows == expected, str(t)
        assert [(pair, name) for pair, name, _ in term_witnesses(t)] == \
            [(r.pair, r.witness) for r in expected]
        failures.update("sum-boundary" in r.witness for r in expected if not r.ok)
    assert failures[True] > 0 and failures[False] == 0, failures


def test_verify_batch_resolves_each_distinct_check_once(monkeypatch, workload_text):
    # deterministic counts on the seed-1 countable-verify batch, each item on
    # an empty memo: at most one verdict lookup per distinct check of a
    # report (the rows used to look one up per check, 4,288 in all); each
    # boundary check, which reads the entry below it or the one above it,
    # built once, so at most twice per distinct entry (they were built once
    # per distinct pair of entries, 1,482 in all, against 674); and one
    # boundary claim and check tuple per distinct pair of adjacent parts
    terms = [d[1] for d in cli.parse_definitions(workload_text("countable_verify", 1))
             if isinstance(d[1], OrderTerm)]
    lookups, cuts, entries = collections.Counter(), collections.Counter(), []
    memoized, cut, entry = oracle._memoized, oracle._cut, oracle._entry

    def counting(key, compute, *args):
        lookups[key[0]] += 1
        return memoized(key, compute, *args)

    def counting_cut(x, y, claim):
        cuts[id(x), id(y), claim] += 1
        return cut(x, y, claim)

    def counting_entry(*args):
        entries.append(entry(*args))
        return entries[-1]

    monkeypatch.setattr(oracle, "_memoized", counting)
    monkeypatch.setattr(oracle, "_cut", counting_cut)
    monkeypatch.setattr(oracle, "_entry", counting_entry)
    totals = collections.Counter()
    for t in terms:
        oracle._memo.clear()
        for counter in (lookups, cuts, entries):
            counter.clear()
        assert spectrum_soundness(t).ok
        assert max(cuts.values(), default=1) == 1, str(t)
        assert sum(cuts.values()) <= 2 * len(entries), str(t)
        totals.update(verdict=lookups["verdict"], cut=sum(cuts.values()))
        chain_, rows = oracle._flatten(t)
        checks = {(id(c), id(w)) for _, _, pair_checks in rows for c, w in pair_checks}
        assert lookups["verdict"] <= len(checks), str(t)
        parts = chain_.parts if isinstance(chain_, SumChain) else (chain_,)
        joints = {(id(a), id(b)) for a, b in zip(parts, parts[1:])}
        boundaries = [(pair, pair_checks) for pair, name, pair_checks in rows
                      if "sum-boundary" in name]
        assert len({id(pair) for pair, _ in boundaries}) <= len(joints), str(t)
        assert len({id(pair_checks) for _, pair_checks in boundaries}) <= len(joints)
    assert totals["verdict"] < 2000 and 0 < totals["cut"] < 1000, totals


# ---------------------------------------------------------------------------
# Refusals of verify_witness and the report's failure lines
# ---------------------------------------------------------------------------

def _halves(sign, rungs=None):
    """sign * 1/2^n for n = 0, 1, ...: a ladder closing in on 0 from the
    side of `sign`, cut after `rungs` rungs when given."""
    return WitnessSide.via(lambda: itertools.islice(
        (Fraction(sign, 2 ** n) for n in itertools.count(0)), rungs))


def _then(side, *rungs):
    """The ladder of `side` cut after four rungs and followed by `rungs`."""
    return WitnessSide.via(lambda: itertools.chain(
        itertools.islice(side.ladder(), 4), rungs))


@pytest.mark.parametrize("lower,upper,claim,reason", [
    (WitnessSide.at(0), WitnessSide.at(1), CofPair(ALEPH1, ONE),
     r"claim component aleph\(1\) is not finitely checkable"),
    (WitnessSide.at(0), WitnessSide.at(1), CofPair(ONE, ALEPH1),
     r"claim component aleph\(1\) is not finitely checkable"),
    (WitnessSide.at(0), _halves(+1), CofPair(A0, A0),
     r"claim aleph\(0\) needs a lower ladder"),
    (_halves(-1), WitnessSide.at(0), CofPair(A0, A0),
     r"claim aleph\(0\) needs an? upper ladder"),
    (WitnessSide.at(0), _halves(+1, 2), CofPair(ONE, A0),
     "upper ladder exhausted at index 2"),
    (WitnessSide.at(0), WitnessSide.via(lambda: iter([1, Fraction(1, 2), 2])),
     CofPair(ONE, A0), "upper ladder not strictly monotone at index 2"),
    (_halves(-1, 4), WitnessSide.at(0), CofPair(A0, ONE),
     "lower ladder exhausted while converging"),
    (WitnessSide.at(0), _halves(+1, 4), CofPair(ONE, A0),
     "upper ladder exhausted while converging"),
    (_then(_halves(-1), Fraction(-1)), WitnessSide.at(0), CofPair(A0, ONE),
     "lower ladder not strictly monotone$"),
    (WitnessSide.at(0), _then(_halves(+1), Fraction(1)), CofPair(ONE, A0),
     "upper ladder not strictly monotone$"),
    (_then(_halves(-1), Fraction(1)), WitnessSide.at(0), CofPair(A0, ONE),
     "ladders crossed while converging"),
    (WitnessSide.at(0), _then(_halves(+1), Fraction(-1)), CofPair(ONE, A0),
     "ladders crossed while converging"),
], ids=["aleph1-lower", "aleph1-upper", "aleph0-extremal-lower",
        "aleph0-extremal-upper", "upper-exhausted-early", "upper-not-monotone-early",
        "lower-exhausted-converging", "upper-exhausted-converging",
        "lower-not-monotone-converging", "upper-not-monotone-converging",
        "lower-crosses", "upper-crosses"])
def test_verify_witness_refusals(lower, upper, claim, reason):
    """On the rationals at depth 4: a claim the walk cannot check, and
    ladders that break within their first four rungs or while the walk
    pulls them toward the probes."""
    result = verify_witness(RatChain(), CutWitness("w", lower, upper, claim), 4)
    assert not result.ok
    assert re.search(reason, result.reason), result.reason


def test_report_lines_for_missing_and_unclaimed_pairs():
    row = WitnessRow(CofPair(ONE, ONE), "step", 7, True)
    report = oracle.OracleReport((row,), (CofPair(A0, A0),), (CofPair(ONE, A0),))
    assert not report.ok
    assert report.render_lines() == [
        "pair=(1,1) witness=step depth=7 verdict=pass",
        "pair=(aleph(0),aleph(0)) witness=missing depth=- verdict=fail",
        "pair=(1,aleph(0)) witness=sampled-but-unclaimed depth=- verdict=fail",
    ]
