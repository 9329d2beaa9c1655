"""Ladder witnesses and spectrum soundness on the countable fragment."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordercuts.cardinals import ALEPH1, CardSet, CofPair, ONE, aleph
from ordercuts.errors import DomainError
from ordercuts import oracle
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
    WitnessSide,
    concretize,
    derive_cf,
    derive_ci,
    sample_cuts,
    spectrum_soundness,
    verify_witness,
)
from ordercuts.order_terms import (
    Atom,
    cf,
    chain,
    ci,
    cut_spectrum,
    rev,
    sum_of,
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

    def test_depth_below_one_rejected(self):
        for t in (sum_of(OMEGA, OMEGA_STAR), OMEGA):
            for depth in (0, -3):
                with pytest.raises(DomainError):
                    spectrum_soundness(t, depth)
        assert spectrum_soundness(OMEGA, 1).ok


class TestLexSampling:
    def test_zxz_principal_pattern(self):
        zz = LexChain((SumChain(RevChain(IntChain(0)), IntChain(0)),) * 2)
        sampled = sample_cuts(zz, depth=100, samples=40)
        principal = {p for p in sampled if p.is_principal}
        assert principal == {CofPair(ONE, ONE)}

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
    chain_ = concretize(t)
    for _, witness in term_witnesses(t):
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


def test_sampling_reaches_every_part():
    rng = random.Random(60)
    for n in range(2, 61):
        c = concretize(sum_of(*(rng.choice(SAMPLE_POOL) for _ in range(n))))
        reached = {i for i, _ in itertools.islice(c.elements(), 60)}
        assert reached == set(range(n))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [12, 60, 61, 96, 192])
def test_sample_cuts_reaches_every_part(monkeypatch, n, reverse):
    # sample_cuts probes each sampled element with one above() and one
    # below() on the top chain; under a RevChain those reach the flat sum
    # as below() and above()
    term = sum_of(*(random.Random(n).choice(SAMPLE_POOL) for _ in range(n)))
    c = concretize(rev(term) if reverse else term)
    flat = c.inner if reverse else c
    assert isinstance(flat, SumChain) and len(flat.parts) == n
    probed = []

    def recording(step):
        def wrapper(self, x):
            if self is flat:
                probed.append(x)
            return step(self, x)
        return wrapper

    monkeypatch.setattr(SumChain, "above", recording(SumChain.above))
    sample_cuts(c, depth=5)
    # sums of at most 60 parts keep the fixed 60 samples
    assert probed == list(itertools.islice(c.elements(), max(60, n)))
    assert {i for i, _ in probed} == set(range(n))


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
        assert spectrum_soundness(_rat_free_sum(random.Random(k), k)).ok
        counts[3 * k] = calls[0]
    assert counts[192] <= 5 * counts[48], counts
