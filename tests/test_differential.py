"""Differential checks: the symbolic deciders against brute-force models.

Each test re-derives an answer through a deliberately different mechanism
(pointwise enumeration, repeated successor application, concrete finite set
models) and compares it with the closed-form implementation.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ordercuts.cardinals import (
    ALEPH1,
    CardSet,
    CofPair,
    ONE,
    OrdinalIndex,
    aleph,
    index_is_regular,
    succ,
)
from ordercuts.order_terms import (
    Atom,
    CardinalSchedule,
    ChainPairs,
    ChainSeg,
    CutSpectrum,
    DOM_DEFAULT,
    DOM_ONE,
    DOM_SEG,
    DOM_SINGLE,
    EMPTY,
    ExplicitPairs,
    LexRefined,
    LexSchedule,
    PHI_SUCC,
    PhiFam,
    PhiMap,
    PhiPiece,
    RowSeg,
    _chain_eq_exists,
    _chain_lt_exists,
    cf,
    chain,
    check_side_conditions,
    ci,
    coin_cofin,
    cut_spectrum,
    nonprincipal_cuts_all_asymmetric,
    rev,
    sum_of,
    well,
)

# finite parts stay <= 8 and steps <= 2, so any equality/ordering transition
# along the chains happens within the first ~20 positions
BRUTE_N = 60


def affine(base: OrdinalIndex, step: int, n: int) -> OrdinalIndex:
    out = base
    for _ in range(step * n):
        out = out.succ()
    return out


limit_parts = st.sampled_from([OrdinalIndex.of(0), OrdinalIndex.omega(),
                               OrdinalIndex.omega(1, 2), OrdinalIndex.omega(2)])
finite_parts = st.integers(min_value=0, max_value=8)
steps = st.sampled_from([0, 1, 2])


def build_index(limit, fin):
    return limit.plus_nat(fin)


indexes = st.builds(build_index, limit_parts, finite_parts)


@settings(max_examples=300)
@given(indexes, steps, indexes, steps)
def test_chain_eq_exists_matches_brute_force(a, s, b, t):
    brute = any(affine(a, s, n) == affine(b, t, n) for n in range(BRUTE_N))
    assert _chain_eq_exists(a, s, b, t) == brute


@settings(max_examples=300)
@given(indexes, steps, indexes, steps)
def test_chain_lt_exists_matches_brute_force(a, s, b, t):
    brute = any(affine(a, s, n) < affine(b, t, n) for n in range(BRUTE_N))
    assert _chain_lt_exists(a, s, b, t) == brute


@settings(max_examples=300)
@given(indexes, steps, indexes, steps)
def test_chain_always_geq_matches_brute_force(a, s, b, t):
    """cond-b's "always >=" is the negation of `_chain_lt_exists`."""
    brute = all(affine(a, s, n) >= affine(b, t, n) for n in range(BRUTE_N))
    assert (not _chain_lt_exists(a, s, b, t)) == brute


# ---------------------------------------------------------------------------
# CardSet algebra against a concrete finite model
# ---------------------------------------------------------------------------

# the model universe: every index n, w+n and w*2+n with n < MODEL_DEPTH.  Drawn
# sets use n <= 12, so a set reaching into the next tier differs from every
# set that stops short of it inside the universe, and model equality is set
# equality.
TIERS = [OrdinalIndex.of(0), OrdinalIndex.omega(), OrdinalIndex.omega(1, 2)]
MODEL_DEPTH = 14
MODEL = [tier.plus_nat(n) for tier in TIERS for n in range(MODEL_DEPTH)]


def to_model(cs: CardSet) -> frozenset:
    return frozenset(i for i in MODEL if cs.contains(aleph(i)))


model_indexes = st.builds(lambda tier, n: tier.plus_nat(n), st.sampled_from(TIERS),
                          st.integers(0, 12))
small_sets = st.lists(
    st.one_of(
        model_indexes.map(lambda i: CardSet.segment_below(aleph(i))),
        model_indexes.filter(index_is_regular).map(lambda i: CardSet.singleton(aleph(i))),
    ),
    max_size=4,
).map(lambda parts: CardSet.empty().union(*parts))

W1, W2 = OrdinalIndex.omega().succ(), OrdinalIndex.omega(1, 2).succ()


@settings(max_examples=300)
@given(small_sets, small_sets)
@example(CardSet.segment_below(aleph(W1)), CardSet.segment_below(aleph(W1.limit_part())))
@example(CardSet.segment_below(aleph(W2)).union(CardSet.singleton(aleph(W2.succ()))),
         CardSet.segment_below(aleph(W2.succ().succ())))
def test_cardset_ops_match_set_model(a, b):
    ma, mb = to_model(a), to_model(b)
    assert (a == b) == (ma == mb)
    assert to_model(a.union(b)) == ma | mb
    assert to_model(a.intersect(b)) == ma & mb
    assert a.is_subset(b) == (ma <= mb)


@settings(max_examples=300)
@given(small_sets)
def test_initial_segment_matches_model(a):
    ma = to_model(a)
    downward_closed = all(j in ma for i in ma for j in MODEL if j < i and index_is_regular(j))
    assert a.is_initial_segment == downward_closed


# ---------------------------------------------------------------------------
# Schedule spectra against an independent pointwise row enumerator
# ---------------------------------------------------------------------------

def apply_rule(value, rule, times=1):
    for _ in range(times):
        for _ in range(rule):
            value = succ(value)
    return value


def brute_schedule_pairs(t: LexSchedule, bound):
    """Walk the row families pointwise with repeated successor application,
    stopping once values leave the bound."""
    s = t.schedule
    coin_i, cofin_i = _declared_coin_cofin(t.inner)
    below = CardSet.segment_below(bound)
    out = set()

    def emit(k, l):
        if k < bound and l < bound:
            out.add(CofPair(k, l))

    emit(ONE, t.mu)
    emit(t.mu, ONE)

    right0 = coin_i.union(CardSet.segment_below(t.l0)).intersect(below)
    for lam in right0.members():
        emit(s.k1, lam)
    left0 = cofin_i.union(CardSet.segment_below(t.k0)).intersect(below)
    for kap in left0.members():
        emit(kap, s.l1)

    def walk(k_start, l_start, successors_only):
        # pairs (kappa_nu, lambda_nu) plus the one-sided families at nu+1
        kv, lv = k_start, l_start
        for n in range(60):
            if successors_only or n > 0:
                emit(kv, lv)
            k_next, l_next = apply_rule(kv, s.ksucc), apply_rule(lv, s.lsucc)
            for lam in CardSet.segment_below(lv).intersect(below).members():
                emit(k_next, lam)
            for kap in CardSet.segment_below(kv).intersect(below).members():
                emit(kap, l_next)
            kv, lv = k_next, l_next
            if not (kv < bound or lv < bound):
                break

    walk(s.k1, s.l1, successors_only=True)
    if t.mu.is_uncountable:
        walk(s.klim, s.llim, successors_only=False)
        for mu_prime in CardSet.segment_below(t.mu).intersect(below).members():
            emit(s.klim, mu_prime)
            emit(mu_prime, s.llim)
    return frozenset(out)


def _declared_coin_cofin(t):
    if isinstance(t, Atom):
        return t.coin, t.cofin
    return CardSet.empty(), CardSet.empty()


A = [aleph(n) for n in range(7)]
cards = st.sampled_from(A[:5])
rules_st = st.sampled_from([0, 1, 2])
inners = st.sampled_from([
    EMPTY,
    Atom("p", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0]),
    Atom("q", A[1], A[2], CardSet.of(A[0], A[1], A[2]), CardSet.of(A[0], A[1]),
         A[2]),
])


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(A[:4]), cards, cards, cards, cards, rules_st, rules_st,
       cards, cards, inners)
def test_schedule_enumeration_matches_pointwise_walk(mu, k0, l0, k1, l1,
                                                     ks, ls, klim, llim, inner):
    sched = CardinalSchedule(k1, l1, ks, ls, klim, llim)
    t = LexSchedule(mu, k0, l0, sched, inner)
    bound = aleph(9)
    assert cut_spectrum(t).pairs_below(bound) == brute_schedule_pairs(t, bound)


# ---------------------------------------------------------------------------
# The two facts of the spectrum parts against their pair-level definitions
# ---------------------------------------------------------------------------

# every witness pair of the parts below has components under aleph(10)
PART_BOUND = aleph(14)


def _infinite_symmetric(p):
    return p.is_symmetric and p.left.is_infinite


# each flag the library derives from the two facts (an infinite symmetric
# pair, the countable pairs), read as the library reads it, against its
# definition on the pairs
FLAG_READINGS = {
    "has a symmetric pair": (lambda inf, cnt: inf or CofPair(ONE, ONE) in cnt,
                             lambda p: p.is_symmetric),
    "has a pair not strongly asymmetric": (lambda inf, cnt: inf or bool(cnt),
                                           lambda p: not p.is_strongly_asymmetric),
    "has a pair (1, l) with l countable": (
        lambda inf, cnt: any(p.left.is_one for p in cnt),
        lambda p: p.left.is_one and not p.right.is_uncountable),
    "has an infinite-left pair not strongly asymmetric": (
        lambda inf, cnt: inf or any(p.left.is_infinite for p in cnt),
        lambda p: p.left.is_infinite and not p.is_strongly_asymmetric),
}


def _fact_mismatches(facts, below):
    """The names of the facts of a part or spectrum, and of the flags read
    off them, that disagree with the enumerated pairs `below`."""
    inf, cnt = facts.has_infinite_symmetric(), set(facts.countable_pairs())
    out = []
    if inf != any(map(_infinite_symmetric, below)):
        out.append("has_infinite_symmetric")
    if cnt != {p for p in below if p.both_countable} or \
            cnt != set(facts.pairs_below(ALEPH1)):
        out.append("countable_pairs")
    for flag, (reading, definition) in FLAG_READINGS.items():
        if reading(inf, cnt) != any(map(definition, below)):
            out.append(flag)
    return out


PART_SEGS = [CardSet.empty(), CardSet.segment_below(aleph(OrdinalIndex.omega())),
             CardSet.of(A[0], A[2], A[3])] + \
    [CardSet.segment_below(aleph(i)) for i in range(1, 5)] + \
    [CardSet.singleton(aleph(i)) for i in range(4)]


def _random_phi(rng):
    """A total first-match map on {1} u Reg with values up to aleph(5)."""
    values = A[:5]
    pieces = [PhiPiece(DOM_ONE, None, rng.choice(values))]
    for i in rng.sample(range(5), rng.randint(0, 4)):
        value = PHI_SUCC if rng.random() < 0.2 else rng.choice(values)
        pieces.append(PhiPiece(DOM_SINGLE, A[i], value))
    if rng.random() < 0.5:
        pieces.append(PhiPiece(DOM_SEG, A[rng.randint(1, 4)], rng.choice(values)))
    pieces.append(PhiPiece(DOM_DEFAULT, None, rng.choice(values)))
    return PhiMap(tuple(pieces))


def _part_families():
    """Parts of every shape, in both orientations."""
    orients = (False, True)
    small = [ONE] + A[:4]
    explicit = [ExplicitPairs((CofPair(a, b),), a.is_one or b.is_one)
                for a in small for b in small]
    explicit += [ExplicitPairs((CofPair(A[0], A[1]), CofPair(A[2], A[2])), False),
                 ExplicitPairs((CofPair(ONE, A[1]), CofPair(A[0], ONE)), True)]
    idx = [OrdinalIndex.of(i) for i in range(4)]
    rng = random.Random(20131)
    phis = [_random_phi(rng) for _ in range(40)]
    return {
        "ExplicitPairs": explicit,
        "RowSeg": [RowSeg(fixed, seg, f) for fixed in small for seg in PART_SEGS
                   for f in orients],
        "PhiFam": [PhiFam(seg, phi, f) for phi in phis for seg in PART_SEGS[1:6]
                   for f in orients],
        "ChainPairs": [ChainPairs(la, ls, ra, rs) for la in idx for ra in idx
                       for ls in range(3) for rs in range(3)],
        "ChainSeg": [ChainSeg(la, ls, ba, bs, f) for la in idx for ba in idx
                     for ls in range(3) for bs in range(3) for f in orients],
    }


PART_FAMILIES = _part_families()


@pytest.mark.parametrize("shape", sorted(PART_FAMILIES))
def test_part_predicates_match_pair_definitions(shape):
    mismatches = []
    for part in PART_FAMILIES[shape]:
        below = frozenset(part.pairs_below(PART_BOUND))
        mismatches += [(part.render(), name) for name in _fact_mismatches(part, below)]
        if any(p.is_principal != part.principal for p in below):
            mismatches.append((part.render(), "principal"))
        mirror = frozenset(part.mirrored().pairs_below(PART_BOUND))
        if mirror != frozenset(p.mirrored() for p in below):
            mismatches.append((part.render(), "mirrored"))
    assert not mismatches, mismatches[:10]


SPECTRUM_DRAWS = 5000


def test_spectrum_facts_match_pair_definitions():
    """Seeded random spectra of 1-3 parts: the two facts, the flags read off
    them and the tag route agree with the enumerated pairs, and every pair
    fails to be strongly asymmetric exactly when it is symmetric with
    infinite components or both of its components are countable."""
    rng = random.Random(21)
    shapes = sorted(PART_FAMILIES)
    mismatches = []
    for _ in range(SPECTRUM_DRAWS):
        parts = [rng.choice(PART_FAMILIES[rng.choice(shapes)])
                 for _ in range(rng.randint(1, 3))]
        spec = CutSpectrum.of(parts)
        below = spec.pairs_below(PART_BOUND)
        if below != frozenset(q for p in parts for q in p.pairs_below(PART_BOUND)):
            mismatches.append((str(spec), "pairs"))
        mismatches += [(str(spec), name) for name in _fact_mismatches(spec, below)]
        tag_route = spec.has_nonprincipal_symmetric()
        if tag_route != any(p.is_symmetric and not p.is_principal for p in below) or \
                tag_route == nonprincipal_cuts_all_asymmetric(spec):
            mismatches.append((str(spec), "nonprincipal symmetric"))
        for p in below:
            if (not p.is_strongly_asymmetric) != (
                    _infinite_symmetric(p) or p.both_countable):
                mismatches.append((str(spec), str(p)))
    assert not mismatches, mismatches[:10]


# ---------------------------------------------------------------------------
# Mirror symmetry of the lexicographic constructions
# ---------------------------------------------------------------------------

# The mirror of a construction swaps the roles of its two ends (k0/l0 and the
# kappa/lambda schedule, or phil/phir) over the reversed inner order, and
# denotes the reversed product.  Every analysis must commute with that.

RAT = Atom("rat", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0],
           (CofPair(ONE, A[0]), CofPair(A[0], ONE), CofPair(A[0], A[0])))
MIRROR_INNERS = [EMPTY, well(A[0]), well(A[2]), rev(well(A[1])), chain(3),
                 sum_of(well(A[0]), chain(1), rev(well(A[1]))),
                 sum_of(RAT, well(A[2])), RAT]
SWAPPED_CONDITIONS = {"phi-left-range": "phi-right-range",
                      "phi-right-range": "phi-left-range"}
MIRROR_DRAWS = 1000


def _param(rng):
    """Mostly aleph(0..5); now and then 1, which fails the regularity gate."""
    return ONE if rng.random() < 0.03 else rng.choice(A[:6])


def _mirror_phi(rng):
    """A first-match map from 1, singleton, segment and default pieces;
    without a default piece it may be partial."""
    pieces = []
    if rng.random() < 0.8:
        pieces.append(PhiPiece(DOM_ONE, None, rng.choice(A[:6])))
    for i in rng.sample(range(6), rng.randint(0, 3)):
        value = PHI_SUCC if rng.random() < 0.2 else rng.choice(A[:6])
        pieces.append(PhiPiece(DOM_SINGLE, A[i], value))
    if rng.random() < 0.5:
        pieces.append(PhiPiece(DOM_SEG, A[rng.randint(1, 5)], rng.choice(A[:6])))
    if rng.random() < 0.7:
        pieces.append(PhiPiece(DOM_DEFAULT, None, rng.choice(A[:6])))
    return PhiMap(tuple(pieces))


def _mirror_pair(rng):
    """A random construction term and its mirror."""
    mu, k0, l0 = _param(rng), _param(rng), _param(rng)
    inner = rng.choice(MIRROR_INNERS)
    if rng.random() < 0.5:
        k1, l1 = _param(rng), _param(rng)
        ks, ls = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        klim, llim = (rng.choice([None] + A[:6]) for _ in range(2))
        t = LexSchedule(mu, k0, l0, CardinalSchedule(k1, l1, ks, ls, klim, llim),
                        inner)
        s = t.schedule
        mirror = LexSchedule(mu, l0, k0, CardinalSchedule(s.l1, s.k1, s.lsucc, s.ksucc,
                                                          s.llim, s.klim), rev(inner))
    else:
        phil, phir = _mirror_phi(rng), _mirror_phi(rng)
        t = LexRefined(mu, k0, l0, phil, phir, inner)
        mirror = LexRefined(mu, l0, k0, phir, phil, rev(inner))
    return t, mirror


def _outcome(fn, *args):
    """fn's value, or the class of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _verdicts(checks, swap):
    if isinstance(checks, type):
        return checks
    return {swap.get(c.name, c.name): c.passed for c in checks}


def test_lex_constructions_are_mirror_symmetric():
    """The mirror of a lexsched or lexref term has the mirrored spectrum,
    swapped Coin/Cofin, its coinitiality as the cofinality, and the same
    side-condition verdicts (the two phi range checks trade names), or both
    fail with the same error class.  An edit to one end of the rows that
    misses the other end breaks this."""
    rng = random.Random(20260)
    mismatches, spectra = [], 0
    for _ in range(MIRROR_DRAWS):
        t, mirror = _mirror_pair(rng)
        spec = _outcome(cut_spectrum, t)
        if not isinstance(spec, type):
            spectra += 1
            spec = spec.mirrored()
        cc = _outcome(coin_cofin, t)
        if not isinstance(cc, type):
            cc = cc[::-1]
        swap = SWAPPED_CONDITIONS if isinstance(t, LexRefined) else {}
        checks = [
            ("spectrum", spec, _outcome(cut_spectrum, mirror)),
            ("coin_cofin", cc, _outcome(coin_cofin, mirror)),
            ("cf", _outcome(cf, t), _outcome(ci, mirror)),
            ("ci", _outcome(ci, t), _outcome(cf, mirror)),
            ("conditions", _verdicts(_outcome(check_side_conditions, t), swap),
             _verdicts(_outcome(check_side_conditions, mirror), {})),
        ]
        mismatches += [(what, str(t)) for what, a, b in checks if a != b]
    assert not mismatches, mismatches[:5]
    # the draws reach both the derivable and the failing spectra
    assert MIRROR_DRAWS // 10 < spectra < MIRROR_DRAWS
