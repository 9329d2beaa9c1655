"""Order-term attributes: cf/ci, Coin/Cofin, cut spectra, side conditions,
completeness predicates, and the extension recipe."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ordercuts import order_terms
from ordercuts.cardinals import (
    CardSet,
    CofPair,
    ONE,
    OrdinalIndex,
    ZERO,
    aleph,
    reg_below,
)
from ordercuts.cli import parse_definitions, run
from ordercuts.errors import DomainError, NotDerivableError, SideConditionError
from ordercuts.order_terms import (
    Atom,
    CardinalSchedule,
    ChainPairs,
    ChainSeg,
    Completion,
    CutSpectrum,
    DOM_DEFAULT,
    DOM_ONE,
    DOM_SEG,
    DOM_SINGLE,
    EMPTY,
    ExplicitPairs,
    FiniteChain,
    LexRefined,
    LexSchedule,
    PHI_SUCC,
    PhiMap,
    PhiPiece,
    Rev,
    RowSeg,
    RULE_DSUCC,
    RULE_ID,
    Sum,
    card_bound,
    cf,
    chain,
    check_side_conditions,
    ci,
    coin_cofin,
    completeness_predicates,
    cut_spectrum,
    extend_order,
    rev,
    nonprincipal_cuts_all_asymmetric,
    sum_of,
    sum_parts,
    well,
)
from ordercuts.struct_classify import (
    ComponentAssignment,
    ComponentKind,
    GroupDescriptor,
    classify_group,
)


def pairs(*items):
    return frozenset(CofPair(a, b) for a, b in items)


A0, A1, A2, A3, A4, A5 = (aleph(n) for n in range(6))
OMEGA = well(A0)
OMEGA_STAR = rev(OMEGA)
Z_ORDER = sum_of(OMEGA_STAR, OMEGA)

SWAP_PHI = PhiMap((
    PhiPiece(DOM_ONE, None, A0),
    PhiPiece(DOM_SINGLE, A0, A1),
    PhiPiece(DOM_SINGLE, A1, A0),
))

RAT_ATOM = Atom("rat", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
                (CofPair(ONE, A0), CofPair(A0, ONE), CofPair(A0, A0)))

REAL_ATOM = Atom("realline", A0, A0, CardSet.of(A0), CardSet.of(A0), None,
                 (CofPair(ONE, A0), CofPair(A0, ONE)))

Z_ATOM = Atom("intline", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
              (CofPair(ONE, ONE),))


def recipe(mu, k0, l0, inner=EMPTY):
    sched = CardinalSchedule(mu, aleph(mu.index.succ()), RULE_DSUCC, RULE_DSUCC)
    return LexSchedule(mu, k0, l0, sched, inner)


class TestCfCi:
    def test_well_order(self):
        assert cf(well(A1)) == A1
        assert ci(well(A1)) == ONE

    def test_empty_sentinel(self):
        assert cf(EMPTY) == ZERO and ci(EMPTY) == ZERO

    def test_z_order(self):
        # leftmost piece is omega*, so there is no least element
        assert ci(Z_ORDER) == A0
        assert cf(Z_ORDER) == A0

    def test_rev_swaps(self):
        t = sum_of(OMEGA, chain(2))
        assert cf(rev(t)) == ci(t)
        assert ci(rev(t)) == cf(t)

    def test_completion_preserves(self):
        t = Completion(RAT_ATOM)
        assert cf(t) == A0 and ci(t) == A0

    def test_lexref_cf_is_k0(self):
        t = LexRefined(A2, A1, A1, SWAP_PHI, SWAP_PHI, EMPTY)
        assert cf(t) == A1
        assert ci(t) == A1

    def test_lexsched_cf_is_k0(self):
        assert cf(recipe(A2, A1, A1)) == A1


class TestCoinCofin:
    def test_well_omega(self):
        coin, cofin = coin_cofin(OMEGA)
        assert coin.is_empty
        assert cofin == CardSet.of(A0)

    def test_completion_identity(self):
        atom = Atom("i", A0, A0, CardSet.of(A0), CardSet.of(A0))
        assert coin_cofin(Completion(atom)) == coin_cofin(atom)

    def test_rev_w1(self):
        coin, cofin = coin_cofin(rev(well(A1)))
        assert coin == CardSet.of(A0, A1)
        assert cofin.is_empty

    def test_sum_unions(self):
        coin, cofin = coin_cofin(sum_of(OMEGA, rev(well(A1))))
        assert coin == CardSet.of(A0, A1)
        assert cofin == CardSet.of(A0)


class TestCutSpectrumBasics:
    def test_well_omega(self):
        assert cut_spectrum(OMEGA).pairs_below(A2) == pairs((ONE, ONE))

    def test_well_uncountable(self):
        spec = cut_spectrum(well(A2))
        assert spec.pairs_below(A3) == pairs((ONE, ONE), (A0, ONE), (A1, ONE))

    def test_omega_plus_omega_star(self):
        spec = cut_spectrum(sum_of(OMEGA, OMEGA_STAR))
        assert spec.pairs_below(A1) == pairs((ONE, ONE), (A0, A0))

    @pytest.mark.parametrize("t,text", [
        (EMPTY, "{}"),
        (well(A1), "{(1,1)} u {(k,1) : k in {reg<aleph(1)}}"),
    ], ids=["empty", "well(aleph(1))"])
    def test_spectrum_text(self, t, text):
        """A spectrum prints its parts joined by ` u `, and `{}` when it has
        none."""
        assert str(cut_spectrum(t)) == text

    def test_free_completion_rejected(self):
        with pytest.raises(NotDerivableError):
            cut_spectrum(Completion(RAT_ATOM))

    def test_atom_without_cuts_rejected(self):
        bare = Atom("i", A0, A0, CardSet.of(A0), CardSet.of(A0))
        with pytest.raises(NotDerivableError):
            cut_spectrum(bare)

    def test_finite_chains(self):
        assert cut_spectrum(chain(1)).is_empty
        assert cut_spectrum(chain(4)).pairs_below(A1) == pairs((ONE, ONE))

    def test_finite_chain_sizes_are_ints(self):
        """A size that is not an int, a bool included, is refused, where it
        used to build a term that printed as `chain(2.5)`, or, for 0.0, the
        empty order."""
        for build in (lambda: chain(2.5), lambda: chain(True), lambda: chain(0.0),
                      lambda: chain(False), lambda: FiniteChain(2.5)):
            with pytest.raises(DomainError, match="finite chain sizes are ints"):
                build()
        assert chain(0) is EMPTY
        assert chain(3) == FiniteChain(3) and str(chain(3)) == "chain(3)"


class TestRefinedSpectrum:
    def test_worked_aleph2_example(self):
        t = LexRefined(A2, A2, A2, SWAP_PHI, SWAP_PHI, EMPTY)
        spec = cut_spectrum(t)
        assert spec.pairs_below(A3) == pairs(
            (ONE, A2), (A2, ONE), (A0, A1), (A1, A0))
        comp = completeness_predicates(t)
        assert comp.symmetric and comp.strong and comp.extreme

    def test_phi_gate(self):
        bad = PhiMap((PhiPiece(DOM_DEFAULT, None, A3),))  # lands outside Rl
        t = LexRefined(A2, A2, A2, bad, bad, EMPTY)
        with pytest.raises(SideConditionError) as err:
            cut_spectrum(t)
        assert "range" in err.value.condition

    def test_fixed_point_detected(self):
        fixed = PhiMap((PhiPiece(DOM_ONE, None, A0),
                        PhiPiece(DOM_DEFAULT, None, A0)))
        t = LexRefined(A1, A1, A2, fixed,
                       PhiMap((PhiPiece(DOM_ONE, None, A1),
                               PhiPiece(DOM_SINGLE, A0, A1))), EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["phi-no-fixed-point"] is False
        spec = cut_spectrum(t)  # (phi) holds, so the spectrum is still exact
        assert spec.pairs_below(A2) == pairs((ONE, A1), (A1, ONE),
                                             (A0, A1), (A0, A0))
        assert not completeness_predicates(t).symmetric

    def test_succ_rule_piece(self):
        phi = PhiMap((PhiPiece(DOM_ONE, None, A0),
                      PhiPiece(DOM_SINGLE, A0, PHI_SUCC),
                      PhiPiece(DOM_SINGLE, A1, A0)))
        t = LexRefined(A2, A2, A2, phi, phi, EMPTY)
        spec = cut_spectrum(t)
        assert spec.pairs_below(A3) == pairs(
            (ONE, A2), (A2, ONE), (A0, A1), (A1, A0))


class TestScheduleSpectrum:
    def test_recipe_normal_form(self):
        t = recipe(A2, A1, A1)
        expected = CutSpectrum.of((
            ExplicitPairs((CofPair(ONE, A2), CofPair(A2, ONE)), True),
            RowSeg(A2, reg_below(A2)),
            RowSeg(A3, reg_below(A2), True),
            ChainPairs(A2.index, 2, A3.index, 2),
            ChainSeg(A4.index, 2, A3.index, 2),
            ChainSeg(A5.index, 2, A2.index, 2, True),
        ))
        assert cut_spectrum(t) == expected

    def test_recipe_enumeration(self):
        t = recipe(A2, A1, A1)
        assert cut_spectrum(t).pairs_below(aleph(6)) == pairs(
            (ONE, A2), (A2, ONE),
            (A2, A0), (A2, A1),
            (A0, A3), (A1, A3),
            (A2, A3), (A4, A5),
            (A4, A0), (A4, A1), (A4, A2),
            (A0, A5), (A1, A5),
        )

    def test_countable_mu_identity_schedule(self):
        sched = CardinalSchedule(A1, A2, RULE_ID, RULE_ID)
        t = LexSchedule(A0, A0, A0, sched, EMPTY)
        spec = cut_spectrum(t)
        assert spec.pairs_below(A4) == pairs(
            (ONE, A0), (A0, ONE), (A1, A2), (A1, A0), (A1, A1), (A0, A2))
        assert not completeness_predicates(t).symmetric

    def test_atom_inner_distinct_limits(self):
        atom = Atom("i", A0, A1, CardSet.of(A0, A1), CardSet.of(A0), A2)
        sched = CardinalSchedule(A4, A5, RULE_DSUCC, RULE_DSUCC, A3, A4)
        t = LexSchedule(A3, A1, A1, sched, atom)
        expected = CutSpectrum.of((
            ExplicitPairs((CofPair(ONE, A3), CofPair(A3, ONE)), True),
            RowSeg(A4, reg_below(A2)),
            RowSeg(A3, reg_below(A3)),
            RowSeg(A5, reg_below(A1), True),
            RowSeg(A4, reg_below(A3), True),
            ChainPairs(A4.index, 2, A5.index, 2),
            ChainPairs(A5.index, 2, aleph(6).index, 2),
            ChainSeg(aleph(6).index, 2, A5.index, 2),
            ChainSeg(A5.index, 2, A4.index, 2),
            ChainSeg(aleph(7).index, 2, A4.index, 2, True),
            ChainSeg(aleph(6).index, 2, A3.index, 2, True),
        ))
        assert cut_spectrum(t) == expected

    def test_singular_parameter_rejected(self):
        singular = aleph(OrdinalIndex.omega())
        sched = CardinalSchedule(A1, A2, RULE_DSUCC, RULE_DSUCC)
        t = LexSchedule(singular, A1, A1, sched, EMPTY)
        with pytest.raises(SideConditionError):
            cut_spectrum(t)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["regular-params"] is False


class TestSideConditions:
    def test_recipe_all_pass(self):
        checks = check_side_conditions(recipe(A2, A1, A1))
        assert all(c.passed for c in checks)

    def test_equal_tracks_fail_c(self):
        sched = CardinalSchedule(A2, A2, RULE_DSUCC, RULE_DSUCC)
        t = LexSchedule(A1, A1, A1, sched, EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["cond-c"] is False

    def test_collision_at_nu_2_fails_c(self):
        # kappa_1 != lambda_1 but kappa_2 = lambda_2 = aleph(3)
        from ordercuts.order_terms import RULE_SUCC
        sched = CardinalSchedule(A1, A2, RULE_DSUCC, RULE_SUCC)
        assert sched.kappa_at(1) == sched.lambda_at(1) == A3
        t = LexSchedule(A1, A1, A1, sched, EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["cond-c"] is False
        assert not completeness_predicates(t).symmetric

    def test_crossing_ranks_fail_b(self):
        # lambda grows faster: kappa_{nu+1} >= lambda_nu eventually fails
        sched = CardinalSchedule(A3, A1, RULE_ID, RULE_DSUCC)
        t = LexSchedule(A1, A1, A1, sched, EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["cond-b"] is False

    def test_low_limit_fails_d(self):
        sched = CardinalSchedule(A2, A3, RULE_DSUCC, RULE_DSUCC, A1, A3)
        t = LexSchedule(A2, A1, A1, sched, EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["cond-d"] is False

    def test_k1_in_coin_fails_a(self):
        atom = Atom("i", A0, A2, CardSet.of(A0, A1, A2), CardSet.of(A0), A2)
        sched = CardinalSchedule(A2, A3, RULE_DSUCC, RULE_DSUCC)
        t = LexSchedule(A3, A1, A1, sched, atom)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["cond-a"] is False

    def test_phi_violation_named(self):
        bad = PhiMap((PhiPiece(DOM_ONE, None, A0),
                      PhiPiece(DOM_SINGLE, A0, A0),
                      PhiPiece(DOM_SINGLE, A1, A0)))
        t = LexRefined(A2, A2, A2, SWAP_PHI, bad, EMPTY)
        checks = {c.name: c.passed for c in check_side_conditions(t)}
        assert checks["phi-no-fixed-point"] is False

    def test_wrong_kind_rejected(self):
        with pytest.raises(DomainError):
            check_side_conditions(OMEGA)


class TestCompleteness:
    def test_real_line_atom(self):
        comp = completeness_predicates(REAL_ATOM)
        assert comp.symmetric and not comp.strong
        assert comp.spherical_balls

    def test_z_like_atom(self):
        comp = completeness_predicates(Z_ATOM)
        assert not comp.symmetric
        assert comp.spherical_balls

    def test_z_order_term(self):
        comp = completeness_predicates(Z_ORDER)
        assert not comp.symmetric and comp.spherical_balls

    def test_omega_not_spherical_free(self):
        comp = completeness_predicates(sum_of(OMEGA, OMEGA_STAR))
        assert not comp.spherical_balls  # the middle cut is (aleph0, aleph0)


class TestExtendOrder:
    def test_empty_with_aleph1(self):
        ext = extend_order(EMPTY, A1, A1)
        assert (ext.mu, ext.k1, ext.l1) == (A2, A2, A3)
        assert completeness_predicates(ext.term).extreme

    def test_minimal_mu_above_declared_bound(self):
        atom = Atom("i", A0, A0, CardSet.of(A0), CardSet.of(A0), A2)
        ext = extend_order(atom, A1, A1)
        assert ext.mu == A3

    def test_missing_bound_rejected(self):
        atom = Atom("i", A0, A0, CardSet.of(A0), CardSet.of(A0))
        with pytest.raises(NotDerivableError):
            extend_order(atom)

    def test_always_extreme(self):
        for k0, l0 in ((A1, A1), (A1, A2), (A2, A2)):
            for inner in (EMPTY, chain(3), Z_ORDER, RAT_ATOM):
                ext = extend_order(inner, k0, l0)
                assert all(c.passed for c in check_side_conditions(ext.term))
                assert completeness_predicates(ext.term).extreme

    def test_irregular_lexsched_parameter_refused(self):
        """The extension base of a lex product reads its Coin/Cofin sets,
        which the regular-params gate refuses first."""
        bad = LexSchedule(A2, A1, ZERO, CardinalSchedule(A2, A3), EMPTY)
        with pytest.raises(SideConditionError,
                           match=r"^regular-params: not infinite regular: l0=0$"):
            extend_order(bad)

    def test_downgrade_k0(self):
        comp = completeness_predicates(extend_order(EMPTY, A0, A1).term)
        assert comp.strong and not comp.extreme

    def test_extend_result_embeds_inner(self):
        ext = extend_order(Z_ORDER, A1, A1)
        assert ext.term.inner == Z_ORDER

    def test_two_forms_of_one_coin_set_extend_alike(self):
        """coin={reg<aleph(w+1)} is coin={reg<aleph(w)}, as aleph(w) is
        singular, so both lexicographic products get mu=aleph(w+1)."""
        w = OrdinalIndex.omega()
        exts = [extend_order(recipe(A2, A1, A1, Atom("i", A0, ONE, CardSet.segment_below(aleph(b)),
                                                     CardSet.of(A0))))
                for b in (w.succ(), w)]
        assert [(e.mu, e.k1, e.l1, e.base) for e in exts] == \
            [(aleph(w.succ()), aleph(w.succ()), aleph(w.plus_nat(2)), aleph(w))] * 2


def test_phi_image_over_a_lowered_segment():
    """reg<aleph(w+1) is reg<aleph(w), which a segment piece covers whole."""
    w = OrdinalIndex.omega()
    phi = PhiMap((PhiPiece(DOM_ONE, None, A1), PhiPiece(DOM_SEG, aleph(w), A1)))
    assert phi.image_over(CardSet.segment_below(aleph(w.succ()))) == CardSet.of(A1)


def _random_finite_phi(rng):
    """A first-match map over {1} and aleph(0..5), in random piece order;
    without a `default` piece it may be partial."""
    small = [aleph(n) for n in range(6)]
    pieces = []
    if rng.random() < 0.8:
        pieces.append(PhiPiece(DOM_ONE, None, rng.choice(small)))
    for card in rng.sample(small, rng.randint(0, 4)):
        value = PHI_SUCC if rng.random() < 0.3 else rng.choice(small)
        pieces.append(PhiPiece(DOM_SINGLE, card, value))
    for _ in range(rng.randint(0, 2)):
        pieces.append(PhiPiece(DOM_SEG, aleph(rng.randint(0, 6)), rng.choice(small)))
    if rng.random() < 0.6:
        pieces.append(PhiPiece(DOM_DEFAULT, None, rng.choice(small)))
    rng.shuffle(pieces)
    return PhiMap(tuple(pieces))


def _random_finite_seg(rng):
    if rng.random() < 0.3:
        return CardSet.segment_below(aleph(rng.randint(0, 6)))
    return CardSet.of(*rng.sample([aleph(n) for n in range(7)], rng.randint(0, 4)))


def test_phi_map_rules_match_pointwise_evaluation():
    """`image_over`, `fixed_point_in` and `range_violation` read each piece's
    stored domain and image; on random finite maps and segments each agrees
    with `evaluate` on every member, and a map that is partial on the segment
    is refused by `image_over` as by `evaluate`."""
    rng = random.Random(20260)
    partial = 0
    for _ in range(3000):
        phi = _random_finite_phi(rng)
        seg, target = _random_finite_seg(rng), _random_finite_seg(rng)
        values = {}
        for k in [ONE, *seg.members()]:
            try:
                values[k] = phi.evaluate(k)
            except DomainError:
                values[k] = None
        fixed = {k for k, v in values.items() if k != ONE and v == k}
        found = phi.fixed_point_in(seg)
        assert (found is None) == (not fixed) and (found is None or found in fixed)
        in_range = all(v is not None and target.contains(v) for v in values.values())
        assert (phi.range_violation(seg, target) is None) == in_range
        images = [v for k, v in values.items() if k != ONE]
        if None in images:
            partial += 1
            with pytest.raises(DomainError):
                phi.image_over(seg)
        else:
            assert phi.image_over(seg) == CardSet.of(*images)
    assert 300 < partial < 2700


# ---------------------------------------------------------------------------
# Property tests over random countable terms
# ---------------------------------------------------------------------------

countable_terms = st.recursive(
    st.sampled_from([OMEGA, OMEGA_STAR, chain(1), chain(2), chain(5)]),
    lambda inner: st.one_of(
        inner.map(rev),
        st.tuples(inner, inner).map(lambda ab: sum_of(*ab)),
        st.tuples(inner, inner, inner).map(lambda abc: sum_of(*abc)),
    ),
    max_leaves=6,
)


@given(countable_terms)
def test_mirror_symmetry(t):
    assert cut_spectrum(rev(t)) == cut_spectrum(t).mirrored()
    assert cf(rev(t)) == ci(t) and ci(rev(t)) == cf(t)


@given(countable_terms, countable_terms, countable_terms)
def test_sum_associativity_of_spectra(a, b, c):
    assert cut_spectrum(sum_of(sum_of(a, b), c)) == cut_spectrum(sum_of(a, sum_of(b, c)))


@given(countable_terms)
def test_nonprincipal_pairs_exclude_one(t):
    spec = cut_spectrum(t)
    for part in spec.parts:
        if isinstance(part, ExplicitPairs):
            for p in part.pairs:
                assert p.is_principal == part.principal
                assert p.is_principal == (p.left.is_one or p.right.is_one)


@given(countable_terms)
def test_order_ball_two_routes_agree(t):
    spec = cut_spectrum(t)
    assert (not spec.has_nonprincipal_symmetric()) == \
        nonprincipal_cuts_all_asymmetric(spec)


small_regulars = st.sampled_from([A0, A1, A2, A3])
uncountable_regulars = st.sampled_from([A1, A2, A3])
rules = st.sampled_from([0, 1, 2])


@settings(max_examples=200)
@given(uncountable_regulars, uncountable_regulars, uncountable_regulars,
       small_regulars, small_regulars, rules, rules,
       small_regulars, small_regulars)
def test_corollary_conditions_imply_strong(mu, k0, l0, k1, l1, ks, ls, klim, llim):
    sched = CardinalSchedule(k1, l1, ks, ls, klim, llim)
    t = LexSchedule(mu, k0, l0, sched, EMPTY)
    checks = check_side_conditions(t)
    if all(c.passed for c in checks):
        comp = completeness_predicates(t)
        assert comp.strong
        assert comp.extreme == (k0.is_uncountable and l0.is_uncountable)


@settings(max_examples=200)
@given(uncountable_regulars, small_regulars, small_regulars)
def test_refined_passing_conditions_strongly_asymmetric(mu, k0, l0):
    t = LexRefined(mu, k0, l0, SWAP_PHI, SWAP_PHI, EMPTY)
    checks = check_side_conditions(t)
    if all(c.passed for c in checks):
        assert completeness_predicates(t).strong


_IFF_INNERS = [
    EMPTY,
    Atom("p", A0, A0, CardSet.of(A0), CardSet.of(A0), A0),
    Atom("q", A1, A2, CardSet.of(A0, A1, A2), CardSet.of(A0, A1), A2),
]


@settings(max_examples=400)
@given(st.sampled_from([A0, A1, A2, A3]), small_regulars, small_regulars,
       small_regulars, small_regulars, rules, rules,
       small_regulars, small_regulars, st.sampled_from(_IFF_INNERS))
def test_lettered_conditions_iff_symmetric(mu, k0, l0, k1, l1, ks, ls,
                                           klim, llim, inner):
    # each lettered failure manufactures a symmetric pair, and conversely
    sched = CardinalSchedule(k1, l1, ks, ls, klim, llim)
    t = LexSchedule(mu, k0, l0, sched, inner)
    verdicts = {c.name: c.passed for c in check_side_conditions(t)}
    lettered = all(verdicts[n] for n in ("cond-a", "cond-b", "cond-c", "cond-d"))
    assert lettered == completeness_predicates(t).symmetric


# ---------------------------------------------------------------------------
# One-pass sum folds against the pairwise fold
# ---------------------------------------------------------------------------

def ref_cf(t):
    if isinstance(t, Sum):
        return ref_cf(t.right)
    if isinstance(t, Rev):
        return ref_ci(t.inner)
    return cf(t)


def ref_ci(t):
    if isinstance(t, Sum):
        return ref_ci(t.left)
    if isinstance(t, Rev):
        return ref_cf(t.inner)
    return ci(t)


def ref_spectrum(t):
    """The pairwise fold: each sum node unions its children's spectra and
    its boundary pair, normalizing at every level."""
    if isinstance(t, Sum):
        b = CofPair(ref_cf(t.left), ref_ci(t.right))
        mid = CutSpectrum.of((ExplicitPairs((b,), b.is_principal),))
        return ref_spectrum(t.left).union(ref_spectrum(t.right)).union(mid)
    if isinstance(t, Rev):
        return ref_spectrum(t.inner).mirrored()
    return cut_spectrum(t)


def ref_coin_cofin(t):
    if isinstance(t, Sum):
        cl, fl = ref_coin_cofin(t.left)
        cr, fr = ref_coin_cofin(t.right)
        return cl.union(cr), fl.union(fr)
    if isinstance(t, Rev):
        coin, cofin = ref_coin_cofin(t.inner)
        return cofin, coin
    return coin_cofin(t)


def ref_parts(t):
    if isinstance(t, Sum):
        return ref_parts(t.left) + ref_parts(t.right)
    return [t]


def ref_eq(a, b):
    if isinstance(a, Sum) or isinstance(b, Sum):
        return isinstance(a, Sum) and isinstance(b, Sum) and \
            ref_eq(a.left, b.left) and ref_eq(a.right, b.right)
    if isinstance(a, Rev) or isinstance(b, Rev):
        return isinstance(a, Rev) and isinstance(b, Rev) and ref_eq(a.inner, b.inner)
    return a == b


def rebuild(t):
    """A structurally equal copy sharing no sum or rev node with t."""
    if isinstance(t, Sum):
        return Sum(rebuild(t.left), rebuild(t.right))
    if isinstance(t, Rev):
        return Rev(rebuild(t.inner))
    return t


SMALL_LEX = recipe(A2, A1, A1)
FOLD_LEAVES = [OMEGA, OMEGA_STAR, well(A1), rev(well(A2)), chain(1), chain(3),
               RAT_ATOM, SMALL_LEX, recipe(A2, A1, A2, RAT_ATOM)]

sum_trees = st.recursive(
    st.sampled_from(FOLD_LEAVES),
    lambda inner: st.one_of(st.builds(Sum, inner, inner), inner.map(rev)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sum_trees, sum_trees)
def test_sum_folds_match_pairwise_reference(t, other):
    assert cut_spectrum(t) == ref_spectrum(t)
    assert coin_cofin(t) == ref_coin_cofin(t)
    assert cf(t) == ref_cf(t) and ci(t) == ref_ci(t)
    assert sum_parts(t) == ref_parts(t)
    copy = rebuild(t)
    assert copy == t and hash(copy) == hash(t)
    assert (t == other) == ref_eq(t, other)


# atoms whose declared ends differ from the rationals', so sums of them
# repeat boundary pairs under distinct parts
LIAR_ATOMS = [Atom("rat", c, i, CardSet.of(A0), CardSet.of(A0), A0, RAT_ATOM.cuts)
              for c, i in ((ONE, A0), (A0, ONE), (ONE, ONE))]


@pytest.mark.parametrize("levels", [30, 100])
def test_spectrum_of_random_nests_matches_pairwise_reference(levels):
    # each level a sum beside a leaf, on either side, or a plain reversal,
    # so boundary pairs repeat through nested sums and reversals of sums
    rng = random.Random(levels)
    leaves = FOLD_LEAVES + LIAR_ATOMS
    for _ in range(6):
        t = rng.choice(leaves)
        for _ in range(levels):
            roll, other = rng.random(), rng.choice(leaves)
            t = Rev(t) if roll < 1 / 4 else Sum(t, other) if roll < 5 / 8 else Sum(other, t)
        assert cut_spectrum(t) == ref_spectrum(t), str(t)


CYCLE = [OMEGA, OMEGA_STAR, chain(2), well(A1), rev(well(A2)), RAT_ATOM]


def cycled(n):
    return [CYCLE[i % len(CYCLE)] for i in range(n)]


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepSums:
    """Long sums fold without recursing once per part.  Every adjacent pair
    of the cycle occurs within its first two rounds, so a long cycled sum
    has the spectrum of its 12-part prefix."""

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_right_nested(self, n):
        t = sum_of(*cycled(n))
        small = sum_of(*cycled(2 * len(CYCLE)))
        assert hash(t) == hash(sum_of(*cycled(n)))
        assert t == sum_of(*cycled(n))
        assert str(t) == "sum(" + ", ".join(str(p) for p in cycled(n)) + ")"
        assert cut_spectrum(t) == ref_spectrum(small)
        assert coin_cofin(t) == ref_coin_cofin(small)
        assert completeness_predicates(t) == completeness_predicates(small)
        assert extend_order(t).base == extend_order(small).base

    def test_left_nested(self):
        parts = cycled(2000)
        t = parts[0]
        for p in parts[1:]:
            t = Sum(t, p)
        assert sum_parts(t) == parts
        assert t != sum_of(*parts) and hash(t) != hash(sum_of(*parts))
        assert cut_spectrum(t) == cut_spectrum(sum_of(*parts))
        assert (cf(t), ci(t)) == (cf(parts[-1]), ci(parts[0]))

    def test_reversed_long_sum_as_part(self):
        inner = sum_of(*cycled(2000))
        t = sum_of(chain(1), rev(inner))
        again = sum_of(chain(1), rev(sum_of(*cycled(2000))))
        assert hash(t) == hash(again) and t == again
        assert len({t, again, rev(inner), rev(sum_of(*cycled(2000)))}) == 2
        assert str(t) == f"sum(chain(1), rev({inner}))"
        small = sum_of(chain(1), rev(sum_of(*cycled(2 * len(CYCLE)))))
        assert cut_spectrum(t) == ref_spectrum(small)
        assert completeness_predicates(t) == completeness_predicates(small)
        assert extend_order(t).base == extend_order(small).base

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_classify_group_over_long_sum(self, n):
        body = ", ".join(str(p) for p in cycled(n))
        text = (f"let S = sum({body}, chain(1))\n"
                "let G = group(vset=S; comp=reals; spherical=true; "
                "discrete=false; divisible=true)\n"
                "let D = group(vset=S; comp=reals+ints_at_top; spherical=true; "
                "discrete=true; divisible=false)\n")
        small = ", ".join(str(p) for p in cycled(2 * len(CYCLE)))
        report = run(parse_definitions(text), "classify")
        expect = run(parse_definitions(text.replace(body, small)), "classify")
        assert [it.status for it in report.items] == ["ok", "ok"]
        assert report.render_text() == expect.render_text()


class TestSumFoldErrors:
    """The fold raises the error the recursive definition meets first: a
    node's boundary pair, then its left part, then its right part."""

    BAD_LEX = LexSchedule(A2, A1, ZERO, CardinalSchedule(A2, A3), EMPTY)
    BAD_PHI = PhiMap((PhiPiece(DOM_DEFAULT, None, A3),))
    BAD_LEXREF = LexRefined(A1, A1, A1, BAD_PHI, BAD_PHI, EMPTY)
    COMP = Completion(OMEGA)

    @pytest.mark.parametrize("parts,error,text", [
        # the root boundary needs ci of the lexsched before any part's spectrum
        ((COMP, BAD_LEX), SideConditionError, "regular-params"),
        ((OMEGA, COMP, BAD_LEX), SideConditionError, "regular-params"),
        # boundaries pass; the completion's spectrum comes first
        ((OMEGA, COMP, BAD_LEXREF), NotDerivableError, "free-standing completion"),
        ((OMEGA, BAD_LEXREF, COMP), SideConditionError, "phi-left-range"),
    ])
    def test_first_error(self, parts, error, text):
        with pytest.raises(error, match=text):
            cut_spectrum(sum_of(*parts))

    def test_first_error_of_the_other_folds(self):
        t = sum_of(OMEGA, self.COMP, self.BAD_LEXREF)
        with pytest.raises(NotDerivableError, match="free-standing completion"):
            completeness_predicates(t)
        with pytest.raises(NotDerivableError, match="cardinality of a completion"):
            extend_order(t)
        with pytest.raises(SideConditionError, match="regular-params"):
            coin_cofin(sum_of(OMEGA, self.COMP, self.BAD_LEX))


class TestSumFoldCounts:
    """The fold normalizes once per distinct part plus once for the whole."""

    @pytest.fixture
    def of_calls(self, monkeypatch):
        calls = [0]
        original = CutSpectrum.of

        def counting(parts):
            calls[0] += 1
            return original(parts)

        monkeypatch.setattr(CutSpectrum, "of", staticmethod(counting))
        return calls

    def count(self, of_calls, t):
        of_calls[0] = 0
        cut_spectrum(t)
        return of_calls[0]

    @pytest.mark.parametrize("n", [2, 7, 64, 500])
    def test_one_call_per_distinct_part(self, of_calls, n):
        distinct = [OMEGA, well(A1), chain(2), RAT_ATOM, SMALL_LEX]
        t = sum_of(*(distinct[i % len(distinct)] for i in range(n)))
        d = min(n, len(distinct))
        assert self.count(of_calls, t) <= d + 1

    def test_reversed_parts(self, of_calls):
        parts = [OMEGA, OMEGA_STAR, rev(sum_of(chain(2), RAT_ATOM)), chain(3)]
        t = sum_of(*(parts[i % len(parts)] for i in range(400)))
        alone = sum(self.count(of_calls, p) for p in parts)
        assert self.count(of_calls, t) <= alone + 1


    def test_one_boundary_pair_per_distinct_ends(self, monkeypatch):
        # 1,999 boundaries, of which the six-part cycle makes six kinds
        builds = [0]
        original = order_terms.CofPair

        def counting(*args):
            builds[0] += 1
            return original(*args)

        t = sum_of(*cycled(2000))
        expected = ref_spectrum(sum_of(*cycled(12)))
        monkeypatch.setattr(order_terms, "CofPair", counting)
        assert cut_spectrum(t) == expected
        assert builds[0] <= 6, builds


def rev_nest(depth):
    """sum(well(aleph(0)), rev(...)) nested `depth` times around
    well(aleph(0)), each level built afresh."""
    t = well(A0)
    for _ in range(depth):
        t = sum_of(well(A0), rev(t))
    return t


@pytest.mark.usefixtures("default_recursion_limit")
def test_term_depth_is_limited_by_memory():
    """Hashing, equality, rendering, `repr` and every fact return on a
    10,000-level nest at Python's default recursion limit.  The spectrum is
    stable from depth 3, so each fact equals that of the depth-8 nest."""
    deep, again, small = rev_nest(10_000), rev_nest(10_000), rev_nest(8)
    assert hash(deep) == hash(again) and deep == again and deep != small
    text = "sum(well(aleph(0)), rev(" * 10_000 + "well(aleph(0))" + "))" * 10_000
    assert str(deep) == text and repr(deep) == text
    for fact in (cf, ci, coin_cofin, cut_spectrum, card_bound, completeness_predicates,
                 lambda t: extend_order(t).base):
        assert fact(deep) == fact(small)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("wrap", [lambda t: recipe(A2, A1, A1, t),
                                  lambda t: LexRefined(A2, A2, A2, SWAP_PHI, SWAP_PHI, t)],
                         ids=["lexsched", "lexref"])
def test_deep_lexicographic_products_render(wrap):
    """A lexicographic product's inner order goes on the renderer's stack,
    so a 2,000-level nest renders at Python's default recursion limit."""
    def nest():
        t = OMEGA
        for _ in range(2000):
            t = wrap(t)
        return t
    deep, head = nest(), str(wrap(EMPTY))[:-len("empty)")]
    text = head * 2000 + str(OMEGA) + ")" * 2000
    assert str(deep) == text and repr(deep) == text
    assert hash(deep) == hash(nest()) and deep == nest()


def test_term_class_without_text_renders_its_name():
    # `repr` goes through the renderer, so a term class with no text of its
    # own must not send the renderer back to itself
    bare = order_terms.OrderTerm()
    assert str(bare) == repr(bare) == "<OrderTerm>"
    with pytest.raises(DomainError, match="unknown term <OrderTerm>"):
        cf(bare)


class TestFactCounts:
    """Each fact's rule runs once per distinct node it is asked of, however
    many public calls read it."""

    RULES = ("_coin_cofin_rule", "_spectrum_rule", "_cardinality_rule")

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = {}
        for name in self.RULES:
            def counting(t, rule=getattr(order_terms, name), seen=runs.setdefault(name, [])):
                seen.append(t)
                return rule(t)
            monkeypatch.setattr(order_terms, name, counting)
        return runs

    def test_once_per_distinct_node(self, runs):
        omega, two, back = well(A0), chain(2), rev(well(A0))
        inner = sum_of(omega, two, well(A0), back)
        mirror, lex = rev(inner), recipe(A2, A1, A1, inner)
        t = sum_of(inner, mirror, lex, chain(2))
        for _ in range(3):
            coin_cofin(t)
            completeness_predicates(t)
            extend_order(t)
            with pytest.raises(NotDerivableError, match="lexicographic"):
                card_bound(t)
        # equal parts of one sum are one part, and the sum nodes inside a
        # flat sum have no facts of their own; terms are not interned, so
        # the well order inside `back` is a node of its own
        nodes = sorted(map(id, [t, inner, mirror, lex, omega, two, back, back.inner]))
        for name in self.RULES:
            assert sorted(map(id, runs[name])) == nodes, name

    def test_classify_group_folds_its_value_set_once(self, runs):
        vset = sum_of(rev(well(A0)), well(A1), chain(1))
        g = GroupDescriptor(vset, ComponentAssignment(ComponentKind.REALS,
                                                      ComponentKind.INTEGERS),
                            spherical=True, discrete=True)
        first = classify_group(g)
        assert classify_group(g) == first
        spectra = runs["_spectrum_rule"]
        assert sum(node is vset for node in spectra) == 1
        assert len(set(map(id, spectra))) == len(spectra)


# ---------------------------------------------------------------------------
# Refusals of the term, schedule and spectrum constructors
# ---------------------------------------------------------------------------

A_W = aleph(OrdinalIndex.omega())   # singular
NO_CARDS = CardSet.empty()


@pytest.mark.parametrize("build,fragment", [
    (lambda: FiniteChain(0), "finite chains have at least one point"),
    (lambda: Sum(EMPTY, chain(1)), "sum parts must be nonempty"),
    (lambda: Sum(chain(1), EMPTY), "sum parts must be nonempty"),
    (lambda: Atom("a", ZERO, A0, NO_CARDS, NO_CARDS), "atom cf must be 1 or infinite regular"),
    (lambda: Atom("a", A0, A_W, CardSet.of(A0), CardSet.of(A0)),
     "atom ci must be 1 or infinite regular"),
    (lambda: Atom("a", A0, ONE, NO_CARDS, NO_CARDS), "atom cf must belong to its Cofin set"),
    (lambda: Atom("a", ONE, A0, NO_CARDS, NO_CARDS), "atom ci must belong to its Coin set"),
    (lambda: Atom("a", A1, A0, CardSet.of(A0), CardSet.of(A1), A0),
     "atom Coin/Cofin exceed the declared cardinality bound"),
    (lambda: Atom("a", A0, A0, CardSet.of(A0), CardSet.of(A0, A1), None, (CofPair(A1, A1),)),
     r"declared cut \(aleph\(1\),aleph\(1\)\) has coinitiality outside Coin"),
    (lambda: Atom("a", A0, A0, CardSet.of(A0, A1), CardSet.of(A0), None, (CofPair(A1, ONE),)),
     r"declared cut \(aleph\(1\),1\) has cofinality outside Cofin"),
    (lambda: CardinalSchedule(A1, A2, 3), "schedule successor rule must be id/plus/plusplus"),
    (lambda: CardinalSchedule(A1, A2, RULE_DSUCC, -1),
     "schedule successor rule must be id/plus/plusplus"),
    (lambda: PhiPiece("other", None, A0), "bad phi piece domain"),
    (lambda: PhiPiece(DOM_SEG, None, A0), "phi piece needs a cardinal"),
    (lambda: PhiPiece(DOM_SEG, A2, PHI_SUCC), "succ rule needs a singleton domain"),
    (lambda: ExplicitPairs((CofPair(ONE, ONE), CofPair(A0, A0)), principal=False),
     r"pair \(1,1\) does not match principal=False"),
    (lambda: ExplicitPairs((CofPair(A0, A0),), principal=True),
     r"pair \(aleph\(0\),aleph\(0\)\) does not match principal=True"),
    (lambda: cut_spectrum(Z_ORDER).pairs_below(A_W),
     "enumeration needs a bound aleph\\(n\\) with finite n"),
], ids=["finite-chain-0", "sum-empty-left", "sum-empty-right", "atom-cf", "atom-ci",
        "atom-cf-outside-cofin", "atom-ci-outside-coin", "atom-over-bound",
        "atom-cut-outside-coin", "atom-cut-outside-cofin", "schedule-ksucc",
        "schedule-lsucc", "phi-domain", "phi-no-cardinal", "phi-succ-on-segment",
        "explicit-pairs-principal", "explicit-pairs-nonprincipal",
        "pairs-below-aleph-w"])
def test_constructor_refusals(build, fragment):
    with pytest.raises(DomainError, match=fragment):
        build()
