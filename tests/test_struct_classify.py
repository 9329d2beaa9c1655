"""Group and field descriptors: cofinality calculus, cut lemmas, the main
classification theorems, and the extension constructions."""

import pytest

from ordercuts.cardinals import CardSet, CofPair, ONE, aleph
from ordercuts import struct_classify
from ordercuts.errors import DescriptorError, DomainError, NotDerivableError
from ordercuts.order_terms import (
    RULE_DSUCC,
    Atom,
    CardinalSchedule,
    EMPTY,
    LexSchedule,
    cf,
    chain,
    extend_order,
    rev,
    sum_of,
    well,
)
from ordercuts.struct_classify import (
    ComponentAssignment,
    ComponentKind,
    FieldDescriptor,
    GroupDescriptor,
    Residue,
    Verdict,
    cf_group,
    cf_m_gamma,
    ci_positive_cone,
    classify_discrete,
    classify_field,
    classify_group,
    classify_group_cutwise,
    extend_field,
    extend_group,
    _minus_end,
    principal_cuts_ok,
    type1_cuts_ok,
    type2_cuts_ok,
)

A0, A1, A2, A3 = (aleph(n) for n in range(4))
REALS = ComponentAssignment(ComponentKind.REALS)
INTS = ComponentAssignment(ComponentKind.INTEGERS)
DENSE = ComponentAssignment(ComponentKind.DENSE)
R_WITH_Z_TOP = ComponentAssignment(ComponentKind.REALS, ComponentKind.INTEGERS)

J_RECIPE = extend_order(EMPTY, A1, A1).term
J_CI_COUNTABLE = extend_order(EMPTY, A1, A0).term

Z_GROUP = GroupDescriptor(chain(1), INTS, spherical=True, discrete=True)
H_GROUP = GroupDescriptor(J_RECIPE, REALS, spherical=True, divisible=True)
HXZ = GroupDescriptor(sum_of(J_RECIPE, chain(1)), R_WITH_Z_TOP,
                      spherical=True, discrete=True)


class TestGcoCalculus:
    def test_cf_group(self):
        assert cf_group(GroupDescriptor(well(A0))) == A0
        assert cf_group(GroupDescriptor(rev(well(A1)))) == A1
        assert cf_group(GroupDescriptor(chain(1), REALS)) == A0

    def test_cf_group_trivial_rejected(self):
        with pytest.raises(DomainError):
            cf_group(GroupDescriptor.trivial())

    def test_ci_positive_cone(self):
        assert ci_positive_cone(Z_GROUP) == ONE
        assert ci_positive_cone(GroupDescriptor(well(A1))) == A1
        assert ci_positive_cone(GroupDescriptor(chain(1), REALS)) == A0

    def test_cf_m_gamma(self):
        assert cf_m_gamma(ONE) == A0
        assert cf_m_gamma(A1) == A1
        assert cf_m_gamma(A0) == A0
        from ordercuts.cardinals import ZERO
        with pytest.raises(DomainError):
            cf_m_gamma(ZERO)


class TestCutLemmas:
    def test_principal(self):
        assert principal_cuts_ok(Z_GROUP) == (False, False)
        dense_countable = GroupDescriptor(well(A0), REALS)
        assert principal_cuts_ok(dense_countable) == (True, False)
        dense_unc = GroupDescriptor(well(A1), REALS)
        assert principal_cuts_ok(dense_unc) == (True, True)

    def test_type1(self):
        good = GroupDescriptor(rev(well(A1)), REALS)
        # cuts of rev(w1) include (1,1): the value set fails the (1,l) test
        assert not type1_cuts_ok(good)
        assert type1_cuts_ok(H_GROUP)
        bad_comp = GroupDescriptor(J_RECIPE, DENSE)
        assert not type1_cuts_ok(bad_comp)

    def test_type1_one_aleph0_row_fails(self):
        atom = Atom("v", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
                    (CofPair(ONE, A0), CofPair(A0, ONE)))
        g = GroupDescriptor(atom, REALS)
        assert not type1_cuts_ok(g)

    def test_type2(self):
        atom = Atom("v", A2, A2,
                    CardSet.of(A0, A1, A2), CardSet.of(A0, A1, A2), A2,
                    (CofPair(A0, A1), CofPair(A1, A0),
                     CofPair(ONE, A2), CofPair(A2, ONE)))
        g = GroupDescriptor(atom, REALS, spherical=True)
        assert type2_cuts_ok(g) is True
        bad = Atom("v", A0, A0, CardSet.of(A0), CardSet.of(A0), A0,
                   (CofPair(A0, A0),))
        assert type2_cuts_ok(GroupDescriptor(bad, REALS, spherical=True)) is False
        assert type2_cuts_ok(GroupDescriptor(atom, REALS)) is None


class TestClassifyGroup:
    def test_hahn_over_extreme_value_set(self):
        v = classify_group(H_GROUP)
        assert v.symmetric and v.strong and v.extreme
        assert "divisible" in v.facts
        assert "isomorphic to a Hahn product" in v.facts

    def test_countable_value_set_cofinality_blocks_strong(self):
        j = extend_order(EMPTY, A0, A1).term  # cf(J) = aleph0
        g = GroupDescriptor(j, REALS, spherical=True, divisible=True)
        v = classify_group(g)
        assert v.symmetric and not v.strong

    def test_dense_subgroup_components_block(self):
        g = GroupDescriptor(J_RECIPE, DENSE, spherical=True)
        assert not classify_group(g).symmetric

    def test_not_spherical_blocks(self):
        g = GroupDescriptor(J_RECIPE, REALS, divisible=True)
        assert not classify_group(g).symmetric

    def test_trivial_rejected(self):
        with pytest.raises(DomainError):
            classify_group(GroupDescriptor.trivial())


class TestClassifyDiscrete:
    def test_z(self):
        v = classify_discrete(Z_GROUP)
        assert not v.symmetric
        assert v.symmetric_d is True and v.extreme_d is False
        assert v.spherical_balls is True
        assert "Z-group" in v.facts

    def test_h_times_z(self):
        v = classify_discrete(HXZ)
        assert v.symmetric_d is True and v.extreme_d is True

    def test_h_times_z_countable_cf(self):
        g = GroupDescriptor(sum_of(J_CI_COUNTABLE, chain(1)), R_WITH_Z_TOP,
                            spherical=True, discrete=True)
        v = classify_discrete(g)
        assert v.symmetric_d is True and v.extreme_d is False

    def test_z_times_z(self):
        g = GroupDescriptor(chain(2), INTS, spherical=True, discrete=True)
        v = classify_discrete(g)
        assert v.symmetric_d is False

    def test_dense_rejected(self):
        with pytest.raises(DomainError):
            classify_discrete(H_GROUP)

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_alternating_value_set(self):
        """The quotient by the convex copy of Z drops the top of the value
        set in a loop: here the top end runs through 1,201 sums, alternately
        their right part under a reversal and their left part."""
        def alternating(base, levels):
            t = base
            for level in range(levels):
                t = sum_of(well(A0), rev(t)) if level % 2 == 0 else \
                    sum_of(rev(t), rev(well(A0)))
            return t

        def group(levels):
            return GroupDescriptor(alternating(chain(2), levels), R_WITH_Z_TOP,
                                   spherical=True, discrete=True)

        assert _minus_end(alternating(chain(2), 1201), True) == \
            alternating(chain(1), 1201)
        assert classify_group(group(1201)) == classify_group(group(9))


class TestDescriptorValidation:
    def test_discrete_needs_integer_top(self):
        with pytest.raises(DescriptorError):
            GroupDescriptor(chain(1), REALS, discrete=True)

    def test_integer_top_forces_discrete(self):
        with pytest.raises(DescriptorError):
            GroupDescriptor(chain(1), INTS, discrete=False)

    def test_top_special_needs_largest_element(self):
        with pytest.raises(DescriptorError):
            GroupDescriptor(well(A0), R_WITH_Z_TOP, discrete=True)

    def test_divisible_excludes_integers(self):
        with pytest.raises(DescriptorError):
            GroupDescriptor(chain(1), INTS, discrete=True, divisible=True)

    def test_real_closed_needs_divisible_value_group(self):
        with pytest.raises(DescriptorError):
            FieldDescriptor(GroupDescriptor(chain(1), INTS, discrete=True),
                            Residue.REALS, real_closed=True)


class TestClassifyField:
    def test_power_series_over_extreme_group(self):
        k = FieldDescriptor(H_GROUP, Residue.REALS, real_closed=True,
                            spherical=True)
        v = classify_field(k)
        assert v.symmetric and v.strong and v.extreme
        assert "real closed" in v.facts

    def test_proper_residue_blocks(self):
        k = FieldDescriptor(H_GROUP, Residue.PROPER, spherical=True)
        assert not classify_field(k).symmetric

    def test_strong_but_not_extreme_value_group(self):
        j = extend_order(EMPTY, A1, A0).term  # ci(J) countable
        vg = GroupDescriptor(j, REALS, spherical=True, divisible=True)
        assert classify_group(vg).strong and not classify_group(vg).extreme
        k = FieldDescriptor(vg, Residue.REALS, spherical=True)
        v = classify_field(k)
        assert v.symmetric and not v.strong

    def test_field_matches_additive_group_route(self):
        for k in (FieldDescriptor(H_GROUP, Residue.REALS, spherical=True),
                  FieldDescriptor(H_GROUP, Residue.PROPER, spherical=True),
                  FieldDescriptor(H_GROUP, Residue.REALS, spherical=False),
                  FieldDescriptor(GroupDescriptor.trivial(), Residue.REALS,
                                  spherical=True)):
            expected = k.spherical and k.residue == Residue.REALS and \
                (k.value_group.nontrivial and classify_group(k.value_group).strong)
            assert classify_field(k).symmetric == expected


class TestExtensions:
    def test_extend_group_from_atom(self):
        g = GroupDescriptor(Atom("v", A0, A0, CardSet.of(A0), CardSet.of(A0), A0),
                            DENSE)
        out = extend_group(g)
        assert out.descriptor.value_set.inner == g.value_set
        assert classify_group(out.descriptor).extreme

    def test_extend_group_idempotent_verdict(self):
        once = extend_group(Z_GROUP)
        twice = extend_group(once.descriptor)
        assert classify_group(once.descriptor).extreme
        assert classify_group(twice.descriptor).extreme

    def test_extend_field_rational_like(self):
        q = FieldDescriptor(GroupDescriptor.trivial(), Residue.PROPER)
        out = extend_field(q)
        assert out.descriptor.real_closed
        assert out.descriptor.residue == Residue.REALS
        assert out.descriptor.value_group.divisible
        assert classify_field(out.descriptor).extreme

    def test_extend_field_already_extreme(self):
        k = FieldDescriptor(H_GROUP, Residue.REALS, real_closed=True,
                            spherical=True)
        out = extend_field(k)
        assert classify_field(out.descriptor).extreme

    def test_extend_discrete_value_group(self):
        k = FieldDescriptor(Z_GROUP, Residue.PROPER, spherical=True)
        out = extend_field(k)
        assert classify_field(out.descriptor).extreme

    def test_extend_group_trivial_rejected(self):
        with pytest.raises(DomainError):
            extend_group(GroupDescriptor.trivial())


# ---------------------------------------------------------------------------
# Component kinds over a one-point value set
# ---------------------------------------------------------------------------

R, Z, D = ComponentKind.REALS, ComponentKind.INTEGERS, ComponentKind.DENSE
ONE_POINT, W1_PLUS_ONE = chain(1), sum_of(well(A1), chain(1))
J_PLUS_ONE = sum_of(J_RECIPE, chain(1))


def _kind_pairs():
    """Every base kind with every top kind, None (no top kind) included."""
    return [(base, top) for base in ComponentKind for top in (None, *ComponentKind)]


def _spherical_group(vset, base, top):
    """A spherical group over a value set with a largest element: discrete
    exactly when the kind at the top value is the integers."""
    return GroupDescriptor(vset, ComponentAssignment(base, top), spherical=True,
                           discrete=(top or base) == Z)


@pytest.mark.parametrize("base,top", _kind_pairs())
def test_one_point_value_set_reads_only_the_top_kind(base, top):
    """On a one-point value set only the kind at the top value counts: a
    real or an integer top passes the type-1 lemma, and only a real one makes
    the group symmetric; a lone Z is a Z-group.  Over w1 + 1 the (1,1) cut
    fails the lemma whatever the kinds, and over J + 1 the base kind counts
    too: it must be real."""
    at_top = top or base
    verdicts = [
        (ONE_POINT, at_top in (R, Z), at_top == R, (True, False)),
        (W1_PLUS_ONE, False, False, (False, False)),
        (J_PLUS_ONE, base == R and at_top in (R, Z), base == R and at_top == R,
         (base == R, base == R)),
    ]
    for vset, type1, symmetric, discrete_verdicts in verdicts:
        g = _spherical_group(vset, base, top)
        assert type1_cuts_ok(g) is type1, vset
        v = classify_group(g)
        assert (v.symmetric, v.strong, v.extreme) == (symmetric, False, False), vset
        if g.discrete:
            assert (v.symmetric_d, v.extreme_d) == discrete_verdicts, vset


def test_component_kinds():
    """The kind below the top value (None on one point) and the kind at the
    top value (None without a top)."""
    for base, top in _kind_pairs():
        at_top = top or base
        assert _spherical_group(ONE_POINT, base, top).component_kinds() == (None, at_top)
        assert _spherical_group(W1_PLUS_ONE, base, top).component_kinds() == (base, at_top)
    assert GroupDescriptor(well(A1), DENSE).component_kinds() == (D, None)
    assert GroupDescriptor(rev(well(A1)), INTS, discrete=True).component_kinds() == (Z, Z)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

VALUE_SET_SAMPLES = [
    chain(1), chain(2), chain(5),
    well(A0), well(A1), well(A2),
    rev(well(A0)), rev(well(A1)),
    sum_of(rev(well(A0)), well(A0)),
    sum_of(well(A0), chain(1)),
    sum_of(rev(well(A1)), chain(1)),
    J_RECIPE, J_CI_COUNTABLE,
    sum_of(J_RECIPE, chain(1)),
    extend_order(EMPTY, A2, A2).term,
]

COMPONENTS = [REALS, INTS, DENSE, R_WITH_Z_TOP,
              ComponentAssignment(ComponentKind.REALS, ComponentKind.DENSE)]


def descriptor_pool():
    for vset in VALUE_SET_SAMPLES:
        for comps in COMPONENTS:
            for spherical in (False, True):
                for divisible in (False, True):
                    top = comps.effective_top(cf(vset).is_one)
                    discrete = top == ComponentKind.INTEGERS
                    try:
                        yield GroupDescriptor(vset, comps, spherical=spherical,
                                              discrete=discrete,
                                              divisible=divisible)
                    except DescriptorError:
                        continue


def test_two_route_agreement_over_pool():
    count = 0
    for g in descriptor_pool():
        if not g.spherical:
            continue
        v = classify_group(g)  # raises internally on route disagreement
        assert v.symmetric == classify_group_cutwise(g)
        count += 1
    assert count > 50


def test_verdict_monotonicity_over_pool():
    for g in descriptor_pool():
        v = classify_group(g)
        assert (not v.extreme) or v.strong
        assert (not v.strong) or v.symmetric
        if v.extreme_d:
            assert v.symmetric_d


def test_asa_at_spectrum_level():
    # nonprincipal asymmetric pairs are strongly asymmetric: no component is
    # 1 and the only countable infinite regular is aleph0
    from ordercuts.order_terms import cut_spectrum
    for vset in VALUE_SET_SAMPLES:
        for pair in cut_spectrum(vset).pairs_below(aleph(4)):
            if not pair.is_principal and pair.is_asymmetric:
                assert pair.is_strongly_asymmetric


def test_cut_lemmas_match_pair_definitions():
    """The two cut lemmas read the value set's two spectrum facts; on the
    sample value sets, and on atoms whose countable pairs have a left
    component 1 or an infinite one, they agree with their definitions on
    the enumerated pairs."""
    from ordercuts.order_terms import cut_spectrum
    ends = CardSet.of(A0, A1, A2)
    atoms = [Atom("v", A2, A2, ends, ends, A2, cuts)
             for cuts in [(CofPair(ONE, ONE), CofPair(A0, A2)),
                          (CofPair(ONE, A0), CofPair(A2, A1)),
                          (CofPair(A0, ONE), CofPair(ONE, A1)),
                          (CofPair(A0, A0), CofPair(A1, ONE))]]
    for vset in VALUE_SET_SAMPLES + atoms:
        below = cut_spectrum(vset).pairs_below(aleph(12))
        g = GroupDescriptor(vset, REALS, spherical=True)
        assert type1_cuts_ok(g) == (not any(
            p.left.is_one and not p.right.is_uncountable for p in below)), vset
        assert type2_cuts_ok(g) == (not any(
            p.left.is_infinite and not p.is_strongly_asymmetric for p in below)), vset


# ---------------------------------------------------------------------------
# Refusals of descriptors, verdicts and the classifier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build,fragment", [
    (lambda: GroupDescriptor(chain(1), REALS, discrete=True),
     "^a discretely ordered group has integer component at the top value$"),
    (lambda: GroupDescriptor(chain(1), INTS),
     "^integer component at the top value forces a discrete order$"),
    (lambda: GroupDescriptor(EMPTY, spherical=True),
     "^the trivial group carries no structure flags$"),
    (lambda: GroupDescriptor(EMPTY, discrete=True),
     "^the trivial group carries no structure flags$"),
    (lambda: Verdict(True, False, True), "^extreme implies strong$"),
    (lambda: Verdict(False, True, False), "^strong implies symmetric$"),
    (lambda: Verdict(False, False, False, symmetric_d=False, extreme_d=True),
     "^extreme-d implies symmetric-d$"),
], ids=["discrete-needs-integer-top", "integer-top-forces-discrete",
        "trivial-spherical", "trivial-discrete", "verdict-extreme",
        "verdict-strong", "verdict-extreme-d"])
def test_descriptor_and_verdict_refusals(build, fragment):
    with pytest.raises(DescriptorError, match=fragment):
        build()


def test_disagreeing_routes_are_refused(monkeypatch):
    """The two classifier routes are compared on every spherical group: a
    cut-by-cut route that says otherwise stops the classification."""
    monkeypatch.setattr(struct_classify, "classify_group_cutwise", lambda g: False)
    with pytest.raises(DescriptorError,
                       match="classifier routes disagree on .*: theorem=True lemmas=False"):
        classify_group(H_GROUP)
    monkeypatch.setattr(struct_classify, "classify_group_cutwise", lambda g: True)
    with pytest.raises(DescriptorError, match="theorem=False lemmas=True"):
        classify_group(GroupDescriptor(well(A0), REALS, spherical=True))


def test_quotient_of_an_atom_topped_value_set_is_refused():
    """The quotient by the convex integer copy drops the largest value; an
    atom has no element the calculus can remove."""
    top = Atom("top", ONE, ONE, CardSet.empty(), CardSet.empty(), None, ())
    for vset in (top, sum_of(well(A0), top)):
        g = GroupDescriptor(vset, R_WITH_Z_TOP, spherical=True, discrete=True)
        with pytest.raises(NotDerivableError,
                           match="cannot remove the largest element of atom"):
            classify_group(g)


def test_refused_end_leaf_is_named_by_its_head():
    """A `lexsched` leaf nests to any depth; the refusal to remove its end
    names it by its head, so the message stays short."""
    deep = EMPTY
    for _ in range(500):
        deep = LexSchedule(A2, A1, A1, CardinalSchedule(A2, A3, RULE_DSUCC, RULE_DSUCC),
                           deep)
    for top, end in ((True, "largest"), (False, "least")):
        vset = sum_of(well(A0), deep) if top else sum_of(deep, well(A0))
        with pytest.raises(NotDerivableError) as info:
            _minus_end(vset, top)
        assert str(info.value) == f"cannot remove the {end} element of lexsched(...)"
