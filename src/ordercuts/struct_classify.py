"""Descriptors and classifiers for ordered abelian groups and fields.

A group is described by its value set (an order term), the shape of its
archimedean components, and structural flags.  Classification runs along two
routes that must agree: the global characterization (spherically complete +
strongly symmetrically complete value set + real components) and the
cut-by-cut route (principal cuts, then both kinds of nonprincipal cuts).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from .cardinals import ALEPH0, Card, ONE
from .errors import DescriptorError, DomainError, NotDerivableError
from .order_terms import (
    EMPTY,
    Empty,
    FiniteChain,
    OrderExtension,
    OrderTerm,
    Rev,
    Sum,
    WellOrder,
    cf,
    chain,
    ci,
    completeness_predicates,
    cut_spectrum,
    extend_order,
    rev,
    sum_of,
)


class ComponentKind(Enum):
    REALS = "reals"
    INTEGERS = "ints"
    DENSE = "dense"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ComponentAssignment:
    """Archimedean component kinds over the value set: one uniform kind, with
    an optional different kind at the largest value-set element."""

    base: ComponentKind
    top: Optional[ComponentKind] = None

    def effective_top(self, value_set_has_max: bool) -> Optional[ComponentKind]:
        if not value_set_has_max:
            return None
        return self.top if self.top is not None else self.base

    def __str__(self) -> str:
        if self.top is None:
            return str(self.base)
        return f"{self.base}+{self.top}_at_top"


UNIFORM_REALS = ComponentAssignment(ComponentKind.REALS)


@dataclass(frozen=True)
class GroupDescriptor:
    value_set: OrderTerm
    components: ComponentAssignment = UNIFORM_REALS
    spherical: bool = False   # spherically complete w.r.t. the natural valuation
    discrete: bool = False
    divisible: bool = False

    def __post_init__(self):
        if self.nontrivial:
            has_max = cf(self.value_set).is_one
            if self.components.top is not None and not has_max:
                raise DescriptorError(
                    "a top-special component needs a value set with a largest element")
            top = self.components.effective_top(has_max)
            if self.discrete != (top == ComponentKind.INTEGERS):
                raise DescriptorError(
                    "a discretely ordered group has integer component at the top value"
                    if self.discrete else
                    "integer component at the top value forces a discrete order")
            if self.divisible and (self.components.base == ComponentKind.INTEGERS
                                   or top == ComponentKind.INTEGERS):
                raise DescriptorError("integer components are not divisible")
        elif self.discrete or self.divisible or self.spherical:
            raise DescriptorError("the trivial group carries no structure flags")

    @property
    def nontrivial(self) -> bool:
        return not isinstance(self.value_set, Empty)

    def component_kinds(self) -> Tuple[Optional[ComponentKind], Optional[ComponentKind]]:
        """(the kind below the top value, None on a one-point value set; the
        kind at the top value, None when the value set has no top)."""
        vset, comps = self.value_set, self.components
        has_max = cf(vset).is_one
        one_point = has_max and ci(vset).is_one and cut_spectrum(vset).is_empty
        return (None if one_point else comps.base), comps.effective_top(has_max)

    @staticmethod
    def trivial() -> "GroupDescriptor":
        return GroupDescriptor(EMPTY)

    def __str__(self) -> str:
        flags = (f"spherical={'true' if self.spherical else 'false'}; "
                 f"discrete={'true' if self.discrete else 'false'}; "
                 f"divisible={'true' if self.divisible else 'false'}")
        return f"group(vset={self.value_set}; comp={self.components}; {flags})"


class Residue(Enum):
    REALS = "reals"
    PROPER = "proper"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FieldDescriptor:
    """An ordered field through its natural valuation: the value group with
    its own structure, the residue field, and field-level flags.  The
    additive group is determined: dense, divisible, components isomorphic to
    the residue field."""

    value_group: GroupDescriptor
    residue: Residue = Residue.PROPER
    real_closed: bool = False
    spherical: bool = False

    def __post_init__(self):
        if self.real_closed and self.value_group.nontrivial \
                and not self.value_group.divisible:
            raise DescriptorError("a real closed field has divisible value group")

    def __str__(self) -> str:
        return (f"field(group={self.value_group}; residue={self.residue}; "
                f"realclosed={'true' if self.real_closed else 'false'}; "
                f"spherical={'true' if self.spherical else 'false'})")


@dataclass(frozen=True)
class Verdict:
    symmetric: bool
    strong: bool
    extreme: bool
    symmetric_d: Optional[bool] = None
    extreme_d: Optional[bool] = None
    facts: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.extreme and not self.strong:
            raise DescriptorError("extreme implies strong")
        if self.strong and not self.symmetric:
            raise DescriptorError("strong implies symmetric")
        if self.extreme_d and not self.symmetric_d:
            raise DescriptorError("extreme-d implies symmetric-d")

    @property
    def spherical_balls(self) -> Optional[bool]:
        """Complete w.r.t. the order balls: for discrete groups this is the
        d-verdict, for dense ones it coincides with symmetric completeness."""
        if self.symmetric_d is not None:
            return self.symmetric_d
        return self.symmetric


# ---------------------------------------------------------------------------
# The cofinality calculus
# ---------------------------------------------------------------------------

def _require_nontrivial(g: GroupDescriptor) -> None:
    if not g.nontrivial:
        raise DomainError("the trivial group is out of scope here")


def cf_group(g: GroupDescriptor) -> Card:
    """Cofinality of the group: max(aleph0, ci of the value set)."""
    _require_nontrivial(g)
    return max(ALEPH0, ci(g.value_set))


def ci_positive_cone(g: GroupDescriptor) -> Card:
    """Coinitiality of the positive cone: 1 for discrete groups, otherwise
    max(aleph0, cf of the value set)."""
    _require_nontrivial(g)
    if g.discrete:
        return ONE
    return max(ALEPH0, cf(g.value_set))


def cf_m_gamma(upper_coinitiality: Card) -> Card:
    """Cofinality of the ideal M_gamma from the coinitiality of the value set
    above gamma; gamma must not be the largest value."""
    if upper_coinitiality.is_zero:
        raise DomainError("gamma is the largest value: M_gamma is trivial")
    return max(ALEPH0, upper_coinitiality)


def principal_cuts_ok(g: GroupDescriptor) -> Tuple[bool, bool]:
    """(every principal cut asymmetric, every principal cut strongly so)."""
    _require_nontrivial(g)
    dense = not g.discrete
    return dense, dense and cf(g.value_set).is_uncountable


def type1_cuts_ok(g: GroupDescriptor) -> bool:
    """Nonprincipal cuts refining a smallest ultrametric ball are strongly
    asymmetric iff the components are real lines (integers allowed at the
    top) and every (1, l) cut of the value set has l uncountable."""
    _require_nontrivial(g)
    below, top = g.component_kinds()
    comp_ok = below in (None, ComponentKind.REALS) and \
        top in (None, ComponentKind.REALS, ComponentKind.INTEGERS)
    spec = cut_spectrum(g.value_set)
    return comp_ok and not any(p.left.is_one for p in spec.countable_pairs())


def type2_cuts_ok(g: GroupDescriptor) -> Optional[bool]:
    """Nonprincipal cuts along a strictly shrinking ball chain; only decided
    for groups spherically complete w.r.t. the natural valuation (None
    otherwise)."""
    _require_nontrivial(g)
    if not g.spherical:
        return None
    spec = cut_spectrum(g.value_set)
    return not spec.has_infinite_symmetric() and \
        all(p.left.is_one for p in spec.countable_pairs())


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_group_cutwise(g: GroupDescriptor) -> bool:
    """Symmetric completeness decided cut kind by cut kind: principal cuts,
    then both nonprincipal kinds (the shrinking-ball kind needs spherical
    completeness, without which the group cannot be symmetrically complete)."""
    prin_asym, _ = principal_cuts_ok(g)
    t2 = type2_cuts_ok(g)
    if t2 is None:
        return False
    return prin_asym and type1_cuts_ok(g) and t2


def _quotient_mod_z(g: GroupDescriptor) -> Optional[GroupDescriptor]:
    """The descriptor of G modulo its convex integer copy: drop the largest
    value-set element, components otherwise unchanged.  None when trivial."""
    vq = _minus_end(g.value_set, True)
    if isinstance(vq, Empty):
        return None
    base = g.components.base
    divisible = base != ComponentKind.INTEGERS
    return GroupDescriptor(vq, ComponentAssignment(base), spherical=g.spherical,
                           discrete=not divisible and cf(vq).is_one,
                           divisible=divisible)


def _minus_end(t: OrderTerm, top: bool) -> OrderTerm:
    """t without its largest element when `top`, else without its least.
    A loop steps through the sums and reversals on the way to that end,
    keeping what it passed on a stack; only the leaf at the end is
    rewritten, and the other children along the way are kept as they are."""
    passed = []
    while isinstance(t, (Sum, Rev)):
        if isinstance(t, Rev):
            passed.append(None)
            t, top = t.inner, not top
        else:
            passed.append((t.left if top else t.right, top))
            t = t.right if top else t.left
    if isinstance(t, FiniteChain):
        out = chain(t.size - 1)
    elif isinstance(t, WellOrder) and not top:
        out = t
    else:
        end = "largest" if top else "least"
        raise NotDerivableError(f"cannot remove the {end} element of {t}")
    for step in reversed(passed):
        if step is None:
            out = rev(out)
        else:
            other, side_top = step
            out = sum_of(other, out) if side_top else sum_of(out, other)
    return out


def _classify_core(g: GroupDescriptor) -> Tuple[bool, bool, bool]:
    vset = completeness_predicates(g.value_set)
    all_reals = all(kind in (None, ComponentKind.REALS) for kind in g.component_kinds())
    symmetric = g.spherical and vset.strong and all_reals
    strong = symmetric and cf(g.value_set).is_uncountable
    extreme = symmetric and vset.extreme

    if g.spherical:
        lemma_symmetric = classify_group_cutwise(g)
        if lemma_symmetric != symmetric:
            raise DescriptorError(
                f"classifier routes disagree on {g}: theorem={symmetric} "
                f"lemmas={lemma_symmetric}")
    return symmetric, strong, extreme


def classify_group(g: GroupDescriptor) -> Verdict:
    """Symmetric iff spherically complete with strongly symmetrically
    complete value set and all real components; strong adds an uncountable
    value-set cofinality, extreme an extremely complete value set.  For
    discrete groups the d-verdicts come from the quotient mod the integer
    copy."""
    _require_nontrivial(g)
    symmetric, strong, extreme = _classify_core(g)

    symmetric_d = extreme_d = None
    facts = ("divisible", "isomorphic to a Hahn product") if symmetric else ()
    if g.discrete:
        quotient = _quotient_mod_z(g)
        if quotient is None:
            symmetric_d, extreme_d = True, False
        else:
            _, symmetric_d, extreme_d = _classify_core(quotient)
        if symmetric_d:
            facts = ("Z-group", "isomorphic to a Hahn product")
    return Verdict(symmetric, strong, extreme, symmetric_d, extreme_d, facts)


def classify_discrete(g: GroupDescriptor) -> Verdict:
    """The discrete-group verdict; requires a discretely ordered input."""
    _require_nontrivial(g)
    if not g.discrete:
        raise DomainError("classify_discrete expects a discretely ordered group")
    return classify_group(g)


def classify_field(k: FieldDescriptor) -> Verdict:
    """Symmetric iff spherically complete with real residue field and
    strongly symmetrically complete value group; strongly and extremely
    complete coincide and need an extremely complete value group."""
    vg = k.value_group
    if not vg.nontrivial:
        vg_strong = vg_extreme = False
    else:
        vgv = classify_group(vg)
        vg_strong, vg_extreme = vgv.strong, vgv.extreme
    symmetric = k.spherical and k.residue == Residue.REALS and vg_strong
    strong = extreme = k.spherical and k.residue == Residue.REALS and vg_extreme
    facts = []
    if symmetric:
        facts = ["real closed", "isomorphic to a power series field",
                 "residue field R", "divisible value group"]
    return Verdict(symmetric, strong, extreme, None, None, tuple(facts))


# ---------------------------------------------------------------------------
# Extension constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureExtension:
    """An extended group or field and the recipe that extends its value set."""

    descriptor: Union[GroupDescriptor, FieldDescriptor]
    recipe: OrderExtension


def extend_group(g: GroupDescriptor) -> StructureExtension:
    """Embed the group into the Hahn product over the extended value set with
    real components: the result is extremely symmetrically complete.  The
    recipe takes aleph(1) for both k0 and l0."""
    _require_nontrivial(g)
    ext = extend_order(g.value_set)
    return StructureExtension(_extended_group(ext), ext)


def _extended_group(ext: OrderExtension) -> GroupDescriptor:
    return GroupDescriptor(ext.term, spherical=True, divisible=True)


def extend_field(k: FieldDescriptor) -> StructureExtension:
    """Pass to the real closure, embed it into a power series field over the
    extended value group, with real coefficients: extremely symmetrically
    complete.  The real closure's value group is the divisible hull of the
    value group, over the same value set, and only the value set is
    extended, with aleph(1) for both k0 and l0."""
    ext = extend_order(k.value_group.value_set)
    out = FieldDescriptor(value_group=_extended_group(ext), residue=Residue.REALS,
                          real_closed=True, spherical=True)
    return StructureExtension(out, ext)
