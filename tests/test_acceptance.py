"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is self-contained and deterministic.
"""

import functools
import itertools
import pathlib
import random
import time

from ordercuts.cardinals import (
    CardSet,
    CofPair,
    ONE,
    OrdinalIndex,
    aleph,
    reg_below,
)
from ordercuts.chains import LexChain
from ordercuts.errors import DescriptorError
from ordercuts.hahn_concrete import (
    INT_CHAIN,
    RAT_CHAIN,
    ExponentGroup,
    law_failures,
)
from ordercuts.oracle import spectrum_soundness
from ordercuts.order_terms import (
    Atom,
    CardinalSchedule,
    ChainPairs,
    ChainSeg,
    CutSpectrum,
    DOM_DEFAULT,
    DOM_ONE,
    DOM_SINGLE,
    EMPTY,
    ExplicitPairs,
    LexRefined,
    LexSchedule,
    PhiMap,
    PhiPiece,
    RowSeg,
    RULE_DSUCC,
    RULE_ID,
    cf,
    chain,
    check_side_conditions,
    completeness_predicates,
    cut_spectrum,
    extend_order,
    rev,
    nonprincipal_cuts_all_asymmetric,
    sum_of,
    well,
)
from ordercuts.struct_classify import (
    ComponentAssignment,
    ComponentKind,
    GroupDescriptor,
    classify_group,
    classify_group_cutwise,
)
from subproc import run_python

A = [aleph(n) for n in range(9)]
W = OrdinalIndex.omega()


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return run
    return wrap


def pairs(*items):
    return frozenset(CofPair(a, b) for a, b in items)


# ---------------------------------------------------------------------------
# 1. Spectrum-formula fidelity
# ---------------------------------------------------------------------------

@criterion("1 spectrum-formula fidelity")
def test_criterion_1_spectrum_fidelity():
    start = time.perf_counter()

    # first construction, recipe parameters k0 = l0 = aleph1, mu = aleph2
    sched1 = CardinalSchedule(A[2], A[3], RULE_DSUCC, RULE_DSUCC)
    j1 = LexSchedule(A[2], A[1], A[1], sched1, EMPTY)
    expect1 = CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[2]), CofPair(A[2], ONE)), True),
        RowSeg(A[2], reg_below(A[2])),
        RowSeg(A[3], reg_below(A[2]), True),
        ChainPairs(A[2].index, 2, A[3].index, 2),
        ChainSeg(A[4].index, 2, A[3].index, 2),
        ChainSeg(A[5].index, 2, A[2].index, 2, True),
    ))
    assert cut_spectrum(j1) == expect1
    assert cut_spectrum(j1).pairs_below(A[6]) == pairs(
        (ONE, A[2]), (A[2], ONE), (A[2], A[0]), (A[2], A[1]),
        (A[0], A[3]), (A[1], A[3]), (A[2], A[3]), (A[4], A[5]),
        (A[4], A[0]), (A[4], A[1]), (A[4], A[2]), (A[0], A[5]), (A[1], A[5]))

    # first construction, asymmetric k0/l0, mu = aleph3
    sched2 = CardinalSchedule(A[3], A[4], RULE_DSUCC, RULE_DSUCC)
    j2 = LexSchedule(A[3], A[2], A[1], sched2, EMPTY)
    expect2 = CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[3]), CofPair(A[3], ONE)), True),
        RowSeg(A[3], reg_below(A[3])),
        RowSeg(A[4], reg_below(A[3]), True),
        ChainPairs(A[3].index, 2, A[4].index, 2),
        ChainSeg(A[5].index, 2, A[4].index, 2),
        ChainSeg(A[6].index, 2, A[3].index, 2, True),
    ))
    assert cut_spectrum(j2) == expect2

    # first construction, countable mu with identity schedule rules
    sched3 = CardinalSchedule(A[1], A[2], RULE_ID, RULE_ID)
    j3 = LexSchedule(A[0], A[0], A[0], sched3, EMPTY)
    expect3 = CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[0]), CofPair(A[0], ONE)), True),
        ExplicitPairs((CofPair(A[1], A[2]),), False),
        RowSeg(A[1], reg_below(A[2])),
        RowSeg(A[2], reg_below(A[1]), True),
    ))
    assert cut_spectrum(j3) == expect3

    # first construction over an atom, with limit values detached from nu=1
    atom = Atom("i", A[0], A[1], CardSet.of(A[0], A[1]), CardSet.of(A[0]), A[2])
    sched4 = CardinalSchedule(A[4], A[5], RULE_DSUCC, RULE_DSUCC, A[3], A[4])
    j4 = LexSchedule(A[3], A[1], A[1], sched4, atom)
    expect4 = CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[3]), CofPair(A[3], ONE)), True),
        RowSeg(A[4], reg_below(A[2])),
        RowSeg(A[3], reg_below(A[3])),
        RowSeg(A[5], reg_below(A[1]), True),
        RowSeg(A[4], reg_below(A[3]), True),
        ChainPairs(A[4].index, 2, A[5].index, 2),
        ChainPairs(A[5].index, 2, A[6].index, 2),
        ChainSeg(A[6].index, 2, A[5].index, 2),
        ChainSeg(A[5].index, 2, A[4].index, 2),
        ChainSeg(A[7].index, 2, A[4].index, 2, True),
        ChainSeg(A[6].index, 2, A[3].index, 2, True),
    ))
    assert cut_spectrum(j4) == expect4

    swap = PhiMap((PhiPiece(DOM_ONE, None, A[0]),
                   PhiPiece(DOM_SINGLE, A[0], A[1]),
                   PhiPiece(DOM_SINGLE, A[1], A[0])))

    # refined construction: the worked aleph2 example
    r1 = LexRefined(A[2], A[2], A[2], swap, swap, EMPTY)
    assert cut_spectrum(r1) == CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[2]), CofPair(A[2], ONE)), True),
        ExplicitPairs((CofPair(A[0], A[1]), CofPair(A[1], A[0])), False),
    ))
    assert cut_spectrum(r1).pairs_below(A[3]) == pairs(
        (ONE, A[2]), (A[2], ONE), (A[0], A[1]), (A[1], A[0]))

    # refined construction with a fixed point: the symmetric pair shows up
    fixl = PhiMap((PhiPiece(DOM_DEFAULT, None, A[0]),))
    fixr = PhiMap((PhiPiece(DOM_ONE, None, A[1]),
                   PhiPiece(DOM_SINGLE, A[0], A[1])))
    r2 = LexRefined(A[1], A[1], A[2], fixl, fixr, EMPTY)
    assert cut_spectrum(r2) == CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[1]), CofPair(A[1], ONE)), True),
        ExplicitPairs((CofPair(A[0], A[1]), CofPair(A[0], A[0])), False),
    ))

    # refined construction over an atom, wider Rl = Rr = reg<aleph3
    table = PhiMap((PhiPiece(DOM_ONE, None, A[2]),
                    PhiPiece(DOM_SINGLE, A[0], A[1]),
                    PhiPiece(DOM_SINGLE, A[1], A[0]),
                    PhiPiece(DOM_SINGLE, A[2], A[0])))
    atom_q = Atom("q", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0])
    r3 = LexRefined(A[3], A[2], A[1], table, table, atom_q)
    assert cut_spectrum(r3) == CutSpectrum.of((
        ExplicitPairs((CofPair(ONE, A[3]), CofPair(A[3], ONE)), True),
        ExplicitPairs((CofPair(A[0], A[1]), CofPair(A[1], A[0]),
                       CofPair(A[2], A[0]), CofPair(A[0], A[2])), False),
    ))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"spectrum fidelity took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. Recipe theorem
# ---------------------------------------------------------------------------

@criterion("2 extension recipe")
def test_criterion_2_recipe():
    atoms = [EMPTY]
    for idx, (coin, cofin, bound) in enumerate([
            (CardSet.of(A[0]), CardSet.of(A[0]), A[0]),
            (CardSet.of(A[0], A[1]), CardSet.of(A[0]), A[1]),
            (CardSet.of(A[0]), CardSet.of(A[0], A[1], A[2]), A[2]),
            (reg_below(A[3]), reg_below(A[3]), A[3]),
    ]):
        atoms.append(Atom(f"a{idx}", A[0], A[0], coin, cofin, bound))
    for inner in atoms:
        for k0, l0 in itertools.product((A[1], A[2]), repeat=2):
            ext = extend_order(inner, k0, l0)
            checks = check_side_conditions(ext.term)
            assert all(c.passed for c in checks), \
                [str(c) for c in checks if not c.passed]
            comp = completeness_predicates(ext.term)
            assert comp.extreme is True
        downgraded = extend_order(inner, A[0], A[1])
        comp = completeness_predicates(downgraded.term)
        assert comp.strong is True
        assert comp.extreme is False


# ---------------------------------------------------------------------------
# 3 & 4. Classifier agreement and the order-ball criterion
# ---------------------------------------------------------------------------

def _value_set_pool():
    pool = [chain(1), chain(2), chain(3), chain(5), chain(8)]
    wells = [well(A[n]) for n in range(4)]
    pool += wells
    pool += [rev(w) for w in wells]
    pool += [sum_of(rev(w), w) for w in wells]          # two-sided ladders
    pool += [sum_of(w, rev(w)) for w in wells[:2]]
    pool += [sum_of(w, chain(1)) for w in wells]        # top element added
    pool += [sum_of(chain(1), w) for w in wells[:2]]
    pool += [sum_of(rev(well(A[1])), well(A[0])),       # mixed-rank ladders
             sum_of(rev(well(A[0])), well(A[1])),
             sum_of(rev(well(A[2])), well(A[1])),
             sum_of(well(A[0]), rev(well(A[1]))),
             sum_of(well(A[1]), rev(well(A[2])))]
    pool += [sum_of(chain(2), w, chain(2)) for w in wells[:3]]
    recipes = [extend_order(EMPTY, k0, l0).term
               for k0, l0 in ((A[1], A[1]), (A[2], A[1]), (A[1], A[0]),
                              (A[0], A[0]), (A[2], A[2]))]
    pool += recipes
    pool += [sum_of(j, chain(1)) for j in recipes[:3]]
    sched_eq = CardinalSchedule(A[2], A[2], RULE_DSUCC, RULE_DSUCC)
    pool.append(LexSchedule(A[1], A[1], A[1], sched_eq, EMPTY))
    sched_id = CardinalSchedule(A[1], A[2], RULE_ID, RULE_ID)
    pool.append(LexSchedule(A[0], A[0], A[0], sched_id, EMPTY))
    swap = PhiMap((PhiPiece(DOM_ONE, None, A[0]),
                   PhiPiece(DOM_SINGLE, A[0], A[1]),
                   PhiPiece(DOM_SINGLE, A[1], A[0])))
    pool.append(LexRefined(A[2], A[2], A[2], swap, swap, EMPTY))
    fix = PhiMap((PhiPiece(DOM_DEFAULT, None, A[0]),))
    fixr = PhiMap((PhiPiece(DOM_ONE, None, A[1]),
                   PhiPiece(DOM_SINGLE, A[0], A[1])))
    pool.append(LexRefined(A[1], A[1], A[2], fix, fixr, EMPTY))
    atoms = [
        Atom("rat", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0],
             (CofPair(ONE, A[0]), CofPair(A[0], ONE), CofPair(A[0], A[0]))),
        Atom("realline", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0],
             (CofPair(ONE, A[0]), CofPair(A[0], ONE))),
        Atom("intline", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0],
             (CofPair(ONE, ONE),)),
        Atom("good", A[2], A[2], reg_below(A[3]), reg_below(A[3]), A[2],
             (CofPair(ONE, A[2]), CofPair(A[2], ONE),
              CofPair(A[0], A[1]), CofPair(A[1], A[0]))),
        Atom("onerow", A[1], A[1], CardSet.of(A[0], A[1]), CardSet.of(A[0], A[1]),
             A[1], (CofPair(ONE, A[1]), CofPair(A[1], ONE), CofPair(A[0], A[0]))),
    ]
    pool += atoms
    return pool


_COMPONENTS = [
    ComponentAssignment(ComponentKind.REALS),
    ComponentAssignment(ComponentKind.INTEGERS),
    ComponentAssignment(ComponentKind.DENSE),
    ComponentAssignment(ComponentKind.REALS, ComponentKind.INTEGERS),
    ComponentAssignment(ComponentKind.REALS, ComponentKind.DENSE),
]


def _descriptor(vset, comps, spherical, divisible):
    top = comps.effective_top(cf(vset).is_one)
    discrete = top == ComponentKind.INTEGERS
    return GroupDescriptor(vset, comps, spherical=spherical,
                           discrete=discrete, divisible=divisible)


def _lemma_route(g):
    return classify_group_cutwise(g)


@criterion("3 two-path classifier agreement")
def test_criterion_3_two_path_agreement():
    pool = _value_set_pool()
    assert len(pool) >= 50
    disagreements = 0
    checked = 0
    for vset in pool:
        for comps in _COMPONENTS:
            for spherical in (False, True):
                for divisible in (False, True):
                    try:
                        g = _descriptor(vset, comps, spherical, divisible)
                    except DescriptorError:
                        continue
                    checked += 1
                    if classify_group(g).symmetric != _lemma_route(g):
                        disagreements += 1
    exhaustive = checked
    rng = random.Random(20240817)
    randoms = 0
    while randoms < 1000:
        vset = rng.choice(pool)
        comps = rng.choice(_COMPONENTS)
        try:
            g = _descriptor(vset, comps, rng.random() < 0.5, rng.random() < 0.5)
        except DescriptorError:
            continue
        randoms += 1
        if classify_group(g).symmetric != _lemma_route(g):
            disagreements += 1
    assert exhaustive >= 500 and randoms == 1000
    assert disagreements == 0


@criterion("4 order-ball criterion equivalence")
def test_criterion_4_order_ball_equivalence():
    pool = _value_set_pool()
    disagreements = 0
    for vset in pool:
        spec = cut_spectrum(vset)
        via_tags = not spec.has_nonprincipal_symmetric()
        via_components = nonprincipal_cuts_all_asymmetric(spec)
        predicate = completeness_predicates(vset).spherical_balls
        if not (via_tags == via_components == predicate):
            disagreements += 1
    assert disagreements == 0


# ---------------------------------------------------------------------------
# 5. The integers sanity block
# ---------------------------------------------------------------------------

@criterion("5 integers sanity block")
def test_criterion_5_integers():
    z = GroupDescriptor(chain(1), ComponentAssignment(ComponentKind.INTEGERS),
                        spherical=True, discrete=True)
    v = classify_group(z)
    assert v.symmetric is False
    assert v.spherical_balls is True
    assert v.symmetric_d is True
    assert v.extreme_d is False

    j_strong = extend_order(EMPTY, A[1], A[1]).term
    hxz = GroupDescriptor(
        sum_of(j_strong, chain(1)),
        ComponentAssignment(ComponentKind.REALS, ComponentKind.INTEGERS),
        spherical=True, discrete=True)
    v = classify_group(hxz)
    assert v.symmetric_d is True
    assert v.extreme_d is True  # cf(H) = ci(J) = aleph1 is uncountable

    j_countable_ci = extend_order(EMPTY, A[1], A[0]).term
    hxz_countable = GroupDescriptor(
        sum_of(j_countable_ci, chain(1)),
        ComponentAssignment(ComponentKind.REALS, ComponentKind.INTEGERS),
        spherical=True, discrete=True)
    v = classify_group(hxz_countable)
    assert v.symmetric_d is True
    assert v.extreme_d is False


# ---------------------------------------------------------------------------
# 6. Concrete Hahn law suite
# ---------------------------------------------------------------------------

N_CASES = 10_000
FAMILIES = [INT_CHAIN, RAT_CHAIN, LexChain((INT_CHAIN, INT_CHAIN)),
            LexChain((RAT_CHAIN, INT_CHAIN))]
# One constant seed per family: string hashes are salted per process, so a
# seed derived from hash(str(chain)) would draw new cases on every run.
FAMILY_SEEDS = (6001, 6002, 6003, 6004)


@criterion("6 concrete Hahn law suite")
def test_criterion_6_hahn_laws():
    start = time.perf_counter()
    failures = []
    for chain_, seed in zip(FAMILIES, FAMILY_SEEDS):
        failures += law_failures(chain_, N_CASES, random.Random(seed))
    for dims in (1, 2, 3):
        failures += law_failures(ExponentGroup(dims), N_CASES,
                                 random.Random(1000 + dims))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 30.0, f"law suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7. Oracle agreement on the countable fragment
# ---------------------------------------------------------------------------

def _countable_fragment():
    w = well(A[0])
    ws = rev(w)
    rat = Atom("rat", A[0], A[0], CardSet.of(A[0]), CardSet.of(A[0]), A[0],
               (CofPair(ONE, A[0]), CofPair(A[0], ONE), CofPair(A[0], A[0])))
    terms = [
        w, ws, chain(1), chain(2), chain(7),
        sum_of(ws, w), sum_of(w, ws), sum_of(w, w), sum_of(ws, ws),
        sum_of(w, chain(1)), sum_of(chain(1), w), sum_of(chain(3), ws),
        sum_of(w, chain(2), ws), sum_of(ws, chain(2), w),
        sum_of(w, ws, w), sum_of(ws, w, ws),
        sum_of(sum_of(ws, w), sum_of(ws, w)),
        rev(sum_of(w, ws)), rev(sum_of(chain(1), w)),
        sum_of(w, w, w), sum_of(w, sum_of(ws, chain(4))),
        rat, sum_of(rat, w), sum_of(ws, rat),
    ]
    return terms


@criterion("7 oracle agreement at depth 100")
def test_criterion_7_oracle_agreement():
    terms = _countable_fragment()
    assert len(terms) >= 20
    discrepancies = []
    for t in terms:
        report = spectrum_soundness(t, depth=100)
        if not report.ok:
            discrepancies.append((str(t), report.render_lines()))
    assert not discrepancies, discrepancies


# ---------------------------------------------------------------------------
# 8. CLI determinism and round-trip
# ---------------------------------------------------------------------------

@criterion("8 cli determinism and round-trip")
def test_criterion_8_cli():
    here = pathlib.Path(__file__).parent
    fixtures = here / "fixtures"
    golden = here / "golden"
    jobs = [
        ("spectrum", "corpus.defs", "text", ("--bound", "aleph(4)")),
        ("spectrum", "corpus.defs", "machine", ("--bound", "aleph(4)")),
        ("classify", "corpus.defs", "text", ()),
        ("classify", "corpus.defs", "machine", ()),
        ("extend", "corpus.defs", "machine", ()),
        ("check-conditions", "corpus.defs", "machine", ()),
        ("verify", "countable.defs", "machine", ()),
    ]
    for cmd, fixture, fmt, extra in jobs:
        args = ["-m", "ordercuts.cli", "--in", str(fixtures / fixture),
                "--cmd", cmd, "--format", fmt, *extra]
        first, second = run_python(*args), run_python(*args)
        assert first.stdout == second.stdout
        name = f"{cmd}_{fixture.split('.')[0]}.{fmt}"
        assert first.stdout == (golden / name).read_text(), name

    from ordercuts.cli import parse_definitions, print_definitions
    for fixture in ("corpus.defs", "countable.defs", "errors.defs"):
        text = (fixtures / fixture).read_text()
        canon = print_definitions(parse_definitions(text))
        assert print_definitions(parse_definitions(canon)) == canon
