"""Seeded input generators for the three benchmark workloads.

Stdlib only: this module never imports ordercuts.  Each generator returns a
job description that the worker turns into program inputs, so the program
sees definition text (through `cli.parse_definitions`) or raw Hahn items
(through `make`) and nothing else.

The *shape* of every workload is fixed: the ladders of sum lengths, nesting
depths, oracle sizes and Hahn chain lengths do not depend on the seed.  The
seed only draws the details (part kinds, cardinal indices, flags, points and
coefficients).  That keeps the cost of a pass close across seeds, so runs
with different seeds can be compared, while no seed can be tuned to dodge a
slow or failing input.
"""

from __future__ import annotations

import itertools
import random

RAT_ATOM = ("atom(rat; cf=aleph(0); ci=aleph(0); coin={aleph(0)}; "
            "cofin={aleph(0)}; card<=aleph(0); "
            "cuts={(1,aleph(0)), (aleph(0),1), (aleph(0),aleph(0))})")

SYMBOLIC_COMMANDS = ("spectrum", "classify", "extend", "check-conditions")

# (sum length, how many sums of that length): many short sums set the median,
# a few long ones set the tail.
SUM_LADDER = ((2, 30), (3, 30), (4, 25), (5, 20), (6, 20), (8, 20), (12, 15),
              (16, 12), (24, 10), (32, 8), (48, 6), (64, 5), (96, 4),
              (128, 3), (192, 2), (256, 2))
NEST_DEPTHS = tuple(range(1, 9))
NESTS_PER_DEPTH = 4
GROUPS = 40
FIELDS = 20
# Sums this long hit Python's default recursion limit in the recursive folds
# of the seed library; they run through `spectrum` only.
DEFECT_LENGTHS = (1000, 2000)

# (k, replicas): sums of 3k parts for the ladder oracle.  The replica counts
# put the median (rat-free k = 6) and the tail percentile (rat-heavy k = 2)
# inside a group of same-size items, so neither hangs on one item.
VERIFY_RAT_FREE = ((1, 8), (2, 8), (3, 8), (4, 8), (6, 12), (8, 6), (12, 4),
                   (16, 3), (24, 2), (32, 1), (64, 1))
# A rat part costs about as much as a dozen rat-free triples (its bisection
# ladders), so the rat-heavy ladder stops at k = 8 to keep a pass short.
VERIFY_RAT_HEAVY = ((1, 4), (2, 10), (3, 2), (4, 2), (6, 1), (8, 1))

HAHN_FAMILIES = ("int", "rat", "lex(int,int)", "lex(rat,int)")
LAW_CASES_PER_FAMILY = 400
SERIES_LAW_CASES_PER_DIM = 200
# Running sums of 8-term elements: (family, steps, replicas).  The tail
# percentile (about the 12th-slowest item) falls inside the run of
# lex(int,int) sums, which all cost about the same, so it does not jump
# between items of different kinds from one seed to the next.
RUNNING_SUMS = (("lex(rat,int)", 200, 1), ("rat", 200, 1), ("lex(int,int)", 150, 14),
                ("int", 200, 1), ("rat", 50, 2), ("lex(rat,int)", 50, 2))
RUNNING_SUM_TERMS = 8
# Series product chains: operand term counts, one chain per entry and dims.
PRODUCT_OPERANDS = ((12, 12), (20, 16), (30, 24), (40, 30), (10, 10, 10))
PRODUCT_DIMS = (1, 2, 3)


# ---------------------------------------------------------------------------
# symbolic-batch
# ---------------------------------------------------------------------------

def _sum_part(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return f"well(aleph({rng.randint(0, 3)}))"
    if r < 0.6:
        return f"rev(well(aleph({rng.randint(0, 3)})))"
    if r < 0.9:
        return f"chain({rng.randint(1, 5)})"
    return "gQ"


def _lexsched(rng: random.Random, m: int, inner: str) -> str:
    k0, l0 = rng.randint(0, m), rng.randint(0, m)
    k1 = rng.randint(m, m + 2)
    l1 = k1 + rng.randint(1, 2)
    succ = rng.choice(("plusplus", "plus", "id"))
    lim = rng.choice(("v1", "mu"))
    return (f"lexsched(mu=aleph({m}); k0=aleph({k0}); l0=aleph({l0}); "
            f"k1=aleph({k1}); l1=aleph({l1}); succ={succ}; lim={lim}; i={inner})")


def _lexref(rng: random.Random, m: int, inner: str) -> str:
    # constant maps into Reg_{<mu} keep both phi ranges inside Rl and Rr
    a, b, c, d = (rng.randint(0, m - 1) for _ in range(4))
    return (f"lexref(mu=aleph({m}); k0=aleph({rng.randint(0, m)}); "
            f"l0=aleph({rng.randint(0, m)}); "
            f"phil=[1->aleph({a}), default->aleph({b})]; "
            f"phir=[1->aleph({c}), default->aleph({d})]; i={inner})")


def _nested(rng: random.Random, depth: int) -> str:
    term = "sum(" + ", ".join(_sum_part(rng) for _ in range(rng.randint(2, 6))) + ")"
    for level in range(depth):
        m = level + 1 + rng.randint(0, 1)
        term = _lexsched(rng, m, term) if rng.random() < 0.5 else _lexref(rng, m, term)
    return term


def _group(rng: random.Random, vset_name: str, has_max: bool) -> str:
    spherical = rng.choice(("true", "false"))
    if has_max and rng.random() < 0.5:
        comp = rng.choice(("reals+ints_at_top", "ints"))
        return (f"group(vset={vset_name}; comp={comp}; spherical={spherical}; "
                f"discrete=true; divisible=false)")
    if has_max:
        comp = rng.choice(("reals", "dense", "reals+dense_at_top"))
    else:
        comp = rng.choice(("reals", "dense"))
    divisible = rng.choice(("true", "false"))
    return (f"group(vset={vset_name}; comp={comp}; spherical={spherical}; "
            f"discrete=false; divisible={divisible})")


def symbolic_batch(seed: int) -> dict:
    """Definition text plus the generated items; the corpus fixture is added
    by the worker, which needs the library to tell its definitions apart."""
    rng = random.Random(seed)
    lines = [f"let gQ = {RAT_ATOM}"]
    items = []
    sums = []
    for n, count in SUM_LADDER:
        for i in range(count):
            name = f"gS{n}_{i}"
            parts = [_sum_part(rng) for _ in range(n)]
            lines.append(f"let {name} = sum({', '.join(parts)})")
            # a sum ending in a finite chain or a reversed well order has a max
            sums.append((name, n, parts[-1].startswith(("chain", "rev"))))
            items.append({"name": name, "cmd": "spectrum", "n": n})
            items.append({"name": name, "cmd": "extend", "n": n})
    nests = []
    for d in NEST_DEPTHS:
        for i in range(NESTS_PER_DEPTH):
            name = f"gN{d}_{i}"
            lines.append(f"let {name} = {_nested(rng, d)}")
            nests.append(name)
            for cmd in ("spectrum", "extend", "check-conditions"):
                items.append({"name": name, "cmd": cmd, "d": d})
    small = [(name, has_max) for name, n, has_max in sums if n <= 64]
    groups = []
    for i in range(GROUPS):
        if i % 4 == 3:
            vset, has_max = rng.choice(nests), False
        else:
            vset, has_max = rng.choice(small)
        name = f"gG{i}"
        text = _group(rng, vset, has_max)
        lines.append(f"let {name} = {text}")
        if "divisible=true" in text:
            groups.append(name)
        for cmd in ("classify", "extend"):
            items.append({"name": name, "cmd": cmd})
    for i in range(FIELDS):
        name = f"gK{i}"
        residue = rng.choice(("reals", "proper"))
        realclosed = rng.choice(("true", "false"))
        spherical = rng.choice(("true", "false"))
        lines.append(f"let {name} = field(group={rng.choice(groups)}; residue={residue}; "
                     f"realclosed={realclosed}; spherical={spherical})")
        for cmd in ("classify", "extend"):
            items.append({"name": name, "cmd": cmd})
    for n in DEFECT_LENGTHS:
        name = f"gD{n}"
        parts = [_sum_part(rng) for _ in range(n)]
        lines.append(f"let {name} = sum({', '.join(parts)})")
        items.append({"name": name, "cmd": "spectrum", "n": n, "defect": True})
    # one command per CLI invocation: run the file command by command
    order = {cmd: i for i, cmd in enumerate(SYMBOLIC_COMMANDS)}
    items.sort(key=lambda it: order[it["cmd"]])
    return {"text": "\n".join(lines) + "\n", "items": items,
            "commands": SYMBOLIC_COMMANDS, "fixture": "corpus.defs", "bound": "aleph(4)"}


# ---------------------------------------------------------------------------
# countable-verify
# ---------------------------------------------------------------------------

TRIPLE_ORDERS = tuple(itertools.permutations(range(3)))


def _countable_sum(rng: random.Random, k: int, rat: bool) -> str:
    """k triples of well, rev(well) and a chain or rat part.  Each run of six
    triples uses every order of the triple once, shuffled: the mix of
    boundary kinds, which sets the oracle's cost, then barely depends on the
    seed, while the arrangement still does."""
    orders = []
    while len(orders) < k:
        block = list(TRIPLE_ORDERS)
        rng.shuffle(block)
        orders.extend(block)
    parts = []
    for order in orders[:k]:
        third = "gQ" if rat else f"chain({rng.randint(1, 4)})"
        triple = ("well(aleph(0))", "rev(well(aleph(0)))", third)
        parts.extend(triple[i] for i in order)
    return "sum(" + ", ".join(parts) + ")"


def countable_verify(seed: int) -> dict:
    rng = random.Random(seed)
    lines = [f"let gQ = {RAT_ATOM}"]
    items = []
    for rat, ladder in ((False, VERIFY_RAT_FREE), (True, VERIFY_RAT_HEAVY)):
        for k, replicas in ladder:
            for i in range(replicas):
                name = f"g{'R' if rat else 'F'}{k}_{i}"
                lines.append(f"let {name} = {_countable_sum(rng, k, rat)}")
                items.append({"name": name, "cmd": "verify", "n": 3 * k, "rat": rat})
    return {"text": "\n".join(lines) + "\n", "items": items,
            "commands": ("verify",), "fixture": "countable.defs"}


# ---------------------------------------------------------------------------
# hahn-arith
# ---------------------------------------------------------------------------
# Points and coefficients travel as JSON: an int, a "p/q" string for a
# rational, or a list for a lex tuple.

def _rat(num: int, den: int) -> str:
    return f"{num}/{den}"


def _point(rng: random.Random, family: str, spread: int = 6):
    if family == "int":
        return rng.randint(-spread, spread)
    if family == "rat":
        return _rat(rng.randint(-9 * spread // 6, 9 * spread // 6), rng.randint(1, 5))
    inner = family[4:-1].split(",")
    return [_point(rng, f, spread) for f in inner]


def _items(rng: random.Random, family: str, lo: int, hi: int, spread: int = 6):
    return [[_point(rng, family, spread), rng.randint(-4, 4)]
            for _ in range(rng.randint(lo, hi))]


def _law_case(rng: random.Random, family: str) -> dict:
    return {"kind": "law", "family": family,
            "a": _items(rng, family, 0, 3), "b": _items(rng, family, 0, 3),
            "u": _items(rng, family, 1, 3), "w": _items(rng, family, 1, 3),
            "u_fix": _point(rng, family), "w_fix": _point(rng, family),
            "bump": [[_point(rng, family), rng.randint(-3, 3)]]}


def _exponent(rng: random.Random, dims: int, spread: int = 3):
    return [_rat(rng.randint(-spread, spread), rng.choice((1, 2))) for _ in range(dims)]


def _series_items(rng: random.Random, dims: int, count: int, spread: int = 3):
    return [[_exponent(rng, dims, spread), rng.randint(-4, 4) or 1]
            for _ in range(count)]


def hahn_arith(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    for family in HAHN_FAMILIES:
        for _ in range(LAW_CASES_PER_FAMILY):
            items.append(_law_case(rng, family))
    for dims in (1, 2, 3):
        for _ in range(SERIES_LAW_CASES_PER_DIM):
            items.append({"kind": "series-law", "dims": dims,
                          "a": _series_items(rng, dims, rng.randint(0, 3)),
                          "b": _series_items(rng, dims, rng.randint(0, 3))})
    for family, steps, replicas in RUNNING_SUMS:
        for _ in range(replicas):
            items.append({"kind": "running-sum", "family": family, "n": steps,
                          "steps": [_items(rng, family, RUNNING_SUM_TERMS,
                                           RUNNING_SUM_TERMS, spread=120)
                                    for _ in range(steps)]})
    for dims in PRODUCT_DIMS:
        for sizes in PRODUCT_OPERANDS:
            items.append({"kind": "product", "dims": dims, "n": sum(sizes),
                          "factors": [_series_items(rng, dims, size, spread=9)
                                      for size in sizes]})
    return {"items": items}


WORKLOADS = {
    "symbolic-batch": symbolic_batch,
    "countable-verify": countable_verify,
    "hahn-arith": hahn_arith,
}
