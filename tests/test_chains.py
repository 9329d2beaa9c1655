"""The concrete chains shared by the Hahn layer and the ladder oracle."""

import itertools

import pytest

from ordercuts.chains import IntChain, LexChain, RatChain
from ordercuts.errors import DomainError

INT, RAT = IntChain(), RatChain()


@pytest.mark.parametrize("chain", [
    IntChain(0, 1), IntChain(0, 7), INT, RAT,
    LexChain((INT, INT)), LexChain((RAT, INT)), LexChain((IntChain(0, 3), RAT)),
    LexChain((INT, IntChain(0, 2), RAT)),
], ids=str)
def test_index_chains_order_like_python(chain):
    """Hahn elements compare points with `<`: every index chain accepts the
    points it enumerates and orders them as Python does."""
    points = list(itertools.islice(chain.elements(), 200))
    for p in points:
        chain.check(p)
    for x in points:
        for y in points:
            assert chain.cmp(x, y) == (x > y) - (x < y)


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 1), (-2, -2)])
def test_empty_integer_interval_rejected(lo, hi):
    with pytest.raises(DomainError, match="has no points"):
        IntChain(lo, hi)
