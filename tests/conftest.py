"""Suite-wide test settings: a Hypothesis profile under which every
property test draws the same examples on every run and replays no local
example database, so a verdict never depends on an earlier run; an empty
oracle memo around every test, so a test that patches a ladder, a chain
end or `PROBE_PULLS` never meets a verdict walked without the patch, nor
leaves one behind; and a fixture that runs a test at Python's default
recursion limit."""

import sys

import pytest
from hypothesis import settings

from ordercuts import oracle

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(autouse=True)
def empty_oracle_memo():
    oracle._memo.clear()
    yield
    oracle._memo.clear()
