"""Suite-wide test settings: a Hypothesis profile under which every
property test draws the same examples on every run and replays no local
example database, so a verdict never depends on an earlier run; an empty
oracle memo around every test, so a test that patches a ladder, a chain
end or `PROBE_PULLS` never meets a verdict walked without the patch, nor
leaves one behind; a fixture that runs a test at Python's default
recursion limit; and one that reads the seeded workload texts of
`perfbench`."""

import importlib.util
import pathlib
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


@pytest.fixture(scope="session")
def workload_text():
    """`text(name, seed)`: the definitions of the seeded `perfbench` workload
    `name` (`symbolic_batch`, `countable_verify`), as the benchmark parses
    them: its fixture file, then the generated text."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def text(name, seed):
        job = getattr(module, name)(seed)
        fixture = root / "tests" / "fixtures" / job["fixture"]
        return fixture.read_text(encoding="utf-8") + job["text"]
    return text
