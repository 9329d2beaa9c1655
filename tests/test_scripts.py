"""Smoke runs of the scripts under scripts/."""

import re

from subproc import ROOT, run_python


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_law_fuzz_small_budget():
    proc = run_script("law_fuzz.py", "--cases", "200", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "total failures: 0" in proc.stdout
    # one line per family, each with its own elapsed seconds
    families = [line for line in proc.stdout.splitlines() if ": 200 cases" in line]
    assert len(families) == 7, proc.stdout
    assert all(re.fullmatch(r"\S+: 200 cases, 0 failures in \d+\.\d\ds", line)
               for line in families), proc.stdout


def test_law_fuzz_refuses_an_empty_budget():
    """A budget below one case is a usage error, not a pass with 0 failures."""
    for cases in ("0", "-5"):
        proc = run_script("law_fuzz.py", "--cases", cases)
        assert proc.returncode == 2, proc.stdout
        assert "--cases must be at least 1" in proc.stderr
        assert "failures" not in proc.stdout


def test_extend_demo_runs():
    proc = run_script("extend_demo.py")
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    """The README's library quickstart runs, and each print that carries a
    `# ...` comment prints what the comment says."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert expected == ["aleph(2) aleph(2) aleph(3)", "True", "False True True"]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == expected


BENCH_TRACER = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
from ordercuts import cli
from ordercuts import hahn_concrete as hc

make = hc.HahnElement.make
tracer = tracing.Tracer()
tracer.install()
assert hc.HahnElement.make is not make
hc.HahnElement.make(hc.INT_CHAIN, [(1, 1), (2, 1)])
# each index-chain check is wrapped once, so two points count twice
assert tracer.counts["hahn.point_checks"] == 2, tracer.counts
defs = cli.parse_definitions("let W0 = well(aleph(0))\\nlet Z = sum(rev(W0), W0)\\n")
report = cli.run(defs, "spectrum", bound=cli.Parser("aleph(2)").parse_cardinal())
assert [item.status for item in report.items] == ["ok", "ok"], report
report.render_text()
report.render_machine()
report = cli.run(defs, "verify", depth=20)
assert [item.status for item in report.items] == ["ok", "ok"], report
spans = {tracer.names[i] for i in tracer.span_name}
assert {"cli.parse", "cli.run", "cli.render"} <= spans, spans
assert {"oracle.verify_witness", "oracle.sample_cuts"} <= spans, spans
assert tracer.counts["oracle.chain_cmp.calls"] > 0, tracer.counts
assert tracer.sampled
for chain, samples in tracer.sampled:
    reached, parts = tracing.part_coverage(chain, samples)
    assert 1 <= reached <= parts, (chain, reached, parts)
first = len(tracer.span_name)
groups = cli.parse_definitions(
    "let W0 = well(aleph(0))\\nlet G = group(vset=sum(rev(W0), W0); spherical=true)\\n")
report = cli.run(groups, "extend")
assert [item.status for item in report.items] == ["ok", "ok"], report
report = cli.run(groups, "classify")
assert [item.status for item in report.items] == ["ok"], report
spans = {tracer.names[i] for i in tracer.span_name[first:]}
assert {"order_terms.coin_cofin", "order_terms.cut_spectrum",
        "struct_classify.classify_group"} <= spans, spans
tracer.uninstall()
assert hc.HahnElement.make is make
"""

# the benchmark worker's order on its Hahn workload: a bare package import,
# then the tracer; names looked up lazily while it is installed are its
# wrappers, and none of them stays in the package once it is uninstalled
BENCH_TRACER_LAZY = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
import ordercuts

ordercuts.OrderCutsError
hc = ordercuts.hahn_concrete
make = hc.HahnElement.make
tracer = tracing.Tracer()
tracer.install()
hc.HahnElement.make(hc.INT_CHAIN, [(1, 1), (2, 1)])
assert tracer.counts["hahn.point_checks"] == 2, tracer.counts
from ordercuts import cut_spectrum, ball
assert cut_spectrum is ordercuts.order_terms.cut_spectrum is not \
    cut_spectrum.__wrapped__
assert ordercuts.classify_group is ordercuts.struct_classify.classify_group
assert ball is hc.ball
tracer.uninstall()
assert hc.HahnElement.make is make
assert ordercuts.cut_spectrum is cut_spectrum.__wrapped__
"""

# appended to each tracer script: after uninstall, no ordercuts namespace,
# the package included, nor any class in one, holds a tracer wrapper
NO_WRAPPER_LEFT = """
def wrappers():
    for name, mod in list(sys.modules.items()):
        if name != "ordercuts" and not name.startswith("ordercuts."):
            continue
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == tracing.__file__:
                    yield name, owner.__name__, attr

left = list(wrappers())
assert not left, left
"""


def test_benchmark_tracer_resolves_library_names():
    """perfbench/tracing.py patches library names from outside: every name
    it resolves must exist, the oracle's spans and chain compares must show
    under `verify`, the symbolic layer's fact and classifier spans under
    `extend` and `classify`, and uninstall must put the originals back,
    whether the CLI or a bare `import ordercuts` loaded the package first."""
    for script in (BENCH_TRACER, BENCH_TRACER_LAZY):
        proc = run_python("-c", script + NO_WRAPPER_LEFT, str(ROOT / "perfbench"))
        assert proc.returncode == 0, proc.stderr
