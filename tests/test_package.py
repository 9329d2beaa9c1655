"""The package's public names, and the modules each entry point loads: a
layer is imported on first use, so a Hahn-only caller never loads the
symbolic layers and a definitions file without element literals never
loads the Hahn layer."""

import importlib
import json

import pytest

import ordercuts
from subproc import run_python

SUBMODULES = ("cardinals", "chains", "errors", "hahn_concrete", "oracle",
              "order_terms", "struct_classify")

# what `from ordercuts import *` binds: the names of the package's seven
# import blocks before it loaded them lazily, and the submodules they bound
PUBLIC = sorted(SUBMODULES + (
    "ALEPH0", "ALEPH1", "Atom", "Card", "CardSet", "CardinalSchedule", "CofPair",
    "Completeness", "Completion", "ComponentAssignment", "ComponentKind",
    "ConcreteChain", "CutSpectrum", "CutWitness", "DescriptorError", "DomainError",
    "EMPTY", "Empty", "ExponentGroup", "FieldDescriptor", "FiniteChain",
    "GroupDescriptor", "HahnElement", "INF", "INT_CHAIN", "IntChain", "LexChain",
    "LexRefined", "LexSchedule", "NotDerivableError", "ONE", "OracleReport",
    "OrderCutsError", "OrderExtension", "OrdinalIndex", "ParseError", "PhiMap",
    "PhiPiece", "RAT_CHAIN", "RatChain", "Residue", "Rev", "SeriesElement",
    "SideConditionError", "Sum", "UltraBall", "Verdict", "WellOrder", "WitnessSide",
    "ZERO", "aleph", "arch_equiv", "arch_witness", "ball", "ball_compare",
    "card_bound", "cf", "cf_group", "cf_m_gamma", "chain", "check_side_conditions",
    "ci", "ci_positive_cone", "classify_discrete", "classify_field",
    "classify_group", "classify_group_cutwise", "coin_cofin",
    "completeness_predicates", "concretize", "cut_spectrum", "derive_cf",
    "derive_ci", "extend_field", "extend_group", "extend_order", "is_regular",
    "nat_valuation", "principal_cuts_ok", "reg_below", "residue", "rev",
    "sample_cuts", "series_valuation", "spectrum_soundness", "succ", "sum_of",
    "type1_cuts_ok", "type2_cuts_ok", "verify_witness", "well"))

# prints the sorted short names of the loaded ordercuts submodules after
# running the statements in argv[1]
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m[10:] for m in sys.modules if m.startswith("ordercuts."))))
"""

# runs `python -m ordercuts.cli --in argv[1] --cmd spectrum` in this
# interpreter, then prints the loaded modules as LOADED does
CLI_LOADED = """
import json, runpy, sys
sys.argv = ["ordercuts.cli", "--in", sys.argv[1], "--cmd", "spectrum"]
try:
    runpy.run_module("ordercuts.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(m[10:] for m in sys.modules if m.startswith("ordercuts."))))
"""


def loaded(script, *args):
    proc = run_python("-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPublicNames:
    def test_all_is_the_star_import(self):
        assert sorted(ordercuts.__all__) == PUBLIC
        assert len(PUBLIC) == len(set(PUBLIC)) == 98
        namespace = {}
        exec("from ordercuts import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC

    def test_each_name_is_its_module_object(self):
        """Each name is the very object of every submodule that holds it,
        and a submodule name is the submodule."""
        modules = {m: importlib.import_module(f"ordercuts.{m}") for m in SUBMODULES}
        for name in PUBLIC:
            value = getattr(ordercuts, name)
            if name in SUBMODULES:
                assert value is modules[name]
                continue
            holders = [m for m in modules.values() if hasattr(m, name)]
            assert holders, name
            assert all(getattr(m, name) is value for m in holders), name

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(ordercuts))
        assert "__version__" in dir(ordercuts)

    def test_unknown_name_is_the_standard_error(self):
        with pytest.raises(AttributeError,
                           match=r"^module 'ordercuts' has no attribute 'no_such_name'$"):
            ordercuts.no_such_name
        assert not hasattr(ordercuts, "cli_main")
        with pytest.raises(ImportError):
            exec("from ordercuts import no_such_name", {})


class TestLoadedModules:
    def test_bare_import_loads_no_submodule(self):
        assert loaded(LOADED, "import ordercuts") == []

    @pytest.mark.parametrize("statements", [
        "import ordercuts.hahn_concrete",
        # the benchmark worker's order on its Hahn workload
        "import ordercuts; ordercuts.OrderCutsError; ordercuts.hahn_concrete",
        "from ordercuts import HahnElement, ball, INT_CHAIN",
    ])
    def test_hahn_layer_loads_only_its_own_modules(self, statements):
        assert loaded(LOADED, statements) == ["chains", "errors", "hahn_concrete"]

    def test_one_name_loads_its_module(self):
        assert loaded(LOADED, "import ordercuts; ordercuts.aleph") == \
            ["cardinals", "errors"]

    def test_cli_loads_the_hahn_layer_on_an_element_literal(self, tmp_path):
        path = tmp_path / "input.defs"
        path.write_text("let W = well(aleph(0))\nlet T = sum(rev(W), W)\n")
        without = loaded(CLI_LOADED, str(path))
        assert "hahn_concrete" not in without
        # `-m` runs the CLI as __main__, so `ordercuts.cli` is not among them
        assert {"oracle", "order_terms", "struct_classify"} <= set(without)
        path.write_text("let W = well(aleph(0))\nlet e = hahn(chain=int; 3:-2)\n")
        assert loaded(CLI_LOADED, str(path)) == sorted(without + ["hahn_concrete"])

