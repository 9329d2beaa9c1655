"""One timed pass of a workload, in a fresh interpreter.

Reads a job (JSON) on stdin, writes one JSON result on stdout.  Usage, from
the repository root: `python3 perfbench/worker.py < job.json`, with `src`
on PYTHONPATH; `run.py` is the normal way in.

The pass: import ordercuts and parse the inputs (set-up), run every item
once, timing each, then, if asked, check the outputs.  Interpreter defaults
are kept: no recursion-limit change, one thread.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


def _applies():
    """Value types each CLI command reports on (mirrors `cli.run`)."""
    import ordercuts as oc
    terms = (oc.Empty, oc.FiniteChain, oc.WellOrder, oc.Rev, oc.Sum,
             oc.Completion, oc.Atom, oc.LexSchedule, oc.LexRefined)
    structures = (oc.GroupDescriptor, oc.FieldDescriptor)
    return {"spectrum": terms, "verify": terms, "classify": structures,
            "extend": terms + structures,
            "check-conditions": (oc.LexSchedule, oc.LexRefined)}


class Pass:
    """Inputs, per-item results and output fingerprints of one pass."""

    def __init__(self, job):
        self.job = job
        self.trace = job["trace"]
        self.tracer = None
        self.items = []          # item dicts, in run order
        self.outputs = []        # per item: rendered output, or None on failure
        self.item_ms = []
        self.errors = []         # per item: exception class name or None
        self.problems = []       # failed output checks

    # -- set-up -----------------------------------------------------------------

    def setup(self):
        import ordercuts
        self.contract_error = ordercuts.OrderCutsError
        self.hc = ordercuts.hahn_concrete
        if self.trace:
            import tracing
            self.tracer = tracing.Tracer()
            self.tracer.install()
        if self.job["workload"] == "hahn-arith":
            return
        from ordercuts import cli
        self.cli = cli
        fixture = (FIXTURES / self.job["fixture"]).read_text(encoding="utf-8")
        self.fixture_names = re.findall(r"^let\s+(\w+)", fixture, re.M)
        self.text = fixture + self.job["text"]
        self.defs = dict(cli.parse_definitions(self.text))

    def build_items(self):
        """Generated items, plus every (fixture definition, command) pair the
        CLI would report on, in the order the CLI would run them."""
        if self.job["workload"] == "hahn-arith":
            self.items = [dict(it, value=_decode_hahn(it)) for it in self.job["items"]]
            return
        applies = _applies()
        items = []
        for cmd in self.job["commands"]:
            items.extend({"name": name, "cmd": cmd, "fixture": True}
                         for name in self.fixture_names
                         if isinstance(self.defs[name], applies[cmd]))
            items.extend(it for it in self.job["items"] if it["cmd"] == cmd)
        self.bound = self.cli.Parser(self.job["bound"]).parse_cardinal() \
            if self.job.get("bound") else None
        self.items = items

    # -- timed items --------------------------------------------------------------

    def run(self):
        run_item = self._hahn_item if self.job["workload"] == "hahn-arith" \
            else self._cli_item
        tracer = self.tracer
        if tracer:
            tracer.reset_counts()
        t0 = time.perf_counter()
        for i, item in enumerate(self.items):
            span = tracer.begin_item(i) if tracer else None
            s = time.perf_counter()
            try:
                out, err = run_item(item), None
            except Exception as exc:   # outside the OrderCutsError contract
                out, err = None, type(exc).__name__
            e = time.perf_counter()
            if tracer:
                tracer.end_item(span)
            self.item_ms.append((e - s) * 1e3)
            self.outputs.append(out)
            self.errors.append(err)
        self.pass_s = time.perf_counter() - t0
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

    def _cli_item(self, item):
        name = item["name"]
        report = self.cli.run([(name, self.defs[name])], item["cmd"], bound=self.bound)
        return report, report.render_text()

    def _hahn_item(self, item):
        try:
            return self._hahn_work(item)
        except self.contract_error as exc:   # the library's error contract: an answer
            return f"error: {exc}"

    def _hahn_work(self, item):
        hc = self.hc
        kind = item["kind"]
        v = item["value"]
        if kind == "law":
            return _law_case(hc, v)
        if kind == "series-law":
            return _series_law(hc, v)
        if kind == "running-sum":
            chain, steps = v
            acc = hc.HahnElement.zero(chain)
            for terms in steps:
                acc = acc + hc.HahnElement.make(chain, terms)
            return acc.terms
        group, factors = v
        acc = hc.SeriesElement.make(group, factors[0])
        for terms in factors[1:]:
            acc = acc * hc.SeriesElement.make(group, terms)
        return acc.terms

    # -- checks ---------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of every output, so later passes can be matched against the
        checked one without re-checking."""
        h = hashlib.sha256()
        for out, err in zip(self.outputs, self.errors):
            if err is not None:
                h.update(f"!{err}".encode())
            elif isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
                h.update(out[1].encode())
            else:
                h.update(repr(out).encode())
            h.update(b"\0")
        return h.hexdigest()

    def check(self):
        workload = self.job["workload"]
        if workload == "hahn-arith":
            self._check_hahn()
        else:
            self._check_goldens()
            if workload == "symbolic-batch":
                self._check_symbolic()
            else:
                self._check_countable()

    def _problem(self, message: str):
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = f"... and more ({message})"

    def _check_goldens(self):
        from ordercuts import cli
        stem = self.job["fixture"].split(".")[0]
        by_cmd = {}
        for item, out in zip(self.items, self.outputs):
            if item.get("fixture"):
                if out is None:
                    self._problem(f"fixture item {item['name']} {item['cmd']} raised")
                    continue
                by_cmd.setdefault(item["cmd"], []).extend(out[0].items)
        for cmd, report_items in by_cmd.items():
            report = cli.Report(cmd, report_items)
            for fmt, text in (("text", report.render_text()),
                              ("machine", report.render_machine())):
                golden = (GOLDEN / f"{cmd}_{stem}.{fmt}").read_text(encoding="utf-8")
                if text != golden:
                    self._problem(f"{cmd} on {self.job['fixture']} ({fmt}) differs from the golden")

    def _check_symbolic(self):
        from ordercuts.order_terms import cut_spectrum, nonprincipal_cuts_all_asymmetric
        for item, out, err in zip(self.items, self.outputs, self.errors):
            # a raising item only counts as failed; the defect rung may pass
            if err is not None or item.get("defect"):
                continue
            records = out[0].items[0].records
            if item["cmd"] == "extend" and not item.get("fixture"):
                if not any(r.get("extreme") == "true" for r in records):
                    self._problem(f"extend {item['name']} does not report extreme=true")
            if item["cmd"] == "spectrum" and out[0].items[0].status == "ok":
                spherical = next(r["spherical_balls"] for r in records
                                 if "spherical_balls" in r)
                other = nonprincipal_cuts_all_asymmetric(cut_spectrum(self.defs[item["name"]]))
                if spherical != ("true" if other else "false"):
                    self._problem(f"order-ball criterion disagrees on {item['name']}")

    def _check_countable(self):
        for item, out, err in zip(self.items, self.outputs, self.errors):
            if item.get("fixture") or err is not None:
                continue
            if out[0].items[0].status != "ok":
                self._problem(f"verify {item['name']}: report is not ok")

    def _check_hahn(self):
        for i, (item, out, err) in enumerate(zip(self.items, self.outputs, self.errors)):
            label = f"{item['kind']} #{i}"
            if err is not None:
                continue
            if isinstance(out, str):
                self._problem(f"{label}: {out}")
                continue
            if item["kind"] in ("law", "series-law"):
                if out:
                    self._problem(f"{label}: law failures {out}")
                continue
            expected = _reference(item)
            if dict(out) != expected:
                self._problem(f"{label}: result differs from the dict reference")
            points = [p for p, _ in out]
            if points != sorted(set(points)):
                self._problem(f"{label}: support is not sorted")

    # -- report -----------------------------------------------------------------------

    def result(self, setup_s: float) -> dict:
        out = {"setup_s": setup_s, "pass_s": self.pass_s, "rss_mb": self.rss_mb,
               "item_ms": self.item_ms, "errors": self.errors,
               "fingerprint": self.fingerprint(), "problems": self.problems,
               "items": [{k: v for k, v in it.items()
                          if not isinstance(v, (list, tuple, dict))}
                         for it in self.items]}
        if self.tracer:
            out["layers"] = self._layer_stats()
        return out

    def _layer_stats(self) -> dict:
        import tracing
        t = self.tracer
        coverage = [tracing.part_coverage(chain, n) for chain, n in t.sampled]
        stats = {"spans": {k: list(v) for k, v in t.self_times().items()},
                 "counts": dict(t.counts),
                 "spectrum_top_calls": t.spectrum_top_calls,
                 "spectrum_top_parts": t.spectrum_top_parts,
                 "spectrum_repeats": t.spectrum_repeats,
                 "max_spectrum_depth": t.max_spectrum_depth,
                 "classify_calls": t.classify_calls,
                 "classify_spectra": t.classify_spectra,
                 "coverage": [sum(r for r, _ in coverage), sum(p for _, p in coverage)],
                 "parse_s": t.setup_span_s("cli.parse"),
                 "parse_chars": len(getattr(self, "text", ""))}
        spans_out = self.job.get("spans_out")
        if spans_out:
            t.write(spans_out)
        return stats


# ---------------------------------------------------------------------------
# Hahn items
# ---------------------------------------------------------------------------

def _point(p):
    """JSON point -> int, Fraction or lex tuple."""
    if isinstance(p, list):
        return tuple(_point(x) for x in p)
    return Fraction(p) if isinstance(p, str) else p


def _terms(items):
    return [(_point(p), c) for p, c in items]


def _decode_hahn(item):
    """JSON item -> Python values; done before timing, like reading input."""
    from ordercuts import hahn_concrete as hc
    kind = item["kind"]
    if kind == "running-sum":
        return _index_chain(hc, item["family"]), [_terms(s) for s in item["steps"]]
    if kind == "law":
        out = {k: _terms(item[k]) for k in ("a", "b", "u", "w", "bump")}
        out.update(chain=_index_chain(hc, item["family"]),
                   u_fix=_point(item["u_fix"]), w_fix=_point(item["w_fix"]))
        return out
    group = hc.ExponentGroup(item["dims"])
    if kind == "series-law":
        return {"group": group, "a": _terms(item["a"]), "b": _terms(item["b"])}
    return group, [_terms(f) for f in item["factors"]]


def _index_chain(hc, family: str):
    simple = {"int": hc.INT_CHAIN, "rat": hc.RAT_CHAIN}
    if family in simple:
        return simple[family]
    return hc.LexPoints(tuple(simple[f] for f in family[4:-1].split(",")))


def _law_case(hc, v):
    """The per-case body of the Hahn law fuzzer: ultrametric inequality with
    its equality refinement, order compatibility, archimedean equivalence
    against witness search, ball spanning and recentring."""
    chain = v["chain"]
    make = hc.HahnElement.make
    failures = []
    a, b = make(chain, v["a"]), make(chain, v["b"])
    va, vb, vd = hc.nat_valuation(a), hc.nat_valuation(b), hc.nat_valuation(a - b)
    low = va if hc.point_le(va, vb) else vb
    if not hc.point_le(low, vd) or (va != vb and vd != low):
        failures.append("ultrametric")
    x, y = sorted([a.abs(), b.abs()])
    if not hc.point_le(hc.nat_valuation(y), hc.nat_valuation(x)):
        failures.append("order-compat")
    u = make(chain, v["u"])
    if u.is_zero:
        u = make(chain, [(v["u_fix"], 1)])
    w = make(chain, v["w"])
    if w.is_zero:
        w = make(chain, [(v["w_fix"], 1)])
    if hc.arch_equiv(u, w) != (hc.arch_witness(u, w) is not None):
        failures.append("archimedean")
    ball = hc.ball(a, b)
    if not (ball.member(a) and ball.member(b)):
        failures.append("ball-span")
    bump = make(chain, v["bump"])
    member = ball.center + bump if hc.point_le(ball.radius, hc.nat_valuation(bump)) \
        else ball.center
    if hc.ball_compare(hc.ball(member, b), ball) not in ("equal", "first-within-second"):
        failures.append("ball-center")
    return failures


def _series_law(hc, v):
    """Valuation additivity and sign of series products."""
    group = v["group"]
    a = hc.SeriesElement.make(group, v["a"])
    b = hc.SeriesElement.make(group, v["b"])
    p = a * b
    if a.is_zero or b.is_zero:
        return [] if p.is_zero else ["zero-product"]
    failures = []
    if hc.series_valuation(p) != group.add(hc.series_valuation(a), hc.series_valuation(b)):
        failures.append("series-valuation")
    if a.is_positive and b.is_positive and not p.is_positive:
        failures.append("series-sign")
    return failures


def _reference(item):
    """Plain dict-of-Fraction arithmetic, independent of hahn_concrete."""
    if item["kind"] == "running-sum":
        _, steps = item["value"]
        acc = {}
        for terms in steps:
            for p, c in terms:
                acc[p] = acc.get(p, Fraction(0)) + c
        return {p: c for p, c in acc.items() if c != 0}
    _, factors = item["value"]

    def series(terms):
        out = {}
        for g, c in terms:
            g = tuple(Fraction(x) for x in g)
            out[g] = out.get(g, Fraction(0)) + c
        return {g: c for g, c in out.items() if c != 0}

    acc = series(factors[0])
    for terms in factors[1:]:
        rhs = series(terms)
        prod = {}
        for g, c in acc.items():
            for h, d in rhs.items():
                k = tuple(x + y for x, y in zip(g, h))
                prod[k] = prod.get(k, Fraction(0)) + c * d
        acc = {g: c for g, c in prod.items() if c != 0}
    return acc


def main() -> int:
    job = json.load(sys.stdin)
    p = Pass(job)
    try:
        p.setup()
        setup_s = time.perf_counter() - T_START
        p.build_items()
        p.run()
        if job.get("check"):
            p.check()
    except Exception:
        traceback.print_exc()
        return 2
    json.dump(p.result(setup_s), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
