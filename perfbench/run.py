"""Repository benchmark for ordercuts: three seeded workloads, each pass in a
fresh worker process, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload symbolic-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload hahn-arith --seed 1 --trace 1
    python3 perfbench/run.py ... --compare perfbench/results/previous/

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A results file is written
under perfbench/results/ (or to `--out`).

Exit status: 0 when every output check passes, 3 when an output is wrong
(the result line is still printed, with "correct": false), 2 when the
benchmark cannot run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

# A known-slow pass still ends well inside the per-run limit.
WORKER_TIMEOUT_S = 150
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "completed_share": "ratio",
                    "peak_rss_mb": "MB"}


def _required_files():
    return [ROOT / "src" / "ordercuts" / "__init__.py",
            ROOT / "tests" / "fixtures" / "corpus.defs",
            ROOT / "tests" / "fixtures" / "countable.defs",
            ROOT / "tests" / "golden"]


def run_pass(job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    out["wall_s"] = time.perf_counter() - started
    return out


def run_passes(job: dict, seconds: float, trace: bool):
    """Untraced passes (and, with trace, traced ones alternating) until the
    next pass would overrun `seconds`.  The first pass checks outputs."""
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(plain)
        pass_job = dict(job, trace=want_traced, check=not plain and not traced)
        (traced if want_traced else plain).append(run_pass(pass_job))
        walls = [p["wall_s"] for p in plain + traced]
        elapsed = time.perf_counter() - begin
        enough = len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
        if enough and elapsed + max(walls[-2:]) > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least 10 items beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return 50


def low_quartile(values) -> float:
    """First quartile over a run's passes.  On a shared machine interference
    only ever adds time, so this discounts disturbed passes; it is steadier
    than the median and less optimistic than the minimum."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def item_latencies(passes):
    """Per item: its latency over the passes, or None when it failed."""
    out = []
    for i in range(len(passes[0]["item_ms"])):
        if passes[0]["errors"][i] is not None:
            out.append(None)
        else:
            out.append(low_quartile(p["item_ms"][i] for p in passes))
    return out


def end_to_end(plain) -> tuple:
    items = plain[0]["items"]
    n = len(items)
    failed = sum(e is not None for e in plain[0]["errors"])
    latencies = item_latencies(plain)
    ok_ms = sorted(m for m in latencies if m is not None)
    tail_p = tail_percentile(len(ok_ms))
    samples = {
        "setup_s": [p["setup_s"] for p in plain],
        "items_per_s": [(n - failed) / p["pass_s"] for p in plain],
        "peak_rss_mb": [p["rss_mb"] for p in plain],
    }
    values = {
        "setup_s": low_quartile(samples["setup_s"]),
        "items_per_s": (n - failed) / low_quartile(p["pass_s"] for p in plain),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "item_ms_p50": statistics.median(ok_ms),
    }
    values["item_ms_tail"] = percentile(ok_ms, tail_p)
    values["completed_share"] = (n - failed) / n
    extra = {"failed_share": failed / n, "tail_percentile": tail_p,
             "tail_items": len(ok_ms), "items_per_pass": n,
             "failed_by_class": _failed_by_class(plain[0]),
             "item_ms": [[_label(it), ms] for it, ms in zip(items, latencies)]}
    return values, samples, extra


def _label(item) -> str:
    return " ".join(str(item[k]) for k in ("cmd", "kind", "name", "family", "dims", "n")
                    if k in item)


def _failed_by_class(p) -> dict:
    out = {}
    for item, err in zip(p["items"], p["errors"]):
        if err is not None:
            key = f"{err} ({_label(item)})"
            out[key] = out.get(key, 0) + 1
    return out


def _slope(points):
    """Least-squares slope of log(ms) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def scaling_series(plain) -> dict:
    """Per-item time against sum length n, nesting depth d and oracle parts
    3k.  Fits use the upper part of each ladder, where fixed per-item costs
    no longer dominate."""
    latencies = item_latencies(plain)
    series = {"spectrum_n": [], "extend_d": [], "verify_parts": []}
    for item, ms in zip(plain[0]["items"], latencies):
        if ms is None or item.get("fixture"):
            continue
        if item.get("cmd") == "spectrum" and "n" in item:
            series["spectrum_n"].append((item["n"], ms))
        elif item.get("cmd") == "extend" and "d" in item:
            series["extend_d"].append((item["d"], ms))
        elif item.get("cmd") == "verify" and not item.get("rat"):
            series["verify_parts"].append((item["n"], ms))
    return series


def per_layer(plain, traced) -> tuple:
    """Per-layer metrics: times are medians over the traced passes, counts
    come from one traced pass (they repeat exactly)."""
    stats = [p["layers"] for p in traced]
    last = stats[-1]

    def med(f):
        return statistics.median(f(s) for s in stats)

    def calls(name):
        return last["spans"].get(name, [0, 0, 0])[0]

    def self_s(name):
        return med(lambda s: s["spans"].get(name, [0, 0, 0])[1])

    def total_s(name):
        return med(lambda s: s["spans"].get(name, [0, 0, 0])[2])

    parse_s = med(lambda s: s["parse_s"])
    spectrum_calls = calls("order_terms.cut_spectrum")
    coverage = last["coverage"]
    series = scaling_series(plain)
    values = {
        "cli.parse.s": (parse_s, "s"),
        "cli.parse.chars_per_s": (last["parse_chars"] / parse_s if parse_s else 0.0, "1/s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.render.s": (total_s("cli.render"), "s"),
        "cli.other.self_s": (self_s("cli.other"), "s"),
        "cardinals.cardset.calls": (calls("cardinals.cardset"), "count"),
        "cardinals.cardset.self_s": (self_s("cardinals.cardset"), "s"),
        "cardinals.cofpair.compares": (last["counts"]["cardinals.cofpair.compares"], "count"),
        "cardinals.other.self_s": (self_s("cardinals.other"), "s"),
        "order_terms.cut_spectrum.calls": (spectrum_calls, "count"),
        "order_terms.cut_spectrum.self_s": (self_s("order_terms.cut_spectrum"), "s"),
        "order_terms.cut_spectrum.repeat_share": (
            last["spectrum_repeats"] / spectrum_calls if spectrum_calls else 0.0, "ratio"),
        "order_terms.spectrum_of.calls": (calls("order_terms.spectrum_of"), "count"),
        "order_terms.spectrum_of.self_s": (self_s("order_terms.spectrum_of"), "s"),
        "order_terms.coin_cofin.calls": (calls("order_terms.coin_cofin"), "count"),
        "order_terms.coin_cofin.self_s": (self_s("order_terms.coin_cofin"), "s"),
        "order_terms.completeness.self_s": (self_s("order_terms.completeness"), "s"),
        "order_terms.extend_order.self_s": (self_s("order_terms.extend_order"), "s"),
        "order_terms.side_conditions.self_s": (self_s("order_terms.side_conditions"), "s"),
        "order_terms.other.self_s": (self_s("order_terms.other"), "s"),
        "order_terms.spectrum.parts_out": (
            last["spectrum_top_parts"] / last["spectrum_top_calls"]
            if last["spectrum_top_calls"] else 0.0, "parts"),
        "order_terms.fold.max_depth": (last["max_spectrum_depth"], "count"),
        "order_terms.spectrum.scaling_exp": (
            _slope([p for p in series["spectrum_n"] if p[0] >= 16]), "ratio"),
        "order_terms.extend.scaling_exp": (_slope(series["extend_d"]), "ratio"),
        "struct_classify.classify_group.calls": (calls("struct_classify.classify_group"), "count"),
        "struct_classify.classify_group.self_s": (self_s("struct_classify.classify_group"), "s"),
        "struct_classify.classify_field.self_s": (self_s("struct_classify.classify_field"), "s"),
        "struct_classify.spectra_per_classify": (
            last["classify_spectra"] / last["classify_calls"]
            if last["classify_calls"] else 0.0, "ratio"),
        "struct_classify.other.self_s": (self_s("struct_classify.other"), "s"),
        "hahn.make.calls": (calls("hahn.make"), "count"),
        "hahn.make.self_s": (self_s("hahn.make"), "s"),
        "hahn.compare.calls": (calls("hahn.compare"), "count"),
        "hahn.compare.self_s": (self_s("hahn.compare"), "s"),
        "hahn.point_checks": (last["counts"]["hahn.point_checks"], "count"),
        "hahn.add.calls": (calls("hahn.add"), "count"),
        "hahn.add.self_s": (self_s("hahn.add"), "s"),
        "hahn.add.terms_in": (last["counts"]["hahn.add.terms_in"], "count"),
        "hahn.series_mul.self_s": (self_s("hahn.series_mul"), "s"),
        "hahn.series_mul.term_products": (last["counts"]["hahn.series_mul.term_products"],
                                          "count"),
        "hahn.other.self_s": (self_s("hahn.other"), "s"),
        "oracle.spectrum_soundness.self_s": (self_s("oracle.spectrum_soundness"), "s"),
        "oracle.concretize.calls": (calls("oracle.concretize"), "count"),
        "oracle.concretize.self_s": (self_s("oracle.concretize"), "s"),
        "oracle.term_witnesses.self_s": (self_s("oracle.term_witnesses"), "s"),
        "oracle.verify_witness.calls": (calls("oracle.verify_witness"), "count"),
        "oracle.verify_witness.self_s": (self_s("oracle.verify_witness"), "s"),
        "oracle.sample_cuts.self_s": (self_s("oracle.sample_cuts"), "s"),
        "oracle.chain_cmp.calls": (last["counts"]["oracle.chain_cmp.calls"], "count"),
        "oracle.sample.part_coverage": (
            coverage[0] / coverage[1] if coverage[1] else 0.0, "ratio"),
        "oracle.other.self_s": (self_s("oracle.other"), "s"),
        "oracle.verify.scaling_exp": (
            _slope([p for p in series["verify_parts"] if p[0] >= 24]), "ratio"),
        "item.harness_self_s": (self_s("item"), "s"),
        "trace.overhead_ratio": (
            statistics.median(p["pass_s"] for p in traced) /
            statistics.median(p["pass_s"] for p in plain), "ratio"),
        "run.failed_share": (
            sum(e is not None for e in plain[0]["errors"]) / len(plain[0]["errors"]), "ratio"),
    }
    problems = []
    for p in traced:
        self_sum = sum(v[1] for v in p["layers"]["spans"].values())
        if self_sum > p["pass_s"]:
            problems.append(f"layer self times sum to {self_sum:.4f} s, more than "
                            f"the traced pass ({p['pass_s']:.4f} s)")
    return values, series, problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default under perfbench/results/)")
    ap.add_argument("--compare", help="previous results file or directory")
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in _required_files() if not p.exists()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2

    job = dict(workloads.WORKLOADS[args.workload](args.seed), workload=args.workload)
    out_path = Path(args.out) if args.out else \
        HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.trace:
        # one span file per workload, from its latest traced pass
        job["spans_out"] = str(out_path.parent / f"{args.workload}.spans.tsv.gz")
    try:
        plain, traced = run_passes(job, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = list(plain[0]["problems"])
    fingerprint = plain[0]["fingerprint"]
    if any(p["fingerprint"] != fingerprint for p in plain + traced):
        problems.append("outputs differ between passes")
    values, samples, extra = end_to_end(plain)
    attempted = extra["items_per_pass"] * len(plain)
    failed = sum(e is not None for e in plain[0]["errors"]) * len(plain)
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
               "extra": extra, "metrics": {}}
    if args.trace:
        layer_values, series, layer_problems = per_layer(plain, traced)
        problems += layer_problems
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_values.items()}
        results["scaling_series"] = series
    else:
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
                   for k in END_TO_END_UNITS}
    for k, m in metrics.items():
        results["metrics"][k] = dict(m, samples=samples.get(k, [m["value"]]))
    results["problems"] = problems
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f" (+{len(traced)} traced)  items/pass {extra['items_per_pass']}")
    for k, m in metrics.items():
        print(f"  {k:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':42s} {extra['failed_share']:>14.6g} ratio"
          f"  {extra['failed_by_class'] or ''}")
    print(f"  item_ms_tail is p{extra['tail_percentile']:g} over {extra['tail_items']} items")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(f"results written to {out_path}")
    if args.compare:
        compare.print_table(compare.load(Path(args.compare)), compare.load(out_path))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 3 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
