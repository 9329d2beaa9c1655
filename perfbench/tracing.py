"""Span tracing of ordercuts from outside the library.

`Tracer.install` replaces public functions and methods of the traced modules
with wrappers.  A module-level function is patched in every loaded
`ordercuts` module namespace that holds it (the `from .x import f` copies
too); a method is patched on its class.  `src/` is never edited, and
`uninstall` puts every original back.

Each span records its name, start, end, parent span and the item it belongs
to.  Spans are kept in flat arrays in memory and written out only when the
pass ends.  A span's self time is its duration minus the time its direct
children cover; one thread runs, so children nest strictly inside parents.

Very hot, very cheap calls (chain `cmp`, index-chain `check`, `CofPair`
ordering) are counted without a span: a span there would cost more than the
call it measures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import time
from array import array

# span name -> [(module, owner, attribute)]; owner None means a module-level
# function.  Every public function of a traced module that is not listed here
# is wrapped under "<layer>.other", so self time is attributed to the layer
# that spends it.
SPANS = {
    "cli.parse": [("cli", None, "parse_definitions")],
    "cli.run": [("cli", None, "run")],
    "cli.render": [("cli", "Report", "render_text"), ("cli", "Report", "render_machine")],
    "cardinals.cardset": [("cardinals", "CardSet", a) for a in
                          ("normalized", "union", "intersect", "is_subset", "contains")],
    "order_terms.cut_spectrum": [("order_terms", None, "cut_spectrum")],
    "order_terms.spectrum_of": [("order_terms", "CutSpectrum", "of")],
    "order_terms.coin_cofin": [("order_terms", None, "coin_cofin")],
    "order_terms.completeness": [("order_terms", None, "completeness_predicates")],
    "order_terms.extend_order": [("order_terms", None, "extend_order")],
    "order_terms.side_conditions": [("order_terms", None, "check_side_conditions")],
    "struct_classify.classify_group": [("struct_classify", None, "classify_group")],
    "struct_classify.classify_field": [("struct_classify", None, "classify_field")],
    "hahn.make": [("hahn_concrete", "HahnElement", "make"),
                  ("hahn_concrete", "SeriesElement", "make")],
    "hahn.compare": [("hahn_concrete", "HahnElement", "compare"),
                     ("hahn_concrete", "SeriesElement", "compare")],
    "hahn.add": [("hahn_concrete", "HahnElement", "__add__"),
                 ("hahn_concrete", "SeriesElement", "__add__")],
    "hahn.series_mul": [("hahn_concrete", "SeriesElement", "__mul__")],
    "oracle.spectrum_soundness": [("oracle", None, "spectrum_soundness")],
    "oracle.concretize": [("oracle", None, "concretize")],
    "oracle.term_witnesses": [("oracle", None, "term_witnesses")],
    "oracle.verify_witness": [("oracle", None, "verify_witness")],
    "oracle.sample_cuts": [("oracle", None, "sample_cuts")],
}

LAYERS = {"cli": "cli", "cardinals": "cardinals", "order_terms": "order_terms",
          "struct_classify": "struct_classify", "hahn_concrete": "hahn",
          "oracle": "oracle"}

# counter name -> (module, [class names], attribute)
COUNTS = {
    "cardinals.cofpair.compares": ("cardinals", ["CofPair"], "__lt__"),
    "hahn.point_checks": ("hahn_concrete", ["FinitePoints", "IntegerPoints",
                                            "RationalPoints", "LexPoints"], "check"),
    "oracle.chain_cmp.calls": ("oracle", ["FinChain", "NatChain", "RatChain", "RevChain",
                                          "SumChain", "LexChain"], "cmp"),
}

ITEM = "item"


class Tracer:
    def __init__(self):
        self.names = [ITEM]
        self.name_id = {ITEM: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.item = -1
        self.spectrum_depth = 0
        self.classify_depth = 0
        self._patches = []
        self.counts = dict.fromkeys(
            list(COUNTS) + ["hahn.add.terms_in", "hahn.series_mul.term_products"], 0)
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the counters; spans outside items are left out by `self_times`."""
        for key in self.counts:     # in place: the count wrappers hold the dict
            self.counts[key] = 0
        self.max_spectrum_depth = 0
        self.spectrum_top_calls = 0
        self.spectrum_top_parts = 0
        self.spectrum_repeats = 0
        self.seen_terms = {}        # hash -> terms analysed in this item
        self.classify_calls = 0
        self.classify_spectra = 0
        self.sampled = []          # (chain, samples) of sample_cuts calls

    # -- spans ------------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_item.append(self.item)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self.current = idx
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.current = self.span_parent[idx]

    def begin_item(self, item: int) -> int:
        self.item = item
        self.seen_terms = {}
        return self._open(0)

    def end_item(self, idx: int) -> None:
        self._close(idx)
        self.item = -1

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = {"order_terms.cut_spectrum": self._cut_spectrum,
                "struct_classify.classify_group": self._classify,
                "struct_classify.classify_field": self._classify}.get(name)
        if hook is not None:
            return hook(name_id, fn)
        observe = {"hahn.add": self._observe_add,
                   "hahn.series_mul": self._observe_mul,
                   "oracle.sample_cuts": self._observe_sample}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def _cut_spectrum(self, name_id: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(t):
            top = tracer.spectrum_depth == 0
            if top and tracer.classify_depth:
                tracer.classify_spectra += 1
            try:
                bucket = tracer.seen_terms.setdefault(hash(t), [])
            except RecursionError:
                bucket = None       # too deep to hash; the call fails anyway
            if bucket is not None:
                if any(t == s for s in bucket):
                    tracer.spectrum_repeats += 1
                else:
                    bucket.append(t)
            tracer.spectrum_depth += 1
            tracer.max_spectrum_depth = max(tracer.max_spectrum_depth,
                                            tracer.spectrum_depth)
            idx = tracer._open(name_id)
            try:
                out = fn(t)
            finally:
                tracer._close(idx)
                tracer.spectrum_depth -= 1
            if top:
                tracer.spectrum_top_calls += 1
                tracer.spectrum_top_parts += len(out.parts)
            return out
        return wrapper

    def _classify(self, name_id: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.classify_depth == 0:
                tracer.classify_calls += 1
            tracer.classify_depth += 1
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.classify_depth -= 1
        return wrapper

    def _observe_add(self, args, kwargs):
        self.counts["hahn.add.terms_in"] += len(args[0].terms) + len(args[1].terms)

    def _observe_mul(self, args, kwargs):
        self.counts["hahn.series_mul.term_products"] += len(args[0].terms) * len(args[1].terms)

    def _observe_sample(self, args, kwargs):
        samples = kwargs.get("samples", args[2] if len(args) > 2 else 60)
        self.sampled.append((args[0], samples))

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        mods = {short: importlib.import_module(f"ordercuts.{short}") for short in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "ordercuts" or n.startswith("ordercuts.")]
        named = set()
        for name, targets in SPANS.items():
            for short, owner, attr in targets:
                named.add((short, owner, attr))
                self._patch(mods[short], owner, attr, namespaces,
                            lambda fn, name=name: self._span_wrapper(name, fn))
        for short, mod in mods.items():
            for attr, fn in vars(mod).copy().items():
                if attr.startswith("_") or (short, None, attr) in named:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch(mod, None, attr, namespaces,
                                lambda f, n=f"{LAYERS[short]}.other": self._span_wrapper(n, f))
        for name, (short, classes, attr) in COUNTS.items():
            for cls in classes:
                self._patch(mods[short], cls, attr, namespaces,
                            lambda fn, name=name: self._count_wrapper(name, fn))

    def _patch(self, mod, owner, attr, namespaces, make) -> None:
        if owner is None:
            fn = getattr(mod, attr)
            wrapped = make(fn)
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is fn:
                        self._patches.append((ns, key, value))
                        setattr(ns, key, wrapped)
            return
        cls = getattr(mod, owner)
        raw = vars(cls).get(attr)
        if raw is None:
            return          # inherited; the defining class is patched instead
        self._patches.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds, total seconds) per span name, over the spans
        of items; set-up spans such as the parse are left out."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(n):
            if self.span_item[i] < 0:
                continue
            k = self.span_name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            self_ns[k] += dur - covered[i]
            total_ns[k] += dur
        return {name: (calls[k], self_ns[k] / 1e9, total_ns[k] / 1e9)
                for k, name in enumerate(self.names)}

    def setup_span_s(self, name: str) -> float:
        """Total seconds of the spans of `name` outside items (set-up)."""
        k = self.name_id.get(name)
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.span_name[i] == k and self.span_item[i] < 0) / 1e9

    def write(self, path: str) -> None:
        """Gzipped, one line per span: id, name, item, parent, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\titem\tparent\tstart_ns\tend_ns\n")
            for i, (k, item, parent, s, e) in enumerate(zip(
                    self.span_name, self.span_item, self.span_parent,
                    self.start, self.end)):
                out.write(f"{i}\t{self.names[k]}\t{item}\t{parent}\t{s}\t{e}\n")


def part_coverage(chain, samples: int) -> tuple:
    """(parts reached, parts) for the first `samples` elements of a chain:
    the share of a sum's parts that `sample_cuts` actually probes."""
    from ordercuts import oracle

    def leaves(c):
        if isinstance(c, oracle.SumChain):
            return leaves(c.left) + leaves(c.right)
        if isinstance(c, oracle.RevChain):
            return leaves(c.inner)
        return 1

    def leaf_of(c, x, base):
        while True:
            if isinstance(c, oracle.SumChain):
                tag, x = x
                if tag == 0:
                    c = c.left
                else:
                    base += leaves(c.left)
                    c = c.right
            elif isinstance(c, oracle.RevChain):
                c = c.inner
            else:
                return base

    reached = {leaf_of(chain, x, 0) for x in itertools.islice(chain.elements(), samples)}
    return len(reached), leaves(chain)
