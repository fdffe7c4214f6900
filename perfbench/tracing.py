"""Per-layer spans recorded from outside qwick by wrapping its public functions.

Every public function defined in a qwick module is replaced, in every qwick
module namespace that holds it, by a wrapper that records a span: name,
parent span, start and end.  A generator is timed per item pulled, so work
between two yields is charged to the enumerator and work done on an item to
its consumer.  Spans stay in memory; the per-layer metrics are computed from
them and the spans are written out when the run ends.

A name the metrics read that a later refactor removes is listed as absent and
its metrics read 0; it is not an error.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("diagrams", "algebra", "wick", "fock", "verify", "cli")
# methods traced besides the module-level functions: (layer, class, method)
METHODS = (("algebra", "Expansion", "to_json"),)

BASE_ENUMERATORS = (
    "diagrams.enumerate_diagrams",
    "diagrams.enumerate_complete",
    "diagrams.enumerate_compatible",
)
NONLINKING = "diagrams.enumerate_nonlinking"
REQUIRED = BASE_ENUMERATORS + (
    NONLINKING,
    "diagrams.crossing_stats",
    "diagrams.classify",
    "algebra.accumulate_term",
    "algebra.diagram_term",
    "algebra.substitute_wick",
    "algebra.Expansion.to_json",
    "fock.create",
    "fock.annihilate",
    "fock.evaluate_expansion",
    "fock.gram_check",
    "verify.run_check",
    "cli.main",
)

# span kinds: what a call returned, or one pull from a traced generator
CALL, EXPANSION, FOCK, REPORTS, GENERATOR, PULL_ITEM, PULL_END = range(7)


class _Never:
    """Stand-in for a result class a refactor removed; nothing is an instance."""


class Tracer:
    """Owns the spans of one traced pass: install() wraps, uninstall()
    restores, metrics() reduces."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.absent: list[str] = []
        self._expansion = self._fock_vector = _Never
        self._originals: list[tuple] = []

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"qwick.{layer}")
            except ImportError:
                continue
        self._expansion = getattr(modules.get("algebra"), "Expansion", _Never)
        self._fock_vector = getattr(modules.get("fock"), "FockVector", _Never)

        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        namespaces = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "qwick" and m
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

        for layer, cls_name, method in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            original = getattr(cls, method, None)
            if isinstance(original, types.FunctionType):
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(original, f"{layer}.{cls_name}.{method}"))

        self.absent = [name for name in REQUIRED if name not in self.names]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        measure, pull = self._measure, self._pull

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, parent, start, clock(), CALL, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            kind, size = measure(result)
            spans[idx] = (nid, parent, start, end, kind, size)
            return pull(result, nid) if kind == GENERATOR else result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _measure(self, result):
        if isinstance(result, self._expansion):
            return EXPANSION, len(getattr(result, "terms", ()))
        if isinstance(result, self._fock_vector):
            return FOCK, len(getattr(result, "entries", ()))
        if isinstance(result, types.GeneratorType):
            return GENERATOR, 0
        if isinstance(result, list) and result and hasattr(result[0], "passed"):
            return REPORTS, (len(result), sum(1 for r in result if not r.passed))
        return CALL, 0

    def _pull(self, it, nid):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        while True:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                spans[idx] = (nid, parent, start, clock(), PULL_END, 0)
                stack.pop()
                return
            except BaseException:
                spans[idx] = (nid, parent, start, clock(), PULL_END, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (nid, parent, start, end, PULL_ITEM, 0)
            yield item

    def _nearest(self, pick) -> list[int]:
        """For each span, the nearest span among itself and its ancestors
        for which pick(span) holds, or -1."""
        out = []
        for i, span in enumerate(self.spans):
            out.append(i if pick(span) else (out[span[1]] if span[1] >= 0 else -1))
        return out

    def aggregates(self) -> dict[str, dict]:
        """Per traced name: calls, items pulled and self time in seconds."""
        child = [0] * len(self.spans)
        for nid, parent, start, end, kind, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, items, self_ns = Counter(), Counter(), Counter()
        for i, (nid, parent, start, end, kind, size) in enumerate(self.spans):
            self_ns[nid] += end - start - child[i]
            if kind == PULL_ITEM:
                items[nid] += 1
            elif kind != PULL_END:
                calls[nid] += 1
        return {
            name: {"calls": calls[nid], "items": items[nid], "self_s": self_ns[nid] / 1e9}
            for nid, name in enumerate(self.names)
        }

    def metrics(self, agg: dict[str, dict]) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, except those the caller
        measures itself (cli.stdout_bytes and the trace.* pair)."""
        names, spans = self.names, self.spans

        def get(name, key):
            return agg.get(name, {}).get(key, 0)

        def layer_self(layer):
            return sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer)

        base = {names.index(n) for n in BASE_ENUMERATORS if n in names}
        nonlinking = names.index(NONLINKING) if NONLINKING in names else None
        accumulate = (
            names.index("algebra.accumulate_term") if "algebra.accumulate_term" in names else None
        )
        wick = {i for i, n in enumerate(names) if n.startswith("wick.")}
        verify = {i for i, n in enumerate(names) if n.startswith("verify.")}

        wick_of = self._nearest(lambda s: s[0] in wick)
        producer_of = self._nearest(lambda s: s[4] == EXPANSION)
        verify_of = self._nearest(lambda s: s[0] in verify)

        nl_items = nl_candidates = 0
        yields_by_wick, acc_by_wick, acc_by_producer = Counter(), Counter(), Counter()
        instances = failures = peak_support = 0
        for i, (nid, parent, start, end, kind, size) in enumerate(spans):
            if kind == PULL_ITEM and nid in base:
                if parent >= 0 and spans[parent][0] == nonlinking:
                    nl_candidates += 1
                if wick_of[i] >= 0:
                    yields_by_wick[wick_of[i]] += 1
            elif kind == PULL_ITEM and nid == nonlinking:
                nl_items += 1
            elif nid == accumulate and kind != PULL_END:
                if wick_of[i] >= 0:
                    acc_by_wick[wick_of[i]] += 1
                acc_by_producer[producer_of[parent] if parent >= 0 else -1] += 1
            elif kind == FOCK and names[nid].startswith("fock."):
                peak_support = max(peak_support, size)
            elif kind == REPORTS and nid in verify:
                if parent < 0 or verify_of[parent] < 0:
                    instances += size[0]
                    failures += size[1]

        if nl_candidates:
            yield_ratio = nl_items / nl_candidates
        else:
            yield_ratio = 1.0 if nl_items else 0.0
        # only builders that pulled diagrams count toward kept_ratio, so a
        # recursion that accumulates without enumerating does not skew it
        kept = sum(acc_by_wick[w] for w in yields_by_wick)
        diagrams_yielded = sum(yields_by_wick.values())
        accumulations = sum(acc_by_producer.values())
        terms_out = sum(spans[p][5] for p in acc_by_producer if p >= 0)

        return {
            "diagrams.enumerate.yielded": sum(get(names[n], "items") for n in base),
            "diagrams.enumerate.self_s": sum(get(names[n], "self_s") for n in base)
            + get(NONLINKING, "self_s"),
            "diagrams.nonlinking.yield_ratio": yield_ratio,
            "diagrams.crossing_stats.calls": get("diagrams.crossing_stats", "calls"),
            "diagrams.crossing_stats.self_s": get("diagrams.crossing_stats", "self_s"),
            "diagrams.classify.calls": get("diagrams.classify", "calls"),
            "wick.self_s": layer_self("wick"),
            "wick.kept_ratio": kept / diagrams_yielded if diagrams_yielded else 0.0,
            "algebra.accumulate.calls": get("algebra.accumulate_term", "calls"),
            "algebra.accumulate.self_s": get("algebra.accumulate_term", "self_s"),
            "algebra.diagram_term.self_s": get("algebra.diagram_term", "self_s"),
            "algebra.merge_ratio": terms_out / accumulations if accumulations else 0.0,
            "algebra.substitute_wick.self_s": get("algebra.substitute_wick", "self_s"),
            "algebra.to_json.self_s": get("algebra.Expansion.to_json", "self_s"),
            "fock.create.calls": get("fock.create", "calls"),
            "fock.create.self_s": get("fock.create", "self_s"),
            "fock.annihilate.calls": get("fock.annihilate", "calls"),
            "fock.annihilate.self_s": get("fock.annihilate", "self_s"),
            "fock.peak_support": peak_support,
            "fock.evaluate_expansion.self_s": get("fock.evaluate_expansion", "self_s"),
            "fock.gram_check.self_s": get("fock.gram_check", "self_s"),
            "verify.instances": instances,
            "verify.failures": failures,
            "verify.self_s": layer_self("verify"),
            "cli.render_s": layer_self("cli"),
        }

    def dump(self, path, extra: dict) -> None:
        """Write names, spans (times in ns from the first span) and extra."""
        origin = min((s[2] for s in self.spans), default=0)
        rows = [
            [nid, parent, start - origin, end - origin, kind, size]
            for nid, parent, start, end, kind, size in self.spans
        ]
        payload = {
            **extra,
            "names": self.names,
            "span_fields": ["name", "parent", "start_ns", "end_ns", "kind", "size"],
            "kinds": ["call", "expansion", "fock", "reports", "generator", "item", "end"],
            "spans": rows,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
