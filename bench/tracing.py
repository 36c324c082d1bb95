"""Outside-in tracing of the sgraph layers.

The tracer wraps the public entry points of each sgraph module at every
binding site: the defining module, every sgraph module that imported the
name with `from .x import ...`, the package namespace, registry dicts such
as `products.PRODUCT_KINDS`, and class attributes for constructors and
methods. Each call made while the tracer is active records one span (id,
parent, layer, function, start, end, error, extra count). Spans stay in
memory; `layer_metrics` folds them into per-layer numbers.

A layer's self time is its spans' time minus the time covered by child
spans. `calls` counts entries into a layer from outside it, so a builder
that calls another builder (strong calls cartesian) is one call; extra
counts (edges, bytes, maps, candidates) sum over every span.
"""

import functools
import sys
import time
from collections import defaultdict

from sgraph import bdim, cli, core, documents, products, tables, verify

_perf = time.perf_counter


def _setitem(container, key, value):
    container[key] = value


def _graph_edges(args, kwargs, result, tracer, entry):
    return len(result.edges)


def _text_bytes(args, kwargs, result, tracer, entry):
    text = result if isinstance(result, str) else args[-1]
    return len(text.encode())


def _oracle_maps(args, kwargs, result, tracer, entry):
    g, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    return 3 ** (g.n * k) if g.edges else 0


def _claims_checked(args, kwargs, result, tracer, entry):
    tracer.claims_run += len(result)
    return sum(r.instances_checked for r in result)


def _explored(args, kwargs, result, tracer, entry):
    """Candidates of one bdim_search call, in the units of BdimResult.explored.

    explored is the vertex count plus the candidates the search core tried;
    the search-core hook sees those even when the call ends in a refusal.
    """
    g = args[0] if args else kwargs["g"]
    inner = tracer.tried - entry
    if result is None:
        return g.n + inner
    if tracer.search_core_hooked and result.explored != g.n + inner:
        tracer.explored_mismatches += 1
    return result.explored


# layer -> [(object owning the attribute, attribute name, extra counter)]
TARGETS = {
    "core.graph": [(core.SignedGraph, "__init__", None)]
    + [
        (core, name, None)
        for name in (
            "build_graph", "generate", "all_positive_complete",
            "all_negative_complete", "antibalanced_complete", "unbalanced_cycle",
            "path_graph", "null_graph", "negate", "induced_subgraph",
        )
    ],
    "core.bfs": [(core, name, None) for name in ("is_balanced", "components", "is_antibalanced")],
    "core.equiv": [(core, name, None) for name in ("apply_switching", "is_switching_equivalent")],
    "products": [
        (products, name, _graph_edges)
        for name in ("cartesian", "hg_lex", "bcd_lex", "tensor", "strong")
    ],
    "bdim.search": [(bdim, "bdim_search", _explored)],
    "bdim.check": [
        (bdim, "is_k_positive", None),
        (bdim, "apply_k_switching", None),
        (bdim.KSwitching, "__init__", None),
        (bdim.KSwitching, "is_valid_for", None),
    ],
    "bdim.oracle": [
        (bdim, "bdim_oracle", None),
        (bdim, "has_k_positive_bruteforce", _oracle_maps),
    ],
    "tables": [(tables, "table_witness", None)],
    "verify": [(verify, "run_claims", _claims_checked)]
    + [
        (verify, name, None)
        for name in ("recheck_counterexample", "claim_description", "format_report", "report_record")
    ],
    "cli": [(cli, "main", None)],
    "documents": [
        (documents.GraphDocument, "to_json", _text_bytes),
        (documents.GraphDocument, "from_json", _text_bytes),
        (documents.WitnessDocument, "to_json", _text_bytes),
        (documents.WitnessDocument, "from_json", _text_bytes),
        (documents, "to_dot", _text_bytes),
    ],
}

# The search core is private and hooked only to count candidates: its time
# stays in bdim.search's self time.
SEARCH_CORE = (bdim, "_search_component")


class Tracer:
    """Spans of the calls made into sgraph while `active` is set.

    The wrappers are built once; `install` and `uninstall` swap them in and
    out at every binding site found at construction.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.tried = 0
        self.search_core_hooked = False
        self.explored_mismatches = 0
        self.claims_run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._sites: list[tuple] = []
        self._find_all_sites()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn, extra):
        name = fn.__qualname__
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            entry = self.tried
            stack.append(sid)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _perf()
                stack.pop()
                # a search that ends in a refusal still tried its candidates
                count = extra(args, kwargs, None, self, entry) if extra is _explored else 0
                spans.append((sid, parent, layer, name, start, end, type(exc).__name__, count))
                raise
            end = _perf()
            stack.pop()
            count = extra(args, kwargs, result, self, entry) if extra else 0
            spans.append((sid, parent, layer, name, start, end, None, count))
            return result

        return traced

    def _count_candidates(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active and isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
                self.tried += out[1]
            return out

        return counted

    # -- patching -----------------------------------------------------------

    def _find_sites(self, original, replacement) -> None:
        """Every binding of `original` in sgraph: module attributes and dict items."""
        modules = [m for n, m in sys.modules.items() if n == "sgraph" or n.startswith("sgraph.")]
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    self._sites.append((setattr, module, attr, original, replacement))
                elif type(value) is dict:
                    for key, item in value.items():
                        if item is original:
                            self._sites.append((_setitem, value, key, original, replacement))

    def _find_all_sites(self) -> None:
        for layer, targets in TARGETS.items():
            for owner, attr, extra in targets:
                if isinstance(owner, type):
                    raw = owner.__dict__.get(attr)
                    if raw is None:
                        self.missing.append(f"{owner.__name__}.{attr}")
                    elif isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__, extra))
                        self._sites.append((setattr, owner, attr, raw, wrapped))
                    else:
                        self._sites.append((setattr, owner, attr, raw, self._wrap(layer, raw, extra)))
                    continue
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                else:
                    self._find_sites(fn, self._wrap(layer, fn, extra))
        module, attr = SEARCH_CORE
        core_fn = getattr(module, attr, None)
        if core_fn is not None:
            self._find_sites(core_fn, self._count_candidates(core_fn))
            self.search_core_hooked = True

    def install(self) -> None:
        for put, where, key, _original, replacement in self._sites:
            put(where, key, replacement)

    def uninstall(self) -> None:
        for put, where, key, original, _replacement in self._sites:
            put(where, key, original)

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        """calls, self_s, extra, and error counts per layer, from the spans."""
        layer_of = {}
        child_time: dict[int, float] = defaultdict(float)
        out = {layer: {"calls": 0, "self_s": 0.0, "extra": 0, "errors": defaultdict(int)}
               for layer in TARGETS}
        # a child ends before its parent, so spans arrive children-first
        for sid, parent, layer, _name, start, end, error, count in self.spans:
            layer_of[sid] = layer
            duration = end - start
            if parent is not None:
                child_time[parent] += duration
            entry = out[layer]
            entry["self_s"] += duration - child_time.pop(sid, 0.0)
            entry["extra"] += count
        for sid, parent, layer, _name, _start, _end, error, _count in self.spans:
            if parent is None or layer_of[parent] != layer:
                out[layer]["calls"] += 1
                if error:
                    out[layer]["errors"][error] += 1
        return out
