"""Run one digitfix CLI job in this process with spans around its calls between modules.

Usage: ``python traced_job.py SPAWN_TIME ARG...`` with ``src`` on PYTHONPATH.
SPAWN_TIME is the parent's ``time.monotonic()`` taken just before it started
this process, so the import span covers interpreter start-up too.

The public functions listed below are wrapped in the namespace of every
``digitfix`` module that binds them: ``digitfix.search.hardy_bound`` and
``digitfix.cli.hardy_bound`` are separate bindings and both get a wrapper.
Each call through a wrapper records a span (name, layer, start, end, parent)
in memory; ``evaluate`` and the digit helpers are only counted, and only
when called from ``search`` or ``bounds``.  Process pools are timed from
creation to shutdown.  Forked pool workers get the original functions back,
so work done in workers shows as the parent's time inside the pool.

After ``cli.main`` returns, the trace is written to stderr as one JSON line
starting with ``TRACE_PREFIX``, and the process exits with main's code.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from math import comb

TRACE_PREFIX = "PERFBENCH-TRACE "

# (defining module, name) -> layer of the span around each call
SPAN_LAYERS = {
    ("digitfix.bounds", "hardy_bound"): "bounds",
    ("digitfix.bounds", "wells_cutoff"): "bounds",
    ("digitfix.bounds", "dudeney_cutoff"): "bounds",
    ("digitfix.bounds", "powersum_bound"): "bounds",
    ("digitfix.search", "armstrong_order_ceiling"): "bounds",
    ("digitfix.search", "hardy_hit"): "verify",
    ("digitfix.search", "armstrong_hit"): "verify",
    ("digitfix.search", "wells_hit"): "verify",
    ("digitfix.search", "wells_reverse_hit"): "verify",
    ("digitfix.search", "dudeney_hit"): "verify",
    ("digitfix.search", "powersum_hit"): "verify",
    ("digitfix.search", "reversal_hit"): "verify",
    ("digitfix.families", "piezas_generate"): "families",
    ("digitfix.families", "vitalis_generate"): "families",
    ("digitfix.families", "verify_concat_square"): "families",
    ("digitfix.corpus", "corpus_check"): "corpus",
}

# search entry points -> engine; search_hardy's engine comes from its config
SEARCH_ENGINES = {
    "search_hardy": None,
    "search_armstrong": "armstrong",
    "search_wells": "digitsum",
    "search_wells_reverse": "digitsum",
    "search_dudeney": "digitsum",
    "search_powersum": "powersum",
    "search_reversal": "reversal",
}

COUNTED = {
    ("digitfix.funcatalog", "evaluate"): "funcatalog.evaluate_calls",
    ("digitfix.digitops", "digit_sum"): "digitops.calls",
    ("digitfix.digitops", "digit_count"): "digitops.calls",
    ("digitfix.digitops", "group_blocks"): "digitops.calls",
    ("digitfix.digitops", "reverse_digits"): "digitops.calls",
}
COUNTING_MODULES = ("digitfix.search", "digitfix.bounds")

POOL_CLASS = ("concurrent.futures.process", "ProcessPoolExecutor")


class Tracer:
    """Spans, counts and pool intervals of one job; all state stays in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, layer, start, end]
        self.stack: list[int] = []
        self.counts = {name: 0 for name in set(COUNTED.values())}
        self.pools: list[list] = []  # [start, end, workers]
        self.searches: list[tuple] = []  # (span id, function name, bound arguments)
        self.replaced: list[tuple] = []  # (module, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, layer_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [sid, parent, name, layer_of(args, kwargs), 0.0, 0.0]
            self.spans.append(span)
            self.stack.append(sid)
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def _search(self, fn, name: str):
        engine = SEARCH_ENGINES[name]
        signature = inspect.signature(fn)

        def layer_of(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.searches.append((len(self.spans), name, dict(bound.arguments)))
            return "search." + (engine or bound.arguments["cfg"].engine)

        return self._span(fn, name, layer_of)

    def _counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pool_class(self, base):
        pools = self.pools

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._trace = [time.perf_counter(), None, max_workers or os.cpu_count()]
                pools.append(self._trace)
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    if self._trace[1] is None:
                        self._trace[1] = time.perf_counter()

        return TracedPool

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("digitfix.") and m]
        for module in modules:
            for attr, value in list(vars(module).items()):
                key = (getattr(value, "__module__", None), getattr(value, "__name__", None))
                if key in SPAN_LAYERS:
                    layer = SPAN_LAYERS[key]
                    wrapped = self._span(value, attr, lambda a, k, layer=layer: layer)
                elif key[0] == "digitfix.search" and key[1] in SEARCH_ENGINES:
                    wrapped = self._search(value, key[1])
                elif key in COUNTED and module.__name__ in COUNTING_MODULES:
                    wrapped = self._counter(value, COUNTED[key])
                elif key == POOL_CLASS:
                    wrapped = self._pool_class(value)
                else:
                    continue
                self.replaced.append((module, attr, value))
                setattr(module, attr, wrapped)
        os.register_at_fork(after_in_child=self.restore)

    def restore(self) -> None:
        for module, attr, original in self.replaced:
            setattr(module, attr, original)

    # -- output -------------------------------------------------------------

    def spaces(self) -> dict[str, int]:
        """Size of the region each search certifies, computed from its parameters."""
        out: dict[str, int] = {}
        for sid, name, arguments in self.searches:
            layer = self.spans[sid][3]
            out[layer] = out.get(layer, 0) + search_space(name, arguments)
        return out


def _multisets(base: int, lengths) -> int:
    return sum(comb(m + base - 1, base - 1) for m in lengths)


def search_space(name: str, a: dict) -> int:
    """Values below the ceiling, digit multisets, or reversal candidates a search covers."""
    from digitfix import bounds, digitops, search

    if name == "search_hardy":
        cfg = a["cfg"]
        if cfg.engine == "multiset":
            if cfg.cap is not None:
                top = digitops.digit_count(cfg.cap, cfg.base)
            else:
                top = bounds.hardy_bound(cfg.spec, cfg.base, cfg.width).block_threshold - 1
            return _multisets(cfg.base, range(1, top + 1))
        if cfg.cap is not None:
            return cfg.cap
        return bounds.hardy_bound(cfg.spec, cfg.base, cfg.width).n_max
    if name == "search_armstrong":
        top = search.armstrong_order_ceiling(a["base"]) - 1
        if a["max_order"] is not None:
            top = min(top, a["max_order"])
        return _multisets(a["base"], range(2, top + 1))
    if name == "search_wells":
        if a["cap"] is not None:
            return a["cap"]
        return bounds.wells_cutoff(a["spec"], a["base"]).cutoff - 1
    if name == "search_wells_reverse":
        return digitops.digit_count(a["cap"], a["base"])
    if name == "search_dudeney":
        if a["engine"] == "preimage":
            top = bounds.powersum_bound(a["spec"].exponent, a["base"]).s_max
            return top if a["cap"] is None else min(top, a["cap"])
        if a["cap"] is not None:
            return a["cap"]
        return bounds.dudeney_cutoff(a["spec"], a["base"]).cutoff - 1
    if name == "search_powersum":
        s_max = bounds.powersum_bound(a["p"], a["base"]).s_max
        cap = a["cap"]
        if a["engine"] == "scan":
            return s_max ** a["p"] if cap is None else min(s_max ** a["p"], cap)
        return sum(1 for s in range(1, s_max + 1) if cap is None or s ** a["p"] <= cap)
    if name == "search_reversal":
        base, n = a["base"], a["num_digits"]
        return base**n - base ** (n - 1)
    raise ValueError(f"no search space for {name}")


def main() -> int:
    spawned = float(sys.argv[1])
    import digitfix.cli

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer._span(digitfix.cli.main, "main", lambda a, k: "cli")(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.restore()
    trace = {
        "import_s": imported - spawned,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "pools": tracer.pools,
        "space": tracer.spaces(),
    }
    sys.stderr.write(TRACE_PREFIX + json.dumps(trace) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
