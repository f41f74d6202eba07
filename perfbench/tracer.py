"""In-process tracer for one benchmark repetition.

install() replaces the module attributes each layer of ``ramsey`` looks up
with wrappers.  Every module that bound a name by ``from ... import`` gets
the wrapper, because patching only the defining module misses those
callers.  Coarse boundaries (a sweep, a sweep graph, a Ramsey number, one
search per order n, one enumeration level, one ``verify_coloring``) become
spans kept in memory; hot calls (anchored checks, ``canonical_form``,
``embeds``, name parsing) only bump counters and summed nanoseconds.

Pool workers run the search subtrees.  The traced pool wraps each submitted
task so the worker returns its own counters with the result, and the parent
merges them when the search consumes that result.  Results the search never
reads (subtrees cancelled after a witness was found) are left out, so the
counts repeat exactly from run to run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

_now = time.perf_counter_ns

# counters: "<name>.calls", "<name>.ns", "<name>.true"
counters: Counter = Counter()
# spans: [name, start_ns, end_ns, parent_index, attrs]
spans: list = []
_stack: list[int] = []
_installed = False


def _counted(name: str, fn, truth: bool = False):
    def wrapper(*args, **kwargs):
        t0 = _now()
        out = fn(*args, **kwargs)
        counters[name + ".ns"] += _now() - t0
        counters[name + ".calls"] += 1
        if truth and out:
            counters[name + ".true"] += 1
        return out
    return wrapper


def _spanned(name: str, fn, attrs=None):
    """Record a span around each call; attrs(args, result) adds fields."""
    def wrapper(*args, **kwargs):
        idx = len(spans)
        parent = _stack[-1] if _stack else -1
        rec = [name, _now(), 0, parent, {"cf": counters["graphs.canonical_form.calls"]}]
        spans.append(rec)
        _stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            _stack.pop()
            rec[2] = _now()
            rec[4]["cf"] = counters["graphs.canonical_form.calls"] - rec[4]["cf"]
        if attrs is not None:
            rec[4].update(attrs(args, out))
        return out
    return wrapper


def _make_check_traced(make_check):
    def wrapper(pat):
        check = make_check(pat)
        kind = check.__name__.removeprefix("check_")
        return _counted("arrowing.check." + kind, check, truth=True)
    return wrapper


def _run_in_worker(fn, args, kwargs):
    """Pool-side task: run fn with fresh counters and send them back."""
    install()
    counters.clear()
    out = fn(*args, **kwargs)
    return out, dict(counters)


class _TracedFuture:
    def __init__(self, fut):
        self._fut = fut

    def result(self, timeout=None):
        out, worker_counters = self._fut.result(timeout)
        counters.update(worker_counters)
        return out

    def cancel(self):
        return self._fut.cancel()


class TracedPool:
    """ProcessPoolExecutor stand-in that counts pools, tasks and the time
    the parent stays blocked in shutdown after its answer is known."""

    def __init__(self, *args, **kwargs):
        self._pool = ProcessPoolExecutor(*args, **kwargs)
        counters["arrowing.parallel.pools"] += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        t0 = _now()
        self._pool.shutdown(wait=True)
        counters["arrowing.parallel.shutdown_wait.ns"] += _now() - t0
        return False

    def submit(self, fn, /, *args, **kwargs):
        counters["arrowing.parallel.tasks"] += 1
        return _TracedFuture(self._pool.submit(_run_in_worker, fn, args, kwargs))


def _patch_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "ramsey" or modname.startswith("ramsey."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install() -> None:
    """Wrap the layer boundaries of the already-imported ramsey modules."""
    global _installed
    if _installed:
        return
    import ramsey.cli  # noqa: F401  (imports every layer)
    from ramsey import arrowing, bounds, enumeration, families, graphs

    for original, wrapped in (
        (graphs.canonical_form, _counted("graphs.canonical_form", graphs.canonical_form)),
        (graphs.embeds, _counted("graphs.embeds", graphs.embeds, truth=True)),
        (families.graph_from_name,
         _counted("families.graph_from_name", families.graph_from_name)),
        (bounds.sweep, _spanned("bounds.sweep", bounds.sweep)),
        (arrowing.ramsey_number_with_witness,
         _spanned("arrowing.ramsey", arrowing.ramsey_number_with_witness)),
        (arrowing._run_search, _spanned(
            "arrowing.search", arrowing._run_search,
            lambda args, out: {"nodes": out[1], "witnessed": out[0] is not None})),
        (enumeration._isolate_free_classes, _spanned(
            "enumeration.level", enumeration._isolate_free_classes,
            lambda args, out: {"classes": len(out)})),
        (arrowing.verify_coloring, _spanned("arrowing.verify_coloring", arrowing.verify_coloring)),
    ):
        _patch_everywhere(original, wrapped)
    # only the sweep's own binding: one call per swept graph
    bounds.ramsey_number = _spanned("bounds.sweep.graph", bounds.ramsey_number)
    arrowing._make_check = _make_check_traced(arrowing._make_check)
    arrowing.ProcessPoolExecutor = TracedPool
    _installed = True


def snapshot() -> dict:
    """Counters and spans, in the JSON form the parent reads."""
    return {"counters": dict(counters), "spans": spans}
