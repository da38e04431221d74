"""Spans and counters recorded around calls into the penmix modules.

The tracer installs wrappers on module attributes (``penmix.government.
optimize_mix``, ``penmix.lifecycle.coeff_L``, the imported ``quad`` names,
...).  penmix's own callers reach these functions through the module
attribute, so the spans nest: a span's self time is its duration minus the
durations of its direct child spans.  Spans stay in memory; ``write`` dumps
them as JSON lines once the run is over.

Nothing inside ``src/`` changes: the wrappers are removed again by
``uninstall``, which restores every original attribute.
"""
from __future__ import annotations

import contextlib
import json
from time import perf_counter


def _evaluations(args, kwargs, result):
    return getattr(result, "evaluations", None)


def _crossings(args, kwargs, result):
    return sum(int(count) for _, count in getattr(result, "diagnostics", ()))


def _mc_info(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return (cfg.n_paths, result.clipped_paths)


def _is_babyboom(args, kwargs, result):
    demo = args[0] if args else kwargs["demo"]
    return demo.babyboom is not None


#: (module, attribute, span name, recorded only on an lru_cache miss, info)
SPANS = (
    ("cli", "main", "cli.main", False, None),
    ("government", "_grid", "government.grid", True, None),
    ("government", "optimize_mix", "government.optimize", False, _evaluations),
    ("government", "optimize_voluntary", "government.voluntary", False, None),
    ("government", "objective", "government.objective", False, None),
    ("lifecycle", "coeff_L", "lifecycle.L", False, None),
    ("lifecycle", "estimate_initial_states", "lifecycle.states", False, None),
    ("demography", "support_ratio_fn", "demography.lambda_table", True, _is_babyboom),
    ("preference", "preference_map", "preference.map", False, _crossings),
    ("montecarlo", "simulate_cohort", "montecarlo.simulate", False, _mc_info),
)

#: (module, attribute, counter name): calls counted, no span
COUNTERS = (
    ("demography", "quad", "demography.quad_calls"),
    ("lifecycle", "quad", "lifecycle.quad_calls"),
)

#: (metric prefix, module, attribute) of the lru caches whose deltas are read
CACHES = (
    ("cache.validate", "scenario", "_validate_cached"),
    ("cache.L", "lifecycle", "_L_of_age"),
    ("cache.grid", "government", "_grid"),
)


def cache_snapshot(package) -> dict:
    """(hits, misses) per cache in CACHES; None where the cache is gone."""
    out = {}
    for prefix, mod, attr in CACHES:
        fn = getattr(getattr(package, mod), attr, None)
        info = getattr(fn, "cache_info", None)
        out[prefix] = None if info is None else tuple(info()[:2])
    return out


class Tracer:
    """In-memory span recorder for one benchmark run (single-threaded)."""

    def __init__(self, package):
        self.package = package
        # span rows: [id, name, start, end, parent id, child time, op, info]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for _, _, name in COUNTERS}
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        rec = [self._next_id, name, perf_counter(), 0.0, parent, 0.0, self.op, None]
        self._stack.append(rec)
        return rec

    def _close(self, rec: list, keep: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        if keep:
            rec[3] = end
            if self._stack:
                self._stack[-1][5] += end - rec[2]
            self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # ------------------------------------------------------------- wrappers

    def _wrap_span(self, fn, name, cache_gated, info):
        tracer = self
        cache_info = getattr(fn, "cache_info", None) if cache_gated else None

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(rec)
                raise
            keep = cache_info is None or cache_info().misses != misses
            tracer._close(rec, keep)
            if keep and info is not None:
                rec[7] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every traced module attribute that exists by its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, gated, info in SPANS:
            module = getattr(self.package, mod)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap_span(fn, name, gated, info))
        for mod, attr, name in COUNTERS:
            module = getattr(self.package, mod)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap_count(fn, name))

    def uninstall(self) -> None:
        """Restore every attribute replaced by ``install``."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # --------------------------------------------------------------- output

    def write(self, path) -> None:
        """Dump the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, child, op, info in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op,
                    "start": start, "dur": end - start,
                    "self": end - start - child, "info": info}) + "\n")
            fh.write(json.dumps({"counters": self.counts}) + "\n")

    def by_name(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[1] == name]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(delta):
    """Hit ratio of a (hits, misses) delta: (ratio or None, base)."""
    if delta is None:
        return None, None
    hits, misses = delta
    base = hits + misses
    return (hits / base if base else 0.0), base


def layer_metrics(tracer: Tracer, traced_ops: int, cache_delta: dict,
                  mesh_steps: int, gap: float):
    """Per-layer metrics of the traced ops: (metrics, bases).

    Span metrics (``*_s`` of one call) are means over the calls made;
    self-time and count metrics are totals per traced op.  ``bases`` gives
    the sample count behind each value.
    """
    n = max(traced_ops, 1)

    def dur(rec):
        return rec[3] - rec[2]

    def self_time(rec):
        return rec[3] - rec[2] - rec[5]

    load = tracer.by_name("scenario.load")
    table = [r for r in tracer.by_name("demography.lambda_table") if r[7]]
    L = tracer.by_name("lifecycle.L")
    states = tracer.by_name("lifecycle.states")
    grid = tracer.by_name("government.grid")
    opt = tracer.by_name("government.optimize")
    vol = tracer.by_name("government.voluntary")
    obj = tracer.by_name("government.objective")
    pmap = tracer.by_name("preference.map")
    mc = tracer.by_name("montecarlo.simulate")
    cli = tracer.by_name("cli.main")

    evals = [r[7] for r in opt if r[7] is not None]
    opt_time = sum(dur(r) for r in opt)
    path_steps = sum(r[7][0] * mesh_steps for r in mc)
    mc_time = sum(dur(r) for r in mc)
    l_ratio, l_base = _ratio(cache_delta.get("cache.L"))
    g_ratio, g_base = _ratio(cache_delta.get("cache.grid"))
    v_ratio, v_base = _ratio(cache_delta.get("cache.validate"))

    rows = [
        ("scenario.load_s", _mean([dur(r) for r in load]), "s", len(load)),
        ("demography.quad_calls", tracer.counts["demography.quad_calls"] / n, "count", n),
        ("demography.lambda_table_s", _mean([dur(r) for r in table]), "s", len(table)),
        ("lifecycle.L_s", sum(self_time(r) for r in L) / n, "s", len(L)),
        ("lifecycle.states_s", sum(self_time(r) for r in states) / n, "s", len(states)),
        ("lifecycle.quad_calls", tracer.counts["lifecycle.quad_calls"] / n, "count", n),
        ("lifecycle.L_cache_hit_ratio", l_ratio, "ratio", l_base),
        ("government.grid_build_s", _mean([dur(r) for r in grid]), "s", len(grid)),
        ("government.optimize_s", _mean([dur(r) for r in opt]), "s", len(opt)),
        ("government.objective_evals", _mean(evals), "count", len(evals)),
        ("government.eval_us", opt_time / sum(evals) * 1e6 if evals and sum(evals) else 0.0,
         "us", sum(evals)),
        ("government.voluntary_s", _mean([dur(r) for r in vol]), "s", len(vol)),
        ("government.objective_s", _mean([dur(r) for r in obj]), "s", len(obj)),
        ("preference.map_s", _mean([dur(r) for r in pmap]), "s", len(pmap)),
        ("preference.crossings", _mean([r[7] for r in pmap]), "count", len(pmap)),
        ("montecarlo.simulate_s", _mean([dur(r) for r in mc]), "s", len(mc)),
        ("montecarlo.ns_per_path_step", mc_time / path_steps * 1e9 if path_steps else 0.0,
         "ns", path_steps),
        ("montecarlo.clipped_paths", sum(r[7][1] for r in mc), "count", len(mc)),
        ("cli.self_s", sum(self_time(r) for r in cli) / n, "s", len(cli)),
        ("cache.grid.hit_ratio", g_ratio, "ratio", g_base),
        ("cache.validate.hit_ratio", v_ratio, "ratio", v_base),
        ("trace.ops_per_s_gap", gap, "ratio", traced_ops),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    bases = {name: base for name, _, _, base in rows}
    return metrics, bases
