"""Layer spans recorded from outside the package.

`Tracer.install()` replaces each traced public function at every module
attribute of `apsk_shaper` that holds it (callers bind functions by name, so
`capacity.logsumexp_rows`, `sweeps.mi_quadrature` and
`storage.validate_constellation` are wrapped beside the defining module's
own attribute). A wrapper records a span: name, start, end, the span that
was open when it was called, and computed counts. Spans stay in memory until
the run ends. `uninstall()` puts every original back.

`layer_metrics()` turns the spans into the per-layer metrics listed in
PER_LAYER. `elements` counts are computed from argument sizes, not measured.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "apsk_shaper"
LOW_BAND_DB = 10.0
HIGH_BAND_DB = 20.0


def _snr_db(snr) -> float:
    value = getattr(snr, "snr", snr)
    return 10.0 * math.log10(float(value))


class _Probe:
    """Collects a span's computed counts around one call."""

    def start(self, fn, args, kwargs) -> dict:
        return {}

    def finish(self, fn, attrs, args, kwargs, result) -> None:
        pass


class _BlockProbe(_Probe):
    def start(self, fn, args, kwargs):
        block = args[0] if args else next(iter(kwargs.values()))
        # the kernel consumes its argument in place, so size it before the call
        return {"elements": int(block.size), "bytes": int(block.nbytes)}


class _CacheProbe(_Probe):
    def start(self, fn, args, kwargs):
        return {"hits_before": fn.cache_info().hits}

    def finish(self, fn, attrs, args, kwargs, result):
        attrs["hit"] = fn.cache_info().hits > attrs.pop("hits_before")


class _EstimatorProbe(_Probe):
    """MI estimators: computed elements, SNR band and peak traced temporaries."""

    def __init__(self, size_arg, squared):
        self.size_arg = size_arg
        self.squared = squared

    def start(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        m = int(bound.arguments["c"].M)
        size = int(bound.arguments[self.size_arg])
        elements = size * size * m * m if self.squared else size * m
        attrs = {"elements": elements, "snr_db": _snr_db(bound.arguments["snr"])}
        attrs["own_tracing"] = not tracemalloc.is_tracing()
        if attrs["own_tracing"]:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return attrs

    def finish(self, fn, attrs, args, kwargs, result):
        attrs["peak_tmp_bytes"] = tracemalloc.get_traced_memory()[1]
        if attrs.pop("own_tracing"):
            tracemalloc.stop()


class _WriteProbe(_Probe):
    def finish(self, fn, attrs, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        attrs["points"] = int(bound.arguments["c"].M)
        attrs["bytes"] = os.path.getsize(bound.arguments["path"])


class _ReadProbe(_Probe):
    def finish(self, fn, attrs, args, kwargs, result):
        attrs["points"] = int(result.M) if result is not None else 0


# (module, function, probe); the span name is "module.function"
TARGETS = (
    ("numerics", "logsumexp_rows", _BlockProbe()),
    ("numerics", "gauss_hermite_2d", _CacheProbe()),
    ("capacity", "mi_quadrature", _EstimatorProbe("order", squared=True)),
    ("capacity", "mi_monte_carlo", _EstimatorProbe("samples", squared=False)),
    ("sweeps", "evaluate_row", None),
    ("sweeps", "render_csv", None),
    ("storage", "write_constellation", _WriteProbe()),
    ("storage", "read_constellation", _ReadProbe()),
    ("constellations", "make_constellation", None),
    ("constellations", "validate_constellation", None),
    ("constellations", "min_distance", None),
    ("convergence", "power_audit", None),
    ("convergence", "cf_convergence_scan", None),
    ("convergence", "lemma_scan", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        # each span: [id, name, start, end, parent id or None, attrs]
        self.spans = []
        self.bindings = []  # (module name, attribute, original)
        self._stack = []

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = probe.start(fn, args, kwargs) if probe else {}
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, attrs]
            spans.append(span)
            stack.append(span[0])
            result = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if probe:
                    probe.finish(fn, attrs, args, kwargs, result)

        return wrapper

    def install(self):
        wrappers = {}
        for module_name, fn_name, probe in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            fn = getattr(module, fn_name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn, probe))
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.bindings.append((mod_name, attr, value))

    def uninstall(self):
        for mod_name, attr, original in reversed(self.bindings):
            setattr(sys.modules[mod_name], attr, original)
        self.bindings.clear()

    def span_records(self):
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], **s[5]}
            for s in self.spans
        ]


def _band(snr_db):
    if snr_db <= LOW_BAND_DB:
        return "snr_le10"
    if snr_db >= HIGH_BAND_DB:
        return "snr_ge20"
    return None


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_s) -> dict:
    """Per-layer metrics {name: (value, unit)} in PER_LAYER order."""
    values = _values(spans, overhead_s)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _values(spans, overhead_s) -> dict:
    by_id = {s[0]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_s[s[4]] += s[3] - s[2]
    calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    sums = defaultdict(int)
    band_s = defaultdict(float)  # mi_quadrature time per SNR band
    band_lse_s = defaultdict(float)  # logsumexp time under mi_quadrature, per band
    peak_tmp = defaultdict(int)
    for s in spans:
        sid, name, start, end, _, attrs = s
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        own[name] += dur - child_s[sid]
        for key in ("elements", "bytes", "points"):
            sums[name, key] += attrs.get(key, 0)
        sums[name, "hits"] += bool(attrs.get("hit"))
        peak_tmp[name] = max(peak_tmp[name], attrs.get("peak_tmp_bytes", 0))
        if name == "capacity.mi_quadrature":
            band_s[_band(attrs["snr_db"])] += dur
        if name == "numerics.logsumexp_rows":
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != "capacity.mi_quadrature":
                parent = by_id.get(parent[4])
            if parent is not None:
                band_lse_s[_band(parent[5]["snr_db"])] += dur

    lse, quad, mc = "numerics.logsumexp_rows", "capacity.mi_quadrature", "capacity.mi_monte_carlo"
    gh = "numerics.gauss_hermite_2d"
    write, read = "storage.write_constellation", "storage.read_constellation"
    return {
        f"{lse}.calls": calls[lse],
        f"{lse}.s": busy[lse],
        f"{lse}.elements": sums[lse, "elements"],
        f"{lse}.ns_per_element": _ratio(busy[lse] * 1e9, sums[lse, "elements"]),
        f"{lse}.mean_block_mb": _ratio(sums[lse, "bytes"] / 1e6, calls[lse]),
        f"{quad}.calls": calls[quad],
        f"{quad}.s": busy[quad],
        f"{quad}.self_s": own[quad],
        f"{quad}.elements": sums[quad, "elements"],
        f"{quad}.ns_per_element": _ratio(busy[quad] * 1e9, sums[quad, "elements"]),
        f"{quad}.peak_tmp_mb": peak_tmp[quad] / 1e6,
        f"{quad}.s.snr_le10": band_s["snr_le10"],
        f"{quad}.s.snr_ge20": band_s["snr_ge20"],
        f"{quad}.lse_share.snr_le10": _ratio(band_lse_s["snr_le10"], band_s["snr_le10"]),
        f"{quad}.lse_share.snr_ge20": _ratio(band_lse_s["snr_ge20"], band_s["snr_ge20"]),
        f"{mc}.calls": calls[mc],
        f"{mc}.s": busy[mc],
        f"{mc}.self_s": own[mc],
        f"{mc}.elements": sums[mc, "elements"],
        f"{mc}.peak_tmp_mb": peak_tmp[mc] / 1e6,
        f"{gh}.calls": calls[gh],
        f"{gh}.s": busy[gh],
        f"{gh}.hit_ratio": _ratio(sums[gh, "hits"], calls[gh]),
        "sweeps.evaluate_row.calls": calls["sweeps.evaluate_row"],
        "sweeps.evaluate_row.self_s": own["sweeps.evaluate_row"],
        "sweeps.render_csv.s": busy["sweeps.render_csv"],
        f"{write}.s": busy[write],
        f"{write}.bytes": sums[write, "bytes"],
        f"{write}.us_per_point": _ratio(busy[write] * 1e6, sums[write, "points"]),
        f"{read}.s": busy[read],
        f"{read}.us_per_point": _ratio(busy[read] * 1e6, sums[read, "points"]),
        "constellations.make_constellation.s": busy["constellations.make_constellation"],
        "constellations.validate_constellation.s": busy["constellations.validate_constellation"],
        "constellations.min_distance.s": busy["constellations.min_distance"],
        "convergence.power_audit.s": busy["convergence.power_audit"],
        "convergence.cf_convergence_scan.s": busy["convergence.cf_convergence_scan"],
        "convergence.lemma_scan.s": busy["convergence.lemma_scan"],
        "cli.main.s": busy["cli.main"],
        "trace.overhead_s": overhead_s,
    }


_UNITS = {
    "calls": "count",
    "elements": "count",
    "bytes": "bytes",
    "ns_per_element": "ns",
    "us_per_point": "us",
    "mean_block_mb": "MB",
    "peak_tmp_mb": "MB",
    "hit_ratio": "ratio",
}


def _unit(name):
    parts = name.split(".")
    if "lse_share" in parts:
        return "ratio"
    for part in reversed(parts):
        if part in _UNITS:
            return _UNITS[part]
    return "s"


# (metric name, unit) for every per-layer metric, in report order
PER_LAYER = tuple((name, _unit(name)) for name in _values([], 0.0))
