"""Fold a profiled pass into per-layer self time and call counts.

Self time of a function is its cumulative time minus the part its callees
cover — ``tottime`` in pstats. Python functions belong to the layer of
their module (:data:`benchmarks.e2e.spec.LAYERS`). A C function has no
module of its own that says whose work it was doing, so its self time is
assigned to the layer of each caller, split by the per-caller ``tottime``
the pstats callers table keeps.
"""

from benchmarks.e2e.spec import LAYERS

OTHER = "other"
_MARKER = "/repro/"


def layer_of(filename):
    """Layer owning a source file; ``other`` outside ``repro`` or unlisted."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return OTHER
    relative = filename[at + len(_MARKER):]
    for layer, fragments in LAYERS.items():
        for fragment in fragments:
            if relative == fragment or (
                    fragment.endswith("/") and relative.startswith(fragment)):
                return layer
    return OTHER


def _is_c_function(func):
    filename, line, _name = func
    return filename == "~" and line == 0


def fold(stats):
    """pstats.Stats -> {layer: {"self_s", "calls", "top"}}.

    ``calls`` counts calls of the layer's Python functions only, so it is
    an exact, interpreter-independent count; ``top`` is the layer's twenty
    costliest functions by self time.
    """
    folded = {layer: {"self_s": 0.0, "calls": 0, "functions": []}
              for layer in list(LAYERS) + [OTHER]}
    for func, (_cc, calls, self_s, cumulative_s, callers) in stats.stats.items():
        if _is_c_function(func):
            attributed = 0.0
            for caller, (_ccc, _cnc, caller_self_s, _cct) in callers.items():
                share = folded[layer_of(caller[0])]
                share["self_s"] += caller_self_s
                attributed += caller_self_s
            # Called from outside the profile (e.g. the profiler's own
            # disable): nobody's layer.
            folded[OTHER]["self_s"] += self_s - attributed
            continue
        entry = folded[layer_of(func[0])]
        entry["self_s"] += self_s
        entry["calls"] += calls
        entry["functions"].append((self_s, cumulative_s, calls, func))
    for entry in folded.values():
        entry["top"] = [
            {"function": "{}:{}:{}".format(*func), "self_s": self_s,
             "cumulative_s": cumulative_s, "calls": calls}
            for self_s, cumulative_s, calls, func
            in sorted(entry.pop("functions"), reverse=True)[:20]]
    return folded


def layer_metrics(folded, events_executed):
    """``L.self_share`` / ``L.calls_per_event`` / ``other.self_share``."""
    total = sum(entry["self_s"] for entry in folded.values())
    metrics = {}
    for layer in LAYERS:
        entry = folded[layer]
        metrics[layer + ".self_share"] = entry["self_s"] / total
        metrics[layer + ".calls_per_event"] = entry["calls"] / events_executed
    metrics[OTHER + ".self_share"] = folded[OTHER]["self_s"] / total
    return metrics
