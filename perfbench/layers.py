"""Per-layer timings and counters, taken from the benchmark's side.

``LayerTrace`` wraps public functions of the program's modules while it is
installed: every module of the package whose namespace binds the original
function gets the wrapper, so calls made through ``from .x import f`` are
seen too.  The program itself is not changed.  For each function it keeps
the call count, the total time and the self time (total minus the time of
traced functions it called directly); a recursive function counts only its
outermost call.  A few functions also record what their result says (pairs
listed, splits found, samples drawn) and how their cost depends on m.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "cli": ("build_parser",),
    "serialize": ("metric_from_dict", "dumps_numeric"),
    "metrics": ("eigendecompose",),
    "coeff": ("sparsest_unit_vector", "is_super_adapted"),
    "classify": ("classify_natred", "classify_go"),
    "trees": ("enumerate_partition_pairs",),
    "reduce": ("decompose", "check_split"),
    "oracle": ("go_oracle", "natred_certificate_check", "brackets_property_check"),
    "liealg": ("product_bracket", "default_backend"),
}

# points of the curves over m; a point reads 0 where a workload never reaches it
CURVES = {
    "metrics.eigendecompose": range(3, 13),
    "reduce.check_split": range(3, 8),
    "oracle.go_oracle": range(3, 7),
}

PACKAGE = "ledger_obata"


class Stat:
    __slots__ = ("calls", "total", "self_time", "count", "by_m")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0  # what the result says: pairs, splits found, samples
        self.by_m = defaultdict(lambda: [0, 0.0, 0])  # m -> [calls, seconds, count]


def _result_count(key, result) -> int:
    if key == "trees.enumerate_partition_pairs":
        return len(result)
    if key == "reduce.check_split":
        return int(result.ok)
    if key.startswith("oracle."):
        return result.samples
    return 0


def _metric_m(args):
    first = args[0] if args else None
    return getattr(first, "m", None)


class LayerTrace:
    """Install with ``install()``, read with ``metrics()``, remove with ``remove()``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = defaultdict(Stat)

    def _wrap(self, key: str, fn):
        stack = self._stack
        active = self._active
        want_m = key in CURVES

        def traced(*args, **kwargs):
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active.discard(key)
                if stack:
                    stack[-1][0] += elapsed
            stat = self.stats[key]
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed - children[0]
            count = _result_count(key, result)
            stat.count += count
            if want_m:
                point = stat.by_m[_metric_m(args)]
                point[0] += 1
                point[1] += elapsed
                point[2] += count
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation figures over ``ops`` operations, as {name: (value, unit)}."""
        s = self.stats

        def ms(key):
            return 1e3 * s[key].total / ops, "ms"

        def calls(key):
            return s[key].calls / ops, "count"

        def us_per_sample(key):
            return _ratio(1e6 * s[key].total, s[key].count), "us"

        split = s["reduce.check_split"]
        go_self_ms = 1e3 * s["classify.classify_go"].self_time / ops
        out = {
            "cli.build_parser_ms": ms("cli.build_parser"),
            "serialize.metric_from_dict_ms": ms("serialize.metric_from_dict"),
            "serialize.dumps_numeric_ms": ms("serialize.dumps_numeric"),
            "metrics.eigendecompose_calls": calls("metrics.eigendecompose"),
            "metrics.eigendecompose_ms": ms("metrics.eigendecompose"),
            "coeff.sparsest_unit_vector_calls": calls("coeff.sparsest_unit_vector"),
            "coeff.sparsest_unit_vector_ms": ms("coeff.sparsest_unit_vector"),
            "coeff.is_super_adapted_ms": ms("coeff.is_super_adapted"),
            "classify.classify_natred_ms": ms("classify.classify_natred"),
            "classify.classify_go_self_ms": (go_self_ms, "ms"),
            "trees.enumerate_partition_pairs_ms": ms("trees.enumerate_partition_pairs"),
            "trees.pairs_listed": (s["trees.enumerate_partition_pairs"].count / ops, "count"),
            "reduce.decompose_ms": ms("reduce.decompose"),
            "reduce.check_split_calls": calls("reduce.check_split"),
            "reduce.check_split_ms": ms("reduce.check_split"),
            "reduce.split_hit_ratio": (_ratio(split.count, split.calls), "ratio"),
            "oracle.assess_rounds": calls("oracle.go_oracle"),
            "oracle.go_oracle_samples": (s["oracle.go_oracle"].count / ops, "count"),
            "oracle.go_oracle_us_per_sample": us_per_sample("oracle.go_oracle"),
            "oracle.natred_certificate_check_us_per_sample":
                us_per_sample("oracle.natred_certificate_check"),
            "oracle.brackets_property_check_us_per_sample":
                us_per_sample("oracle.brackets_property_check"),
            "liealg.product_bracket_calls": calls("liealg.product_bracket"),
            "liealg.default_backend_ms": ms("liealg.default_backend"),
        }
        out.update(self.curves())
        return out

    def curves(self) -> dict[str, tuple[float, str]]:
        """Cost over m: ms per eigendecompose call, us per check_split call,
        us per oracle sample; 0 where the workload never reaches that m."""
        out = {}
        for key, m_range in CURVES.items():
            for m in m_range:
                calls, seconds, count = self.stats[key].by_m.get(m, (0, 0.0, 0))
                if key == "metrics.eigendecompose":
                    out[f"{key}_ms_per_call.m{m}"] = (_ratio(1e3 * seconds, calls), "ms")
                elif key == "reduce.check_split":
                    out[f"{key}_us_per_call.m{m}"] = (_ratio(1e6 * seconds, calls), "us")
                else:
                    out[f"{key}_us_per_sample.m{m}"] = (_ratio(1e6 * seconds, count), "us")
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
