"""The traced functions of each crtasep layer and their extra counts.

``queues`` and ``verify`` are left unmeasured on purpose: no open ROADMAP
item targets their speed.
"""

from __future__ import annotations

import importlib

from tracer import Target

PACKAGES = ("crtasep",)

# metric prefix -> (module, attribute path); bench/README.md gives the end-to-end
# metric and workload each one is predicted to move
TARGETS: dict[str, tuple[str, str]] = {
    "algebra.poly_gcd": ("crtasep.algebra.poly", "poly_gcd"),
    "algebra.poly_divexact": ("crtasep.algebra.poly", "poly_divexact"),
    "algebra.MultiPoly.mul": ("crtasep.algebra.poly", "MultiPoly.__mul__"),
    "algebra.RatFunc.add": ("crtasep.algebra.ratfunc", "RatFunc.__add__"),
    "algebra.RatFunc.mul": ("crtasep.algebra.ratfunc", "RatFunc.__mul__"),
    "algebra.QtxExpr.add": ("crtasep.algebra.qtx", "QtxExpr.__add__"),
    "algebra.QtxExpr.mul": ("crtasep.algebra.qtx", "QtxExpr.__mul__"),
    "combinatorics.enumerate_tableaux": ("crtasep.combinatorics", "enumerate_tableaux"),
    "combinatorics.row_reading": ("crtasep.combinatorics", "row_reading"),
    "combinatorics.disorder": ("crtasep.combinatorics", "disorder"),
    "combinatorics.recoils": ("crtasep.combinatorics", "recoils"),
    "combinatorics.partial_perms": ("crtasep.combinatorics", "partial_perms"),
    "weights.tab_qtx": ("crtasep.weights", "tab_qtx"),
    "weights.tab_t": ("crtasep.weights", "tab_t"),
    "weights.tab_qtx_eval": ("crtasep.weights", "tab_qtx_eval"),
    "weights.partition_function": ("crtasep.weights", "partition_function"),
    "oracles.steady_state": ("crtasep.oracles.markov", "steady_state"),
    "oracles.build_transition_matrix": ("crtasep.oracles.markov", "build_transition_matrix"),
    "oracles.trace_rec_eval": ("crtasep.oracles.recurrence", "trace_rec_eval"),
    "oracles.truncated_trace": ("crtasep.oracles.matrices", "truncated_trace"),
    "oracles.product_trace": ("crtasep.oracles.matrices", "product_trace"),
    "oracles.trace_by_recurrence": ("crtasep.oracles.recurrence", "trace_by_recurrence"),
}


def _max_into(key: str, value_of):
    def on_call(stats: dict, args: tuple, result) -> None:
        stats[key] = max(stats[key], value_of(args, result))

    return key, on_call


def _sum_into(key: str, value_of):
    def on_call(stats: dict, args: tuple, result) -> None:
        stats[key] += value_of(args, result)

    return key, on_call


def _cache_snapshot(cached, with_size: bool):
    def snapshot(stats: dict) -> None:
        info = cached.cache_info()
        stats["cache_hits"] = info.hits
        stats["cache_misses"] = info.misses
        if with_size:
            stats["cache_size"] = info.currsize

    return snapshot


def make_targets() -> list[Target]:
    """Fresh targets bound to the loaded crtasep modules."""
    from crtasep.oracles import recurrence
    from crtasep.weights import _partition_function_cached

    on_call = {
        "combinatorics.enumerate_tableaux": _sum_into("tableaux", lambda args, result: len(result)),
        "oracles.steady_state": _max_into("max_states", lambda args, result: args[0].size),
        "oracles.product_trace": _max_into("max_size", lambda args, result: args[4]),
    }
    snapshot = {
        "weights.partition_function": _cache_snapshot(_partition_function_cached, with_size=False),
        "oracles.trace_by_recurrence": lambda stats: stats.update(symbolic_cache_size=len(recurrence._SYMBOLIC_CACHE)),
    }
    targets = []
    for name, (module_name, path) in TARGETS.items():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else None
        original = vars(owner)[attr] if owner is not None else getattr(module, attr)
        if name == "algebra.poly_gcd":
            snapshot[name] = _cache_snapshot(original, with_size=True)
        key, call_hook = on_call.get(name, (None, None))
        stats = {key: 0} if key else {}
        targets.append(Target(name, owner, original, call_hook, snapshot.get(name), stats))
    return targets
