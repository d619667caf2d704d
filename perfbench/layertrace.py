"""Spans and counts around the engine's public functions, for traced runs.

The tracer wraps each function in TRACED at every place it is bound: the
defining module's attribute, every ``from .x import f`` copy in the other
``nekrasov`` modules, and module-level tables such as ``cli._CHECKS``.
A wrapper records the call's inclusive time and its self time (inclusive
minus the full cost of traced calls made inside it, their bookkeeping
included), so a layer's self time is the sum of its functions' self
times and the tracer's own cost is left unattributed.  Calls that raise
are not recorded.

``restore`` puts every original binding back.  Only the benchmark's
traced passes import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, layer).  Layers are named after the engine's modules;
# the exact module is split into term construction and evaluation.
TRACED = (
    ("nekrasov.cli", "main", "cli"),
    ("nekrasov.verify", "check_main", "verify"),
    ("nekrasov.verify", "check_factorization", "verify"),
    ("nekrasov.verify", "check_symmetry", "verify"),
    ("nekrasov.verify", "check_recursion_must", "verify"),
    ("nekrasov.verify", "union_pole_forms", "verify"),
    ("nekrasov.verify", "sample_point_with_stats", "verify"),
    ("nekrasov.series", "series_zx0", "series"),
    ("nekrasov.series", "series_zx1", "series"),
    ("nekrasov.series", "series_zp2", "series"),
    ("nekrasov.series", "series_zx1_factorized", "series"),
    ("nekrasov.series", "series_mul", "series"),
    ("nekrasov.series", "series_prefactor", "series"),
    ("nekrasov.localization", "term_p2", "localization"),
    ("nekrasov.localization", "term_x0", "localization"),
    ("nekrasov.localization", "term_x1", "localization"),
    ("nekrasov.localization", "ell_factor", "localization"),
    ("nekrasov.localization", "euler_class", "localization"),
    ("nekrasov.localization", "matter_euler", "localization"),
    ("nekrasov.characters", "char_v_p2", "characters"),
    ("nekrasov.characters", "char_v_x0", "characters"),
    ("nekrasov.characters", "char_v_x1", "characters"),
    ("nekrasov.characters", "char_tangent_p2", "characters"),
    ("nekrasov.characters", "char_tangent_x0", "characters"),
    ("nekrasov.characters", "char_tangent_x1", "characters"),
    ("nekrasov.diagrams", "enum_fixed_points_x0", "diagrams"),
    ("nekrasov.diagrams", "enum_fixed_points_x1", "diagrams"),
    ("nekrasov.diagrams", "enum_kvectors", "diagrams"),
    ("nekrasov.exact", "factored_term", "exact.build"),
    ("nekrasov.exact", "term_mul", "exact.build"),
    ("nekrasov.exact", "term_pow", "exact.build"),
    ("nekrasov.exact", "term_substitute", "exact.build"),
    ("nekrasov.exact", "coeff_eval", "exact.eval"),
    ("nekrasov.exact", "term_eval", "exact.eval"),
)


def _series_terms(series) -> int:
    return sum(len(c) for c in series.coeffs.values())


class Tracer:
    """Per-function call counts and times, plus the counts of each layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._forms: set = set()
        self._form_ids: dict[int, object] = {}  # holds each form seen, so ids stay unique
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[dict, object, object]] = []
        self._wrappers: set[int] = set()

    # What each function's result adds to the layer counts.
    def _observe(self, name: str, args, result) -> None:
        counts = self.counts
        if name in ("enum_fixed_points_x0", "enum_fixed_points_x1"):
            counts["diagrams.fixed_points"] += len(result)
        elif name == "enum_kvectors":
            counts["diagrams.kvectors"] += len(result)
        elif name == "factored_term":
            counts["exact.factor_occurrences"] += len(result.factors)
            for form, _ in result.factors:
                if id(form) not in self._form_ids:
                    self._form_ids[id(form)] = form
                    self._forms.add(form)
        elif name == "coeff_eval":
            counts["exact.terms_evaluated"] += len(args[0])
        elif name == "term_eval":
            counts["exact.terms_evaluated"] += 1
        elif name.startswith("series_"):
            terms = _series_terms(result)
            counts["series.terms_built"] += terms
            if name == "series_mul":
                counts["series.mul_terms"] += terms
        elif name == "union_pole_forms":
            counts["verify.pole_forms"] += len(result)
        elif name == "sample_point_with_stats":
            counts["verify.resamples"] += result[1]
            counts["verify.draws"] += result[1] + 1

    def _wrap(self, qualname: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = clock()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            incl_s[qualname] += t1 - t0
            self_s[qualname] += (t1 - t0) - frame[0]
            calls[qualname] += 1
            observe(name, args, result)
            stack[-1][0] += clock() - t_enter
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def _namespaces(self):
        """Every module-level namespace of the engine, and the module-level
        dicts in them (dispatch tables bind functions too)."""
        for modname, module in list(sys.modules.items()):
            if modname != "nekrasov" and not modname.startswith("nekrasov."):
                continue
            ns = vars(module)
            yield ns
            for key, value in list(ns.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    yield value

    def install(self) -> None:
        originals = {}
        for modname, name, _layer in TRACED:
            fn = getattr(sys.modules[modname], name)
            originals[id(fn)] = self._wrap(f"{modname}.{name}", name, fn)
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, key, value))
                    ns[key] = wrapper

    def restore(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def restored(self) -> bool:
        """True when no engine namespace still binds one of our wrappers."""
        return not any(
            id(value) in self._wrappers
            for ns in self._namespaces()
            for value in ns.values()
        )

    def summary(self) -> dict:
        layer_of = {f"{m}.{n}": layer for m, n, layer in TRACED}
        layers = dict.fromkeys((layer for _, _, layer in TRACED), 0.0)
        for qualname, seconds in self.self_s.items():
            layers[layer_of[qualname]] += seconds
        counts = dict(self.counts)
        counts["exact.distinct_forms"] = len(self._forms)
        return {
            "layers": layers,
            "functions": {
                q: {"layer": layer_of[q], "calls": self.calls[q],
                    "self_s": self.self_s[q], "incl_s": self.incl_s[q]}
                for q in sorted(self.calls)
            },
            "counts": counts,
        }
