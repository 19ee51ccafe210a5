"""Span tracer that wraps public dgscert functions from outside the package.

``Tracer.install`` replaces each traced function in every loaded ``dgscert``
module that holds it, which covers the defining module and every
``from``-import site (``dgscert.certify.factor_integer``,
``dgscert.specinv.char_poly_mod_p``, ``dgscert.fpalg.is_prime`` ...), so no
call escapes.  Spans (name, start, end, parent) are kept in memory; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function) pairs, named as the per-layer metrics name them
TRACED = (
    ("zlinalg", "walk_matrix"),
    ("zlinalg", "determinant"),
    ("zlinalg", "smith_normal_form"),
    ("zlinalg", "factor_integer"),
    ("zlinalg", "is_prime"),
    ("fpalg", "char_poly_mod_p"),
    ("fpalg", "nullity_p"),
    ("fpalg", "nullspace_basis_p"),
    ("fpalg", "solve_mod_p"),
    ("fpalg", "poly_gcd"),
    ("fpalg", "sfp"),
    ("fpalg", "sqrt_poly"),
    ("specinv", "phi_report"),
    ("specinv", "restricted_char_poly"),
    ("specinv", "p_main_poly"),
    ("certify", "certify_dgs"),
)
FACTOR = "zlinalg.factor_integer"
# a repeated prime below the trial-division bound settles squarefreeness
TRIAL_LIMIT = 10**6


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # (span index, input bits, result) of every factor_integer call
        self.factor_calls: list[tuple[int, int, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, factor_calls = self.spans, self._stack, self.factor_calls
        is_factor = name == FACTOR

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if is_factor:
                factor_calls.append((idx, args[0].bit_length(), result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "dgscert" or key.startswith("dgscert.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"dgscert.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time of every traced function,
        plus the factor_integer work and waste counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self_s = {f"{m}.{f}": 0.0 for m, f in TRACED}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out: dict[str, tuple[float, str]] = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        partial = complete = in_bits = cofactor_bits = 0
        partial_s = settled_s = 0.0
        for idx, bits, result in self.factor_calls:
            _, start, end, _ = self.spans[idx]
            in_bits += bits
            if result.is_complete:
                complete += 1
            else:
                partial += 1
                partial_s += end - start
                cofactor_bits += result.cofactor.bit_length()
            if any(e >= 2 and p < TRIAL_LIMIT for p, e in result.prime_powers):
                settled_s += end - start
        n_calls = len(self.factor_calls)
        out[f"{FACTOR}.partial"] = (partial, "count")
        out[f"{FACTOR}.complete_ratio"] = (complete / n_calls if n_calls else 0.0, "ratio")
        out[f"{FACTOR}.partial_s"] = (partial_s, "s")
        out[f"{FACTOR}.settled_s"] = (settled_s, "s")
        out[f"{FACTOR}.in_bits"] = (in_bits, "bit")
        out[f"{FACTOR}.cofactor_bits"] = (cofactor_bits, "bit")
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
