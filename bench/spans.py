"""Outside-in layer trace around contana's public layer functions.

``Tracer.install`` replaces each traced function, in every loaded contana
module that holds a reference to it, with a wrapper; ``uninstall`` puts the
originals back, so untraced rounds run the unmodified program.  Span
functions record (name, start, end, parent span, job id) plus the few
argument facts the derived counts need; counted functions (the scalar
helpers called millions of times) only bump a counter.  Spans stay in
memory and are summarised, or written as JSON lines, after the run, so no
derived count is computed inside a span.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SPANNED = {
    "function_model": ("sample", "parse_function"),
    "convexity": ("detect_partition", "refine_to_monotone",
                  "check_gsigma_monotone"),
    "continuity": ("modulus_on_grid", "ac_certificate", "verify_certificate",
                   "worst_ac_sum_oracle"),
    "report_cli": ("main", "analyze"),
}
COUNTED = {"function_model": ("evaluate",), "continuity": ("ac_sum",)}

#: modulus_on_grid calls above this many points count as large grids
LARGE_GRID = 20000

CERTIFICATE = "continuity.ac_certificate"
ORACLE = "continuity.worst_ac_sum_oracle"


def _grid_size(bound, result):
    return len(bound.arguments["grid"])


def _sample_info(bound, result):
    return len(result), bound.arguments["window"]


def _oracle_info(bound, result):
    a = bound.arguments
    return a["grid"], a["delta"], a["max_intervals"], result.best_sum


_INFO = {
    "function_model.sample": _sample_info,
    "convexity.detect_partition": _grid_size,
    "continuity.modulus_on_grid": _grid_size,
    "continuity.worst_ac_sum_oracle": _oracle_info,
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, job, info]
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patched = []

    def install(self) -> None:
        import contana.report_cli  # noqa: F401  (loads every layer module)
        for layer, names in SPANNED.items():
            module = sys.modules[f"contana.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._patch(original, self._spanned(f"{layer}.{name}", original))
        for layer, names in COUNTED.items():
            module = sys.modules[f"contana.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._patch(original, self._counted(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("contana"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _spanned(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job,
                      None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[5] = info(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def oracle_units(grid, delta) -> int:
    """The oracle's unit budget for (grid, delta), as its docstring defines
    it: lengths are whole grid units and the total stays below delta."""
    xs = grid.abscissae
    m = len(xs)
    h = (xs[-1] - xs[0]) / (m - 1)
    return min(int(math.floor(float(delta) / float(h) - 1.0 + 1e-9)), m - 1)


def summarize(tracer: Tracer, rounds: int):
    """(per-layer figures per round, total seconds inside top-level spans)."""
    from checks import oracle_bounds

    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    by_name = defaultdict(list)
    for i, (name, start, end, _, _, info) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        by_name[name].append((i, info))

    # sample points inside each ac_certificate call, and the points of the
    # last grid sampled for each piece in that call
    cert_points, last_grid = 0, {}
    for i, (points, window) in by_name["function_model.sample"]:
        parent = spans[i][3]
        while parent is not None and spans[parent][0] != CERTIFICATE:
            parent = spans[parent][3]
        if parent is not None:
            cert_points += points
            last_grid[(parent, window)] = points
    cert_useful = sum(last_grid.values())

    states, tight = 0, 0
    for _, (grid, delta, kmax, best_sum) in by_name[ORACLE]:
        m = len(grid)
        units = oracle_units(grid, delta)
        if units >= 1:
            states += 3 * m * (units + 1) * (min(kmax, units, m - 1) + 1)
        _, bound, _ = oracle_bounds(np.asarray(grid.values, dtype=float), units)
        tight += math.isclose(best_sum, bound, rel_tol=1e-9, abs_tol=1e-12)

    def share(num, den):
        return num / den if den else 0.0

    n_oracle = calls["continuity.worst_ac_sum_oracle"]
    n_modulus = calls["continuity.modulus_on_grid"]
    large = sum(1 for _, size in by_name["continuity.modulus_on_grid"]
                if size > LARGE_GRID)
    per_round = {
        "continuity.ac_certificate.calls": calls["continuity.ac_certificate"],
        "continuity.ac_certificate.self_s": self_s["continuity.ac_certificate"],
        "continuity.ac_certificate.points_sampled": cert_points,
        "continuity.worst_ac_sum_oracle.calls": n_oracle,
        "continuity.worst_ac_sum_oracle.self_s":
            self_s["continuity.worst_ac_sum_oracle"],
        "continuity.worst_ac_sum_oracle.states": states,
        "continuity.modulus_on_grid.calls": n_modulus,
        "continuity.modulus_on_grid.self_s": self_s["continuity.modulus_on_grid"],
        "continuity.verify_certificate.self_s":
            self_s["continuity.verify_certificate"],
        "continuity.ac_sum.calls": tracer.counts["continuity.ac_sum"],
        "function_model.sample.calls": calls["function_model.sample"],
        "function_model.sample.self_s": self_s["function_model.sample"],
        "function_model.sample.points":
            sum(info[0] for _, info in by_name["function_model.sample"]),
        "function_model.evaluate.calls": tracer.counts["function_model.evaluate"],
        "function_model.parse_function.self_s":
            self_s["function_model.parse_function"],
        "convexity.detect_partition.calls": calls["convexity.detect_partition"],
        "convexity.detect_partition.self_s": self_s["convexity.detect_partition"],
        "convexity.detect_partition.points":
            sum(size for _, size in by_name["convexity.detect_partition"]),
        "convexity.refine_to_monotone.self_s":
            self_s["convexity.refine_to_monotone"],
        "convexity.check_gsigma_monotone.self_s":
            self_s["convexity.check_gsigma_monotone"],
        "report_cli.main.self_s": self_s["report_cli.main"],
        "report_cli.analyze.self_s": self_s["report_cli.analyze"],
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["continuity.ac_certificate.useful_ratio"] = share(cert_useful, cert_points)
    out["continuity.worst_ac_sum_oracle.bound_tight_share"] = share(tight, n_oracle)
    out["continuity.modulus_on_grid.large_grid_share"] = share(large, n_modulus)
    spanned = sum(end - start for _, start, end, parent, _, _ in spans
                  if parent is None)
    return out, spanned
