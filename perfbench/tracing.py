"""Outside-in layer tracing of the ``lme`` package.

Each traced public function is wrapped, and the wrapper is bound in place
of the original in every ``lme`` module namespace that holds it, so calls
between modules go through the wrapper without any change to ``src/``.
A wrapper records one span (name, start, end, parent span, operation id)
in memory; the spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer name -> (module, function)
TARGETS = {
    "matcore.eig_decompose": ("lme.matcore", "eig_decompose"),
    "matcore.cluster_values": ("lme.matcore", "cluster_values"),
    "simdiag.validate_family": ("lme.simdiag", "validate_family"),
    "simdiag.simultaneous_diagonalizer": ("lme.simdiag", "simultaneous_diagonalizer"),
    "simdiag.induced_pair_without_diagonalizer": ("lme.simdiag", "induced_pair_without_diagonalizer"),
    "simdiag.match_induced_sequences": ("lme.simdiag", "match_induced_sequences"),
    "equations.solve": ("lme.equations", "solve"),
    "equations.check_consistent": ("lme.equations", "check_consistent"),
    "equations.relevant_matrix": ("lme.equations", "relevant_matrix"),
    "equations.x_hat": ("lme.equations", "x_hat"),
    "geninv.drazin": ("lme.geninv", "drazin"),
    "oracle.vectorize": ("lme.oracle", "vectorize"),
    "oracle.oracle_solve": ("lme.oracle", "oracle_solve"),
    "oracle.compare": ("lme.oracle", "compare"),
    "cli.load_matrix": ("lme.cli", "load_matrix"),
    "cli.matrix_payload": ("lme.cli", "matrix_payload"),
    "cli.main": ("lme.cli", "main"),
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op_id = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every target in each ``lme`` namespace that holds it."""
        originals = {name: getattr(importlib.import_module(module), attr)
                     for name, (module, attr) in TARGETS.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lme" or key.startswith("lme."))]
        for name, original in originals.items():
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, inclusive seconds (outermost span of that
        name only, so recursion is not counted twice) and self seconds
        (duration minus the time of its direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TARGETS}
        for i, span in enumerate(self.spans):
            entry = totals[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not self._has_ancestor(span, span[NAME]):
                entry["s"] += duration
        return totals

    def _has_ancestor(self, span, name) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
