"""Spans around absaudit's module entry functions, installed from outside.

`Tracer.install` replaces each entry function listed in `ENTRY_POINTS` by a
timing wrapper at every place the function is bound: its own module, the
package namespace, and every absaudit module that imported it by name.  Calls
between entry functions (cli.main -> audit_abstraction -> audit_functor ->
hom_set) therefore nest as parent and child spans.  Per-element helpers
(`compose`, `identity`, `Morphism`, row helpers) get no span: wrapping them
would cost more than the work they do.

Each span records its name, start, end, self time (its duration minus that
of its child spans), parent span and job.  Counts are computed from the
arguments and results at the span boundary only, so they do not depend on the
machine or on timing.
"""

from __future__ import annotations

import sys
import time

ENTRY_POINTS = {
    "textfmt": ("parse_document", "parse_path", "emit_document"),
    "scm": ("validate_scm", "joint_distribution", "marginal", "intervene",
            "mechanism_kernel"),
    "freecat": ("hom_set",),
    "abstraction": ("validate_abstraction", "pushforward"),
    "audit": ("audit_abstraction", "audit_node_map", "audit_functor",
              "audit_outcome_map"),
    "taxonomy": ("detect_types", "structural_matrix", "distributional_matrix"),
    "cli": ("main", "_dist_rows"),
    "dot": ("model_dot", "abstraction_dot"),
}


def _joint_counts(args, result):
    dense = 1
    for u in args[0].exogenous:
        dense *= len(u.domain)
    return {"dense_assignments": dense, "support_rows": len(args[0].exo_table)}


def _main_counts(args, result):
    return {"exit_nonzero": int(result not in (0, None))}


# Work counts per span, from the arguments and the result at the boundary.
COUNTERS = {
    "freecat.hom_set": lambda a, r: {"morphisms_out": len(r)},
    "audit.audit_functor": lambda a, r: {"edge_entries": len(a[0].structure.edge_map or ())},
    "scm.joint_distribution": _joint_counts,
    "abstraction.pushforward": lambda a, r: {"support_in": len(a[1].probs),
                                             "support_out": len(r.probs)},
    "audit.audit_outcome_map": lambda a, r: {"rows_in": len(a[0].rows)},
    "textfmt.parse_document": lambda a, r: {"bytes_in": len(a[0].encode("utf-8"))},
    "textfmt.emit_document": lambda a, r: {"bytes_out": len(r.encode("utf-8"))},
    "cli.main": _main_counts,
}


class Tracer:
    """In-memory span recorder; `install` and `uninstall` patch absaudit."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, self seconds, parent, job]
        self.counts: dict[str, dict[str, int]] = {}  # calls and work counts per name
        self._stack: list[int] = []
        self._child: list[float] = []
        self.job = -1

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "absaudit" or name.startswith("absaudit."))]
        for short, funcs in ENTRY_POINTS.items():
            home = sys.modules[f"absaudit.{short}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{short}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, clock(), 0.0, 0.0, parent, self.job])
            self._stack.append(index)
            self._child.append(0.0)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                span = self.spans[index]
                span[2] = end
                self._stack.pop()
                duration = end - span[1]
                child = self._child.pop()
                if self._child:
                    self._child[-1] += duration
                span[3] = duration - child
                entry = self.counts.setdefault(name, {"calls": 0})
                entry["calls"] += 1
                if counter is not None and exc is None:
                    counts = counter(args, result)
                elif counter is not None and isinstance(exc, SystemExit):
                    counts = counter(args, exc.code)  # argparse usage errors exit this way
                else:
                    counts = {}
                for key, value in counts.items():
                    entry[key] = entry.get(key, 0) + value

        return traced
