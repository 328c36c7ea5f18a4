"""In-memory spans around the public functions of each symquant layer.

Spans are recorded by wrapping module and class attributes from outside the
package, so the program under test is unchanged.  A span is
``[name, start, end, parent index]``; the parent is the span that was open
when this one started.  Times are ``time.perf_counter()`` seconds.
"""

import functools
import resource
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects the spans of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict = {}
        self.models: list = []
        self._open: list[int] = []

    def span(self, name: str, start: float, end: float):
        """Record a span measured elsewhere (it has no parent or children)."""
        self.spans.append([name, start, end, None])

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` by a wrapper that records one span per
        call; ``on_return(result)`` sees each result."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, traced)

    def install(self, symquant_cli):
        """Wrap every layer entry point the CLI reaches."""
        from symquant import abstraction, refinement, synthesis

        self.wrap(symquant_cli, "parse_config", "config.parse")
        self.wrap(abstraction, "build_abstraction", "abstraction.build",
                  on_return=self.models.append)
        self.wrap(abstraction.SymbolicModel, "materialize",
                  "abstraction.materialize")
        self.wrap(abstraction, "save_abstraction", "abstraction.save")
        self._wrap_load(abstraction)
        self.wrap(refinement, "abstract_safe_set", "refinement.safe_set")
        self.wrap(refinement, "check_feedback_refinement", "refinement.verify")
        self.wrap(synthesis, "safety_fixpoint", "synthesis.fixpoint")
        self.wrap(synthesis, "plan_reach", "synthesis.plan")
        self.wrap(synthesis, "simulate_closed_loop", "synthesis.simulate")
        for module in (abstraction, refinement, synthesis):
            for fn in ("successor", "successor_many"):
                if hasattr(module, fn):
                    self.wrap(module, fn, "dynamics." + fn)

    def _wrap_load(self, abstraction):
        # The load's memory cost: how far it raises the process's peak RSS.
        inner = abstraction.load_abstraction

        def measured(*args, **kwargs):
            before = _maxrss_mb()
            model = inner(*args, **kwargs)
            grown = _maxrss_mb() - before
            self.stats["load_rss_mb"] = max(self.stats.get("load_rss_mb", 0.0),
                                            grown)
            return model

        functools.update_wrapper(measured, inner)
        abstraction.load_abstraction = measured
        self.wrap(abstraction, "load_abstraction", "abstraction.load")

    def model_stats(self) -> dict:
        """Counts of the last model built, through public queries; on a
        lazy model these would expand it, so call it after an eager build."""
        if not self.models:
            return {}
        model = self.models[-1]
        enabled = [len(model.enabled_inputs(cell)) for cell in model.cells]
        return {
            "states": model.n_states,
            "inputs": model.n_inputs,
            "enabled_pairs": sum(enabled),
            "blocking_cells": sum(1 for k in enabled if k == 0),
            "transitions": model.transition_count(),
        }
