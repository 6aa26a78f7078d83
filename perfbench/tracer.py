"""In-memory span recording around the program's public callables.

The traced run patches each callable listed in :data:`PATCHES` *where
its caller looks it up* (a module global such as
``repro.serving.engine.resolve_rooms_visibility``, or a method on its
class) with a wrapper that records one span: name, start, end, parent
and request id.  Nothing inside ``src/`` changes; the patches are
removed when the trace ends.

From the spans the recorder derives per-layer self time (a span's
duration minus the part its child spans cover) and a stage table whose
rows add up to the traced wall time, with an explicit ``unattributed``
row for time no span covers.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

#: (layer span name, dotted owner, attribute).  The owner is a module
#: or a class; the attribute is looked up on it at patch time, so a
#: rename in ``src/`` fails the traced run instead of silently zeroing
#: a layer.
PATCHES = (
    ("datasets.generate_room", "repro.datasets", "generate_room"),
    ("datasets.generate_room", "repro.serving.workload", "generate_room"),
    ("serving.workload.schedule",
     "repro.serving.workload.WorkloadGenerator", "schedule"),
    ("geometry.convert_rooms",
     "repro.geometry.batched.BatchedOcclusionConverter", "convert_rooms"),
    ("geometry.prebuild_dogs",
     "repro.datasets.base.ConferenceRoom", "prebuild_dogs"),
    ("geometry.visibility", "repro.serving.engine",
     "resolve_rooms_visibility"),
    ("geometry.visibility", "repro.core.evaluation",
     "resolve_episode_visibility"),
    ("core.scene.frames", "repro.serving.engine", "build_room_frames"),
    ("core.scene.frames", "repro.core.scene", "build_episode_frames"),
    ("core.utility.step_utility", "repro.serving.session", "step_utility"),
    ("core.utility.step_utility", "repro.core.evaluation", "step_utility"),
    ("core.evaluation.evaluate_targets", "repro.core.evaluation",
     "evaluate_targets"),
    ("core.evaluation.evaluate_episode", "repro.core.evaluation",
     "evaluate_episode"),
    ("models.poshgnn.recommend", "repro.models.poshgnn.model.POSHGNN",
     "recommend"),
    ("models.poshgnn.mia", "repro.models.poshgnn.mia.MIA", "process"),
    ("models.poshgnn.pdr", "repro.models.poshgnn.pdr.PDR", "forward"),
    ("models.poshgnn.lwp", "repro.models.poshgnn.lwp.LWP", "forward"),
    ("models.baselines.recommend",
     "repro.models.baselines.simple.RandomRecommender", "recommend"),
    ("models.baselines.recommend",
     "repro.models.baselines.simple.NearestRecommender", "recommend"),
    ("models.baselines.recommend",
     "repro.models.baselines.mvagc.MvAGCRecommender", "recommend"),
    ("nn.backward", "repro.nn.tensor.Tensor", "backward"),
    ("nn.optim_step", "repro.nn.optim.Adam", "step"),
    ("training.fit", "repro.models.poshgnn.model.POSHGNN", "fit"),
    ("training.train_episode",
     "repro.models.poshgnn.trainer.POSHGNNTrainer", "train_episode"),
    ("serving.engine.submit", "repro.serving.engine.SessionEngine",
     "submit"),
    ("serving.engine.pump", "repro.serving.engine.SessionEngine", "pump"),
    ("serving.engine.drain", "repro.serving.engine.SessionEngine",
     "drain"),
    ("serving.session.churn", "repro.serving.engine.SessionEngine",
     "churn_session"),
    ("serving.session.churn", "repro.serving.engine.SessionEngine",
     "merge_sessions"),
    ("serving.session.churn", "repro.serving.engine.SessionEngine",
     "split_session"),
    ("serving.session.open_close", "repro.serving.engine.SessionEngine",
     "open_session"),
    ("serving.session.open_close", "repro.serving.engine.SessionEngine",
     "close_session"),
)

#: Span name the load generator records while it sleeps until the next
#: frame is due (open-loop workloads only).
IDLE = "loadgen.idle"

#: Spans that only set-up calls; a traced run looks for them over the
#: whole run instead of only its traced half.
SETUP_SPANS = ("datasets.generate_room", "serving.workload.schedule")


def _resolve(dotted: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module ``a.b``."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


@dataclass
class Span:
    """One recorded call: ``parent`` is an index into the span list."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int


class SpanRecorder:
    """Collects spans in memory while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.edges = 0
        self.pairs = 0
        self.rooms = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every callable in :data:`PATCHES`; raise if one is gone."""
        if self._undo:
            return
        for name, owner_path, attribute in PATCHES:
            owner = _resolve(owner_path)
            if attribute not in vars(owner):
                raise RuntimeError(
                    f"traced callable {owner_path}.{attribute} is missing; "
                    f"update perfbench/tracer.py PATCHES")
            original = vars(owner)[attribute]
            setattr(owner, attribute, self._wrap(name, original))
            self._undo.append((owner, attribute, original))

    def reset_counts(self) -> None:
        """Zero the geometry counters (at the start of the traced half)."""
        self.edges = self.pairs = self.rooms = 0

    def remove(self) -> None:
        """Restore every patched callable."""
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _wrap(self, name: str, original):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent,
                        recorder.request)
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._stack.pop()
                span.end = time.perf_counter()
            if name == "geometry.convert_rooms":
                recorder._count_edges(result)
            return result

        return traced

    def _count_edges(self, graphs) -> None:
        adjacency = graphs.adjacency
        rooms, users = adjacency.shape[0], adjacency.shape[1]
        self.rooms += rooms
        self.edges += int(adjacency.sum()) // 2
        self.pairs += rooms * users * (users - 1) // 2

    def record(self, name: str, start: float, end: float) -> None:
        """Add a benchmark-side span (such as :data:`IDLE`) directly."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.request))

    # ------------------------------------------------------------------
    def calls(self, name: str, since: float = float("-inf")) -> list:
        """Spans called ``name`` that started at or after ``since``."""
        return [s for s in self.spans if s.name == name and s.start >= since]

    def stage_table(self, start: float, end: float) -> list:
        """Rows ``(stage, seconds, share)`` adding up to ``end - start``.

        Only top-level spans inside the window and their descendants
        count; the remainder is the ``unattributed`` row.
        """
        wall = end - start
        inside = [False] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span.parent is None:
                inside[index] = span.start >= start and span.end <= end
            else:
                inside[index] = inside[span.parent]
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span.parent is not None and inside[index]:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if inside[index]:
                totals[span.name] = totals.get(span.name, 0.0) + (
                    span.end - span.start - child_time[index])
        rows = sorted(totals.items(), key=lambda item: -item[1])
        rows.append(("unattributed", wall - sum(totals.values())))
        return [(stage, seconds, seconds / wall if wall > 0 else 0.0)
                for stage, seconds in rows]
