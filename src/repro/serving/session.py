"""Streaming room sessions: one live AFTER episode, frame by frame.

Offline evaluation (:func:`~repro.core.evaluation.evaluate_episode`)
replays a *finished* trajectory; a live videoconferencing room instead
delivers one position frame at a time, and the recommender's carried
state (LWP's ``h_{t-1}``/``r_{t-1}``, MIA's ``A_{t-1}``, the previous
visibility indicator) must persist across those arrivals.

:class:`RoomSession` is that carrier.  Each :meth:`step` runs the
serving engine's group step (:func:`~repro.serving.engine.step_sessions`)
with this one room: the batched kernels build the static occlusion
graph for the *current* positions only, assemble the frame and resolve
visibility around the recommender call, and the session accumulates
utility — each metric exactly as it is defined per step.  A streamed
room is **bit-identical** to :func:`evaluate_episode` on the same
trajectory — recommendations, utilities and carried state alike.
``tests/serving/`` pins that contract with a hypothesis property suite,
and ``tests/core/test_episode_oracle.py`` against the dense per-step
oracle.

Sessions also support mid-stream :meth:`suspend`/:meth:`~RoomSession.resume`
(handing a room to another engine without losing carried state) and
*shed*/*degraded* steps — the overload escape valves of
:class:`~repro.serving.engine.SessionEngine`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.evaluation import EpisodeResult
from ..core.problem import AfterProblem
from ..core.recommender import Recommender, checked_render_mask, \
    top_k_mask
from ..core.utility import StepUtility, UtilityAccumulator, step_utility
from ..mwis import solve_mwis_greedy

__all__ = ["SessionStep", "SessionSnapshot", "RoomSession",
           "RosterChange", "SessionMerge", "SessionSplit",
           "GreedyMWISFallback", "stream_episode"]


@dataclass
class RosterChange:
    """One membership mutation of a live room, fully self-contained.

    ``problem`` is the post-churn :class:`~repro.core.problem.AfterProblem`
    and ``keep`` maps every new-roster index to its old-roster index
    (``-1`` for a user who just joined), which is all
    :meth:`RoomSession.apply_churn` needs to project the carried state —
    no reference back to how the change was computed.  Self-containment
    matters operationally: a change can sit *queued* behind unprocessed
    steps in a :class:`~repro.serving.SessionEngine`, travel across a
    :meth:`~repro.serving.Fleet.migrate`, and still apply bit-identically.

    ``seed_visible``/``seed_rendered`` optionally pre-load the carried
    display state of *joining* users (new-width boolean arrays; only the
    ``keep < 0`` slots are read) — how a room merge hands the absorbed
    room's last display set over instead of pretending its users just
    appeared.
    """

    kind: str
    problem: AfterProblem
    keep: np.ndarray
    seed_visible: np.ndarray | None = None
    seed_rendered: np.ndarray | None = None

    def __post_init__(self):
        """Normalise the mapping and check it against the new problem."""
        self.keep = np.asarray(self.keep, dtype=np.int64)
        if self.keep.shape != (self.problem.num_users,):
            raise ValueError(
                f"keep maps {self.keep.shape} slots but the post-churn "
                f"roster has {self.problem.num_users} users")
        kept = self.keep[self.keep >= 0]
        if kept.size != np.unique(kept).size:
            raise ValueError("keep maps two new slots to one old user")


@dataclass
class SessionMerge:
    """Roster fusion spec for merging one room into another.

    ``problem`` is the merged instance; ``keep`` maps merged-roster
    indices to the *primary* session's indices and ``keep_secondary``
    to the absorbed session's (``-1`` where a user is not from that
    side).  The engines turn this into a :class:`RosterChange` whose
    seeds carry the secondary's last display state.
    """

    problem: AfterProblem
    keep: np.ndarray
    keep_secondary: np.ndarray

    def __post_init__(self):
        """Normalise both mappings to int64 arrays."""
        self.keep = np.asarray(self.keep, dtype=np.int64)
        self.keep_secondary = np.asarray(self.keep_secondary,
                                         dtype=np.int64)
        if self.keep.shape != self.keep_secondary.shape:
            raise ValueError("keep/keep_secondary length mismatch")


@dataclass
class SessionSplit:
    """Partition spec for splitting one live room into two.

    ``retain`` churns the continuing session down to the users who
    stay; ``problem``/``keep``/``session_id`` describe the spun-off
    room — ``keep`` maps spawn-roster indices back into the source
    session (seeding the spawned room's carried display state), and the
    spawn opens with a fresh recommender at the source's step clock.
    """

    retain: RosterChange
    problem: AfterProblem
    keep: np.ndarray
    session_id: str

    def __post_init__(self):
        """Normalise the spawn mapping."""
        self.keep = np.asarray(self.keep, dtype=np.int64)
        if self.keep.shape != (self.problem.num_users,):
            raise ValueError("spawn keep length mismatch")


@dataclass
class SessionStep:
    """Outcome of one streamed step.

    ``utility`` and ``occlusion_rate`` are unset (``None``/NaN) for shed
    steps — no frame was processed, the display simply froze.
    ``recommend_s`` times only the recommender call (the quantity the
    offline evaluation reports as ``runtime_ms``); ``latency_s`` is set by
    the engine to the full submit-to-completion time including queueing.
    """

    t: int
    rendered: np.ndarray
    utility: StepUtility | None = None
    occlusion_rate: float = float("nan")
    recommend_s: float = 0.0
    latency_s: float = 0.0
    shed: bool = False
    degraded: bool = False


@dataclass
class SessionSnapshot:
    """A suspended session: shared problem + deep-copied mutable state."""

    session_id: str
    problem: AfterProblem
    state: dict = field(repr=False)


class GreedyMWISFallback:
    """Stateless degraded-mode recommender (greedy MWIS on the frame).

    When the engine is over its degrade watermark it serves steps with
    this instead of the session's primary recommender: one GWMIN pass
    over the occlusion graph, weighted by the step's expected AFTER gain
    — orders of magnitude cheaper than a GNN forward and still
    occlusion-aware, at the price of no temporal continuity.
    """

    name = "GreedyMWIS(fallback)"

    def recommend(self, frame, beta: float, max_render: int) -> np.ndarray:
        """Greedy independent-set selection for one frame."""
        weights = ((1.0 - beta) * frame.preference
                   + beta * frame.presence) * (frame.mask > 0)
        selected = solve_mwis_greedy(frame.graph.adjacency, weights)
        selected[frame.target] = False
        if int(selected.sum()) > max_render:
            selected = top_k_mask(np.where(selected, weights, -np.inf),
                                  max_render, eligible=selected)
        return selected


class RoomSession:
    """One live room advancing frame by frame.

    Parameters
    ----------
    problem:
        The episode context (target, utility rows, lists, ``beta``,
        ``max_render``).  Thanks to the lazy DOG, binding a problem does
        *not* replay the trajectory — the session builds each step's
        graph incrementally instead.
    recommender:
        The per-session recommender instance.  It must not be shared
        with a concurrent session (see
        :meth:`~repro.core.recommender.Recommender.session_clone`).
    fallback:
        Recommender used for degraded steps (default
        :class:`GreedyMWISFallback`).
    """

    def __init__(self, problem: AfterProblem, recommender: Recommender,
                 *, session_id: str | None = None, fallback=None):
        self.problem = problem
        self.recommender = recommender
        self.session_id = session_id if session_id is not None \
            else f"{problem.room.name}/t{problem.target}"
        self.fallback = fallback if fallback is not None \
            else GreedyMWISFallback()
        self._converters: dict = {}   # body radius -> batched converter
        self._started = False
        self._reset_state()

    def _reset_state(self) -> None:
        count = self.problem.num_users
        self._t_next = 0
        self._visible_previous = np.zeros(count, dtype=bool)
        self._rendered_previous = np.zeros(count, dtype=bool)
        self._accumulator = UtilityAccumulator(self.problem.beta)
        self.steps: list[SessionStep] = []
        self.shed_count = 0
        self.degraded_count = 0
        self.churn_count = 0

    # ------------------------------------------------------------------
    @property
    def next_step(self) -> int:
        """Index the next processed (or shed) step will carry."""
        return self._t_next

    @property
    def num_users(self) -> int:
        """Number of users in the session's room."""
        return self.problem.num_users

    def begin(self) -> "RoomSession":
        """Reset the recommender and carried state; returns self."""
        self.recommender.reset(self.problem)
        self._reset_state()
        self._started = True
        return self

    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray) -> SessionStep:
        """Advance one frame from live positions.

        ``positions`` is ``(num_users, 2)`` floor or ``(num_users, 3)``
        ``(x, 0, z)`` coordinates; any other shape raises
        ``ValueError``.  Runs the engine's group step with this one
        room, so a streamed step and a pumped one share every kernel.
        """
        from .engine import floor_frame, step_sessions  # engine imports us
        floor = floor_frame(self.session_id, positions, self.num_users)
        return step_sessions([(self, floor, False)], self._converters)[0]

    def recommend_step(self, frame, *, degraded: bool = False) -> tuple:
        """The recommender half of a step: ``(rendered, recommend_s)``.

        Runs the (primary or fallback) recommender on an assembled
        frame, refuses a mask that is not one flag per user, and knocks
        the target out of it.  Split from :meth:`complete_step` so the
        group step can resolve visibility for the whole group between
        the two halves.
        """
        if not self._started:
            raise RuntimeError(
                f"session {self.session_id!r} not started; call begin()")
        start = time.perf_counter()
        if degraded:
            rendered = self.fallback.recommend(frame, self.problem.beta,
                                               self.problem.max_render)
        else:
            rendered = self.recommender.recommend(frame)
        recommend_s = time.perf_counter() - start
        rendered = checked_render_mask(
            rendered, self.problem.num_users,
            self.fallback if degraded else self.recommender).copy()
        rendered[self.problem.target] = False
        return rendered, recommend_s

    def complete_step(self, frame, rendered: np.ndarray,
                      recommend_s: float, visible: np.ndarray,
                      occlusion: float, *,
                      degraded: bool = False) -> SessionStep:
        """The bookkeeping half: utility, carried state, step record.

        ``visible``/``occlusion`` are this room's row of the group's
        :func:`~repro.geometry.resolve_rooms_visibility` call.
        """
        utility = step_utility(frame.preference, frame.presence, visible,
                               self._visible_previous, rendered)
        self._accumulator.add(utility)
        self._visible_previous = visible
        self._rendered_previous = rendered

        record = SessionStep(t=self._t_next, rendered=rendered,
                             utility=utility,
                             occlusion_rate=float(occlusion),
                             recommend_s=recommend_s, degraded=degraded)
        if degraded:
            self.degraded_count += 1
        self.steps.append(record)
        self._t_next += 1
        return record

    def shed_step(self) -> SessionStep:
        """Drop one frame under overload: the display freezes.

        The previous render mask is carried as this step's
        recommendation, no utility or visibility is computed, and the
        recommender's state does not advance.  The step still consumes
        its time index, so per-room step order stays monotone.
        """
        if not self._started:
            raise RuntimeError(
                f"session {self.session_id!r} not started; call begin()")
        record = SessionStep(t=self._t_next,
                             rendered=self._rendered_previous.copy(),
                             shed=True)
        self.shed_count += 1
        self.steps.append(record)
        self._t_next += 1
        return record

    # ------------------------------------------------------------------
    # Population churn
    # ------------------------------------------------------------------
    def apply_churn(self, change: RosterChange) -> None:
        """Mutate the live roster, resizing every carried array.

        The session continues mid-stream on ``change.problem``: carried
        display state (previous visible/rendered), the recommender's
        per-user state (via :meth:`~repro.core.recommender.Recommender.
        reroster`) and the historical step records are all projected
        along ``change.keep`` — kept users' values travel to their new
        slots, joiners start blank (or from the change's seeds).  The
        target must survive the change; the step clock and utility
        totals are untouched.  The net effect is bit-identical to
        opening a fresh session on the post-churn roster with the
        projected state installed — ``tests/serving/
        test_churn_parity.py`` pins that with Hypothesis.
        """
        if not self._started:
            raise RuntimeError(
                f"session {self.session_id!r} not started; call begin()")
        keep = change.keep
        old_count = self.num_users
        if keep.max(initial=-1) >= old_count:
            raise ValueError(
                f"keep references old user {int(keep.max())} but the "
                f"roster has {old_count}")
        new_target = change.problem.target
        if keep[new_target] != self.problem.target:
            raise ValueError(
                "churn must preserve the target user: new slot "
                f"{new_target} maps to {int(keep[new_target])}, not "
                f"{self.problem.target}")
        kept = keep >= 0
        sources = keep[kept]

        def project(old: np.ndarray, seed: np.ndarray | None) -> np.ndarray:
            new = np.zeros(keep.shape[0], dtype=bool)
            if seed is not None:
                joiners = ~kept
                new[joiners] = np.asarray(seed, dtype=bool)[joiners]
            new[kept] = old[sources]
            return new

        self._visible_previous = project(self._visible_previous,
                                         change.seed_visible)
        self._rendered_previous = project(self._rendered_previous,
                                          change.seed_rendered)
        for record in self.steps:
            record.rendered = project(record.rendered, None)
        self.recommender.reroster(change.problem, keep)
        self.problem = change.problem
        self.churn_count += 1

    @classmethod
    def seeded(cls, problem: AfterProblem, recommender: Recommender, *,
               session_id: str | None = None, fallback=None,
               t_next: int = 0, visible_previous=None,
               rendered_previous=None) -> "RoomSession":
        """A fresh, started session with carried display state installed.

        The recommender starts from its initial state (this is *not*
        :meth:`resume` — no history travels), but the step clock and
        the previous visible/rendered masks can be pre-loaded: how a
        room split spawns its departing half without pretending those
        users were never on screen.
        """
        session = cls(problem, recommender, session_id=session_id,
                      fallback=fallback).begin()
        session._t_next = int(t_next)
        if visible_previous is not None:
            session._visible_previous = np.array(visible_previous,
                                                 dtype=bool)
        if rendered_previous is not None:
            session._rendered_previous = np.array(rendered_previous,
                                                  dtype=bool)
        return session

    # ------------------------------------------------------------------
    def result(self) -> EpisodeResult:
        """Episode metrics over the streamed steps so far.

        With no shed steps this is bit-identical (apart from wall-clock
        ``runtime_ms``) to :func:`~repro.core.evaluation.evaluate_episode`
        over the same frames.  Shed steps contribute their frozen render
        mask to ``recommendations`` but are excluded from every metric
        mean.
        """
        processed = [s for s in self.steps if not s.shed]
        count = self.problem.num_users
        if self.steps:
            recommendations = np.stack([s.rendered for s in self.steps])
        else:
            recommendations = np.zeros((0, count), dtype=bool)
        nan = float("nan")
        return EpisodeResult(
            after_utility=self._accumulator.total_after,
            preference=self._accumulator.total_preference,
            presence=self._accumulator.total_presence,
            occlusion_rate=float(np.mean([s.occlusion_rate
                                          for s in processed]))
            if processed else nan,
            runtime_ms=float(np.mean([s.recommend_s for s in processed])
                             * 1000.0) if processed else nan,
            per_step_after=self._accumulator.per_step_after(),
            recommendations=recommendations,
        )

    # ------------------------------------------------------------------
    def suspend(self) -> SessionSnapshot:
        """Freeze the session into a snapshot (deep-copied state).

        The problem is shared by reference (it is never mutated), also
        by the recommender's copy, so a pickled snapshot carries it
        once; the recommender and every carried array are deep-copied,
        so the original session may keep running or be discarded while
        the snapshot stays bit-exact.
        """
        state = copy.deepcopy({
            "recommender": self.recommender,
            "fallback": self.fallback,
            "started": self._started,
            "t_next": self._t_next,
            "visible_previous": self._visible_previous,
            "rendered_previous": self._rendered_previous,
            "accumulator": self._accumulator,
            "steps": self.steps,
            "shed_count": self.shed_count,
            "degraded_count": self.degraded_count,
            "churn_count": self.churn_count,
        }, {id(self.problem): self.problem})
        return SessionSnapshot(session_id=self.session_id,
                               problem=self.problem, state=state)

    @classmethod
    def resume(cls, snapshot: SessionSnapshot) -> "RoomSession":
        """Reconstruct a live session from a :meth:`suspend` snapshot.

        The snapshot's problem stays shared: the resumed recommender
        points at ``snapshot.problem``, not at a copy of it.
        """
        state = copy.deepcopy(snapshot.state,
                              {id(snapshot.problem): snapshot.problem})
        session = cls(snapshot.problem, state["recommender"],
                      session_id=snapshot.session_id,
                      fallback=state["fallback"])
        session._started = state["started"]
        session._t_next = state["t_next"]
        session._visible_previous = state["visible_previous"]
        session._rendered_previous = state["rendered_previous"]
        session._accumulator = state["accumulator"]
        session.steps = state["steps"]
        session.shed_count = state["shed_count"]
        session.degraded_count = state["degraded_count"]
        session.churn_count = state.get("churn_count", 0)
        return session

    def __repr__(self) -> str:
        return (f"RoomSession({self.session_id!r}, t={self._t_next}, "
                f"shed={self.shed_count})")


def stream_episode(problem: AfterProblem,
                   recommender: Recommender) -> EpisodeResult:
    """Stream one problem's full trajectory through a serial session.

    Feeds ``problem.room.trajectory`` frame by frame (the engine's group
    step at B = 1) and returns the episode result — bit-identical
    recommendations and utilities to
    :func:`~repro.core.evaluation.evaluate_episode`.  A parity check for
    the serving path and the evaluation harness's reference.
    """
    session = RoomSession(problem, recommender).begin()
    positions = problem.room.trajectory.positions
    for t in range(problem.horizon + 1):
        session.step(positions[t])
    return session.result()
