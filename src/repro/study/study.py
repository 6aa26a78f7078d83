"""The simulated XR user study (paper Sec. V-C).

Reproduces the study pipeline: 48 participants join a hybrid conference
room (iPhone MR / Quest 2 VR), experience the adaptive display produced
by each method (POSHGNN, GraFrank, MvAGC, COMURNet, and "Original" =
render all), and report 1-5 Likert satisfaction for the overall display,
its personalisation, and the feeling of being among friends.

The human is replaced by a generative response model
(:mod:`repro.study.likert`); everything upstream — rooms, recommenders,
utility accounting — is the real pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import AfterProblem, evaluate_episode, paired_p_value, pearson, \
    spearman
from ..datasets import RoomConfig, generate_hubs_room
from .likert import likert_response, normalise_scores
from .participants import Participant, generate_participants

__all__ = ["MethodOutcome", "StudyResult", "UserStudy", "make_study_room"]


def make_study_room(participants: list, seed: int = 0,
                    room_side: float | None = None, num_steps: int = 60):
    """Build the study conference room matching the cohort's interfaces.

    The default geometry packs the cohort at maximum feasible crowding
    (RoomConfig's 0.3 m^2/person), reproducing the crowded-conference
    condition of the paper's study, where rendering everyone buries most
    of the room behind the nearest ring of people.
    """
    config = RoomConfig(num_users=len(participants), num_steps=num_steps,
                        vr_fraction=0.5, room_side=room_side)
    room = generate_hubs_room(config, seed=seed)
    room.interfaces_mr = np.array([p.uses_mr for p in participants])
    room.name = "user-study"
    return room


@dataclass
class MethodOutcome:
    """Aggregated study data for one display method."""

    name: str
    after_utilities: np.ndarray       # per participant, per-step mean
    preference_utilities: np.ndarray  # per participant, per-step mean
    presence_utilities: np.ndarray    # per participant, per-step mean
    likert_overall: np.ndarray        # per participant, 1-5
    likert_preference: np.ndarray
    likert_presence: np.ndarray

    def mean_utility(self) -> float:
        """Mean per-step AFTER utility across participants."""
        return float(self.after_utilities.mean())

    def mean_likert(self, scale: str = "overall") -> float:
        """Mean Likert score on one scale across participants."""
        return float(getattr(self, f"likert_{scale}").mean())


@dataclass
class StudyResult:
    """Everything the study produced."""

    participants: list
    outcomes: "dict[str, MethodOutcome]"
    method_order: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Fig. 4 — per-method mean utility and mean Likert on three scales
    # ------------------------------------------------------------------
    def figure4(self) -> dict:
        """Rows of the paper's Fig. 4 (three chart panels)."""
        panels = {}
        for panel, utility_attr, likert_scale in (
                ("overall", "after_utilities", "overall"),
                ("preference", "preference_utilities", "preference"),
                ("presence", "presence_utilities", "presence")):
            panels[panel] = {
                name: {
                    "utility": float(getattr(out, utility_attr).mean()),
                    "likert": out.mean_likert(likert_scale),
                }
                for name, out in self.outcomes.items()
            }
        return panels

    # ------------------------------------------------------------------
    # Table VIII — utility <-> satisfaction correlations
    # ------------------------------------------------------------------
    def correlations(self) -> dict:
        """Pearson/Spearman between utilities and Likert feedback.

        Computed over all (participant, method) pairs, as in the paper's
        correlation analysis of the proposed metrics.
        """
        pref_u, pres_u, after_u = [], [], []
        pref_l, pres_l, over_l = [], [], []
        for outcome in self.outcomes.values():
            pref_u.extend(outcome.preference_utilities)
            pres_u.extend(outcome.presence_utilities)
            after_u.extend(outcome.after_utilities)
            pref_l.extend(outcome.likert_preference)
            pres_l.extend(outcome.likert_presence)
            over_l.extend(outcome.likert_overall)
        return {
            "preference": {"pearson": pearson(pref_u, pref_l),
                           "spearman": spearman(pref_u, pref_l)},
            "social_presence": {"pearson": pearson(pres_u, pres_l),
                                "spearman": spearman(pres_u, pres_l)},
            "after_utility": {"pearson": pearson(after_u, over_l),
                              "spearman": spearman(after_u, over_l)},
        }

    # ------------------------------------------------------------------
    # Significance and questionnaire-style aggregates
    # ------------------------------------------------------------------
    def p_value_against(self, champion: str, challenger: str) -> float:
        """Paired p-value of champion vs challenger per-participant
        Likert (overall)."""
        return paired_p_value(self.outcomes[champion].likert_overall,
                              self.outcomes[challenger].likert_overall)

    def adaptive_preference_rate(self, original: str = "Original") -> float:
        """Fraction of participants preferring *some* adaptive display
        over rendering everyone (paper: 89.6%)."""
        if original not in self.outcomes:
            raise KeyError(f"no {original!r} condition in the study")
        baseline = self.outcomes[original].likert_overall
        best_adaptive = np.max(
            [out.likert_overall for name, out in self.outcomes.items()
             if name != original], axis=0)
        return float((best_adaptive > baseline).mean())


class UserStudy:
    """Runs the simulated study for a set of display methods."""

    def __init__(self, participants: list | None = None, seed: int = 0,
                 num_steps: int = 60, max_render: int = 8):
        self.seed = seed
        self.participants: list[Participant] = (
            participants if participants is not None
            else generate_participants(48, np.random.default_rng(seed)))
        self.room = make_study_room(self.participants, seed=seed,
                                    num_steps=num_steps)
        self.max_render = max_render

    def problems(self) -> list:
        """One AFTER problem per participant (their own beta)."""
        return [AfterProblem(self.room, p.id, beta=p.beta,
                             max_render=self.max_render)
                for p in self.participants]

    def run(self, methods: dict, fit: bool = True, fit_targets: int = 3,
            fit_kwargs: dict | None = None) -> StudyResult:
        """Evaluate every method for every participant and collect Likert.

        ``methods`` maps display names to recommenders.  Learned methods
        are trained on a few participants' episodes first (with the
        default beta) when ``fit`` is True; ``fit_kwargs`` go only to
        the gradient-trained methods (those with ``restore_fit``).
        """
        fit_kwargs = fit_kwargs or {}
        if fit:
            train_problems = [
                AfterProblem(self.room, p.id, max_render=self.max_render)
                for p in self.participants[:fit_targets]]
            for method in methods.values():
                if hasattr(method, "restore_fit"):
                    method.fit(train_problems, **fit_kwargs)
                else:
                    method.fit(train_problems)

        raw: dict[str, dict[str, np.ndarray]] = {}
        for name, method in methods.items():
            after, pref, pres = [], [], []
            for problem in self.problems():
                result = evaluate_episode(problem, method)
                steps = problem.horizon + 1
                after.append(result.after_utility / steps)
                pref.append(result.preference / steps)
                pres.append(result.presence / steps)
            raw[name] = {
                "after": np.array(after),
                "pref": np.array(pref),
                "pres": np.array(pres),
            }

        outcomes = self._collect_likert(raw)
        return StudyResult(participants=self.participants, outcomes=outcomes,
                           method_order=list(methods))

    def _collect_likert(self, raw: dict) -> dict:
        """Per-participant, within-person normalisation across methods,
        then the Likert response model."""
        rng = np.random.default_rng(self.seed + 99)
        names = list(raw)
        outcomes: dict[str, MethodOutcome] = {}
        count = len(self.participants)

        likert = {name: {"overall": np.zeros(count, dtype=int),
                         "preference": np.zeros(count, dtype=int),
                         "presence": np.zeros(count, dtype=int)}
                  for name in names}
        for i, participant in enumerate(self.participants):
            for scale, key in (("overall", "after"), ("preference", "pref"),
                               ("presence", "pres")):
                values = np.array([raw[name][key][i] for name in names])
                normalised = normalise_scores(values)
                for j, name in enumerate(names):
                    likert[name][scale][i] = likert_response(
                        float(normalised[j]), participant, rng)

        for name in names:
            outcomes[name] = MethodOutcome(
                name=name,
                after_utilities=raw[name]["after"],
                preference_utilities=raw[name]["pref"],
                presence_utilities=raw[name]["pres"],
                likert_overall=likert[name]["overall"],
                likert_preference=likert[name]["preference"],
                likert_presence=likert[name]["presence"],
            )
        return outcomes
