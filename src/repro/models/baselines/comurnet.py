"""COMURNet — occlusion-constrained RL recommendation [37].

Chen & Yang (CIKM'22): an actor-critic network that builds each step's
recommendation by *sequentially adding users under a hard no-occlusion
constraint*.  Faithful properties reproduced here:

* **Hard constraint** — a candidate is feasible only if its arc conflicts
  with neither the already-selected users nor any physically present MR
  participant; the final set is therefore occlusion-free by construction
  (the tables' 0.0% row).
* **Preference-only objective** — the reward is the preference utility of
  the selected set; continuity/social presence is ignored ("it fails to
  consider the continuity of recommendation between consecutive time
  steps").
* **Excessive computation** — each step runs many sampled policy
  rollouts and keeps the best, the source of the multi-second per-step
  runtimes in Tables II-IV.
* **No hybrid-participation reasoning** — it never exploits rendering
  attractive users *over* irrelevant co-located ones.
"""

from __future__ import annotations

import numpy as np

from ...core.problem import AfterProblem
from ...core.recommender import Recommender
from ...core.scene import Frame
from ...nn import Adam, MLP, Tensor, clip_grad_norm, no_grad
from ...nn import functional as F

__all__ = ["COMURNetRecommender"]

STATE_DIM = 5  # [p_hat, s_hat, degree, distance, conflict-with-selected]


class COMURNetRecommender(Recommender):
    """Actor-critic de-occlusion recommender with a hard constraint."""

    name = "COMURNet"

    def __init__(self, hidden_dim: int = 16, rollouts: int = 24,
                 train_episodes: int = 3, lr: float = 1e-2, seed: int = 0):
        if rollouts < 1:
            raise ValueError("rollouts must be positive")
        self.rollouts = rollouts
        self.train_episodes = train_episodes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.actor = MLP([STATE_DIM, hidden_dim, 1], rng)
        self.critic = MLP([STATE_DIM, hidden_dim, 1], rng)
        self.optimizer = Adam(
            list(self.actor.parameters()) + list(self.critic.parameters()),
            lr=lr)
        self._rng = np.random.default_rng(seed + 1)

    # ------------------------------------------------------------------
    # Candidate features and the hard feasibility rule
    # ------------------------------------------------------------------
    def _candidate_states(self, frame: Frame,
                          selected: np.ndarray) -> np.ndarray:
        degrees = frame.graph.degree().astype(np.float64)
        degrees = degrees / max(degrees.max(), 1.0)
        distance = frame.distances / max(float(frame.distances.max()), 1e-9)
        conflict = (frame.graph.adjacency & selected[None, :]).any(axis=1)
        return np.column_stack([
            frame.preference_hat,
            frame.presence_hat,
            degrees,
            distance,
            conflict.astype(np.float64),
        ])

    def _feasible(self, frame: Frame, selected: np.ndarray) -> np.ndarray:
        """Hard constraint: no arc conflict with selected or MR users."""
        feasible = ~selected
        feasible[frame.target] = False
        conflict_selected = (frame.graph.adjacency
                             & selected[None, :]).any(axis=1)
        conflict_forced = (frame.graph.adjacency
                           & frame.forced[None, :]).any(axis=1)
        feasible &= ~conflict_selected
        feasible &= ~conflict_forced
        feasible &= ~frame.forced  # physical users are not "recommended"
        return feasible

    # ------------------------------------------------------------------
    # Rollouts
    # ------------------------------------------------------------------
    def _rollout(self, frame: Frame, budget: int, greedy: bool,
                 record: bool = False):
        """Sequentially add feasible users by policy probability."""
        count = frame.num_users
        selected = np.zeros(count, dtype=bool)
        log_terms: list = []
        states: list[np.ndarray] = []
        for _ in range(budget):
            feasible = self._feasible(frame, selected)
            candidates = np.nonzero(feasible)[0]
            if candidates.size == 0:
                break
            state = self._candidate_states(frame, selected)[candidates]
            logits = self.actor(Tensor(state)).reshape(-1)
            probabilities = F.softmax(logits)
            sample_probs = probabilities.data
            if not np.isfinite(sample_probs).all() or sample_probs.sum() <= 0:
                sample_probs = np.full(candidates.size, 1.0 / candidates.size)
            else:
                sample_probs = sample_probs / sample_probs.sum()
            if greedy:
                pick_pos = int(np.argmax(sample_probs))
            else:
                pick_pos = int(self._rng.choice(candidates.size,
                                                p=sample_probs))
            if record:
                log_terms.append(probabilities[pick_pos].log())
                states.append(state[pick_pos])
            selected[candidates[pick_pos]] = True
        reward = float(frame.preference[selected].sum())
        return selected, reward, log_terms, states

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def reset(self, problem: AfterProblem) -> None:
        super().reset(problem)

    def recommend(self, frame: Frame) -> np.ndarray:
        budget = self.problem.max_render
        best_selected = None
        best_reward = -np.inf
        with no_grad():
            for rollout in range(self.rollouts):
                selected, reward, _, _ = self._rollout(
                    frame, budget, greedy=rollout == 0)
                if reward > best_reward:
                    best_reward = reward
                    best_selected = selected
        return best_selected if best_selected is not None \
            else np.zeros(frame.num_users, dtype=bool)

    # ------------------------------------------------------------------
    # Training (REINFORCE with critic baseline)
    # ------------------------------------------------------------------
    def fit(self, problems: list) -> dict:
        """Policy-gradient training over a few episodes per problem."""
        if not problems:
            raise ValueError("no problems given")
        history: list[float] = []
        for problem in problems[:self.train_episodes]:
            for t in range(0, problem.horizon + 1,
                           max(1, (problem.horizon + 1) // 10)):
                frame = problem.frame_at(t)
                history.append(self._train_step(frame, problem.max_render))
        return {"reward": history}

    def _train_step(self, frame: Frame, budget: int) -> float:
        selected, reward, log_terms, states = self._rollout(
            frame, budget, greedy=False, record=True)
        if not log_terms:
            return reward
        state_batch = Tensor(np.stack(states))
        values = self.critic(state_batch).reshape(-1)
        advantage = reward - float(values.data.mean())

        policy_loss = None
        for term in log_terms:
            piece = term * (-advantage)
            policy_loss = piece if policy_loss is None else policy_loss + piece
        value_loss = ((values - reward) ** 2).mean()
        loss = policy_loss * (1.0 / len(log_terms)) + value_loss

        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(list(self.actor.parameters())
                       + list(self.critic.parameters()), 5.0)
        self.optimizer.step()
        return reward
