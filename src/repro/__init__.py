"""repro — reproduction of "AFTER: Adaptive Friend Discovery for
Temporal-spatial and Social-aware XR" (ICDE 2024).

Quickstart
----------
>>> from repro.datasets import RoomConfig, generate_timik_room
>>> from repro.core import AfterProblem, evaluate_episode
>>> from repro.models import POSHGNN
>>> room = generate_timik_room(RoomConfig(num_users=40, num_steps=20))
>>> problem = AfterProblem(room, target=0)
>>> model = POSHGNN()
>>> _ = model.fit([problem], epochs=5)
>>> result = evaluate_episode(problem, model)
>>> result.after_utility >= 0.0
True

Subpackages
-----------
``repro.nn``        numpy autograd + GNN engine (PyTorch substitute)
``repro.geometry``  occlusion graphs, visibility, dynamic occlusion graphs
``repro.mwis``      maximum-weighted-independent-set solvers
``repro.crowd``     crowd trajectory simulation (RVO2 substitute)
``repro.social``    social graphs and the p/s utility models
``repro.datasets``  Timik/SMM/Hubs-style conference room generators
``repro.core``      the AFTER problem, utility, and evaluation harness
``repro.models``    POSHGNN and the seven paper baselines
``repro.training``  fault-tolerant training runtime (checkpoints, guards)
``repro.obs``       observability: spans, histograms, run events
``repro.study``     simulated XR user study (Fig. 4, Table VIII)
``repro.bench``     experiment drivers for every paper table and figure
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
