"""``repro.bench`` — experiment drivers for every paper table and figure.

See DESIGN.md §4 for the experiment index.  Each driver regenerates one
table/figure end-to-end; the pytest-benchmark wrappers live in
``benchmarks/``.
"""

from .ablations import (
    run_alpha_sensitivity,
    run_beta_sensitivity,
    run_runtime_scaling,
)
from .config import TRAIN_ALPHA0, BenchConfig
from .experiments import (
    prepare_room,
    render_user_study,
    room_config_for,
    run_ablation,
    run_dataset_comparison,
    run_sensitivity_n,
    run_user_study,
    run_vr_proportion,
)
from .methods import ablation_methods, study_methods, table_methods
from .tables import METRIC_ROWS, ResultTable, format_number

__all__ = [
    "BenchConfig",
    "TRAIN_ALPHA0",
    "ResultTable",
    "METRIC_ROWS",
    "format_number",
    "table_methods",
    "ablation_methods",
    "study_methods",
    "room_config_for",
    "prepare_room",
    "run_dataset_comparison",
    "run_ablation",
    "run_sensitivity_n",
    "run_vr_proportion",
    "run_user_study",
    "render_user_study",
    "run_beta_sensitivity",
    "run_alpha_sensitivity",
    "run_runtime_scaling",
]
