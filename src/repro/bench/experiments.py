"""Experiment drivers — one per paper table/figure.

Every driver regenerates its table/figure from scratch: generate the
room(s), train the learned methods, evaluate every method for several
target users, and return a rendered-comparable result object.  The bench
files under ``benchmarks/`` are thin wrappers around these.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..core import AfterProblem, evaluate_targets, paired_p_value
from ..datasets import RoomConfig, generate_room, hubs_config
from ..models.poshgnn.loss import resolve_alpha
from ..obs import PERF
from ..training import RunManifest
from .config import TRAIN_ALPHA0, BenchConfig
from .methods import (
    ablation_methods,
    method_slug,
    study_methods,
    table_methods,
)
from .tables import ResultTable

__all__ = [
    "room_config_for",
    "prepare_room",
    "run_dataset_comparison",
    "run_ablation",
    "run_sensitivity_n",
    "run_vr_proportion",
    "run_user_study",
]


def room_config_for(dataset: str, config: BenchConfig,
                    num_users: int | None = None,
                    vr_fraction: float = 0.5) -> RoomConfig:
    """The RoomConfig a bench uses for one dataset."""
    if dataset == "hubs":
        base = hubs_config(num_users=num_users or config.hubs_users,
                           num_steps=config.num_steps,
                           vr_fraction=vr_fraction)
        return base
    return RoomConfig(num_users=num_users or config.num_users,
                      num_steps=config.num_steps, vr_fraction=vr_fraction)


def prepare_room(dataset: str, config: BenchConfig,
                 num_users: int | None = None, vr_fraction: float = 0.5):
    """Generate the evaluation room plus train/eval targets."""
    room = generate_room(dataset,
                         room_config_for(dataset, config, num_users,
                                         vr_fraction),
                         seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    eval_targets = room.sample_targets(config.eval_targets, rng)
    train_targets = [t for t in range(room.num_users)
                     if t not in set(eval_targets.tolist())]
    train_targets = train_targets[:config.train_targets]
    return room, train_targets, eval_targets


def _bench_fit_complete(manifest_path: str | None) -> bool:
    """Whether a ``bench_<slug>.json`` records a *finished* fit.

    Anything short of a readable bench-fit manifest with
    ``extra.complete`` — missing file, interrupted write, older schema
    without the flag — means the method must be (re)fitted.
    """
    if manifest_path is None or not os.path.exists(manifest_path):
        return False
    try:
        manifest = RunManifest.load(manifest_path)
    except (ValueError, KeyError, json.JSONDecodeError):
        return False
    return manifest.kind == "bench-fit" \
        and bool(manifest.extra.get("complete"))


def _fit_and_evaluate(room, methods: dict, train_targets, eval_targets,
                      config: BenchConfig, alpha0: float) -> dict:
    """Train each method and collect its AggregateResult.

    Training keywords (epochs, alpha, run directory) go only to the
    gradient-trained methods, the ones with ``restore_fit``; the others
    fit on the problems alone.  With ``config.run_dir`` set
    (``REPRO_RUN_DIR``), those methods train under
    ``<run_dir>/<method>/`` and every fit leaves a
    ``<run_dir>/bench_<method>.json`` manifest (history, wall-clock,
    PERF deltas, ``extra.complete``), making long table regenerations
    resumable: a re-run skips methods whose manifest is complete and
    whose fitted model restores from its checkpoints, and continues a
    half-finished fit from its per-attempt checkpoints instead of
    starting over.
    """
    train_problems = [AfterProblem(room, t, beta=config.beta,
                                   max_render=config.max_render)
                      for t in train_targets]
    alpha = resolve_alpha(train_problems, "auto", alpha0=alpha0)
    results = {}
    for name, method in methods.items():
        restorable = getattr(method, "restore_fit", None)
        fit_kwargs = {} if restorable is None \
            else {"epochs": config.train_epochs, "alpha": alpha}
        slug = method_slug(name)
        method_run_dir = None
        manifest_path = None
        if config.run_dir:
            manifest_path = os.path.join(config.run_dir,
                                         f"bench_{slug}.json")
            if restorable is not None:
                method_run_dir = os.path.join(config.run_dir, slug)
                fit_kwargs["run_dir"] = method_run_dir

        if method_run_dir is not None \
                and _bench_fit_complete(manifest_path) \
                and restorable(method_run_dir):
            print(f"bench: skipping fit of {name} — complete manifest "
                  f"and checkpoints under {method_run_dir}")
        else:
            if method_run_dir is not None and os.path.isdir(method_run_dir):
                fit_kwargs["resume_from"] = method_run_dir
            perf_mark = PERF.snapshot()
            started = time.perf_counter()
            with PERF.scope(f"bench.fit.{name}", {"method": name}):
                history = method.fit(train_problems, **fit_kwargs)
            fit_seconds = time.perf_counter() - started
            if config.run_dir:
                losses = list((history or {}).get("loss", [])) \
                    if isinstance(history, dict) else []
                RunManifest(
                    kind="bench-fit",
                    config={"method": name, "alpha": alpha,
                            "epochs": config.train_epochs,
                            "train_targets": list(map(int, train_targets)),
                            "seed": config.seed},
                    history=losses,
                    best_loss=(history or {}).get("best_loss")
                    if isinstance(history, dict) else None,
                    epochs_run=len(losses),
                    wall_clock_s=fit_seconds,
                    perf=PERF.delta_since(perf_mark),
                    metrics={metric: histogram.as_dict()
                             for metric, histogram
                             in sorted(PERF.histograms.items())
                             if metric.startswith("train.")},
                    guard_events=list((history or {}).get("guard_events",
                                                          []))
                    if isinstance(history, dict) else [],
                    events_path=(history or {}).get("events_path")
                    if isinstance(history, dict) else None,
                    extra={"run_dir": method_run_dir, "complete": True},
                ).write(manifest_path)
        with PERF.scope(f"bench.evaluate.{name}", {"method": name}):
            results[name] = evaluate_targets(room, method, eval_targets,
                                             beta=config.beta,
                                             max_render=config.max_render)
    return results


def _metrics_of(result) -> dict:
    return {
        "after_utility": result.after_utility,
        "preference": result.preference,
        "presence": result.presence,
        "occlusion": result.occlusion_rate,
        "runtime_ms": result.runtime_ms,
    }


# ----------------------------------------------------------------------
# Tables II, III, IV
# ----------------------------------------------------------------------
def run_dataset_comparison(dataset: str, config: BenchConfig | None = None
                           ) -> ResultTable:
    """POSHGNN vs the seven baselines on one dataset."""
    config = config or BenchConfig.from_env()
    room, train_targets, eval_targets = prepare_room(dataset, config)
    methods = table_methods(config)
    results = _fit_and_evaluate(room, methods, train_targets, eval_targets,
                                config, TRAIN_ALPHA0[dataset])

    table = ResultTable(f"Results on the {dataset} dataset "
                        f"(paper Table {'II' if dataset == 'timik' else 'III' if dataset == 'smm' else 'IV'})")
    for name, result in results.items():
        table.add_column(name, _metrics_of(result))

    best = table.best_method()
    runners = [n for n in results if n != best]
    p_values = [paired_p_value(results[best].after_utilities(),
                               results[n].after_utilities())
                for n in runners]
    table.add_note(f"best method: {best}; "
                   f"margin over runner-up: "
                   f"{100 * table.improvement_over_second():.1f}%")
    table.add_note(f"max paired p-value of {best} vs others: "
                   f"{max(p_values):.4f}")
    return table


# ----------------------------------------------------------------------
# Table V — ablation on Hubs
# ----------------------------------------------------------------------
def run_ablation(config: BenchConfig | None = None) -> ResultTable:
    """POSHGNN module ablation (Full / PDR w MIA / Only PDR) on Hubs."""
    config = config or BenchConfig.from_env()
    room, train_targets, eval_targets = prepare_room("hubs", config)
    methods = ablation_methods(config)
    results = _fit_and_evaluate(room, methods, train_targets, eval_targets,
                                config, TRAIN_ALPHA0["hubs"])
    table = ResultTable("Ablation study for POSHGNN on Hubs (paper Table V)")
    for name, result in results.items():
        table.add_column(name, _metrics_of(result))
    return table


# ----------------------------------------------------------------------
# Table VI — sensitivity to the user number N
# ----------------------------------------------------------------------
def run_sensitivity_n(config: BenchConfig | None = None,
                      user_counts=(10, 20, 50, 100, 200)) -> ResultTable:
    """POSHGNN on SMM rooms of increasing crowding, half MR."""
    config = config or BenchConfig.from_env()
    table = ResultTable("Sensitivity to user number N on SMM "
                        "(paper Table VI)")
    for count in user_counts:
        sub = config.scaled(num_users=int(count),
                            train_targets=min(config.train_targets, 2),
                            eval_targets=min(config.eval_targets,
                                             max(2, count // 5)))
        room, train_targets, eval_targets = prepare_room("smm", sub)
        model_map = {"POSHGNN": table_methods(sub)["POSHGNN"]}
        results = _fit_and_evaluate(room, model_map, train_targets,
                                    eval_targets, sub, TRAIN_ALPHA0["smm"])
        table.add_column(f"N = {count}", _metrics_of(results["POSHGNN"]))
    return table


# ----------------------------------------------------------------------
# Table VII — sensitivity to the proportion of VR users
# ----------------------------------------------------------------------
def run_vr_proportion(config: BenchConfig | None = None,
                      proportions=(0.75, 0.5, 0.25)) -> ResultTable:
    """POSHGNN on SMM with varying remote (VR) user proportions."""
    config = config or BenchConfig.from_env()
    rows = (
        ("after_utility", "AFTER Utility", "up"),
        ("preference", "Preference", "up"),
        ("presence", "Social Presence", "up"),
    )
    table = ResultTable("Sensitivity to the proportion of VR users on SMM "
                        "(paper Table VII)", metric_rows=rows)
    for proportion in proportions:
        room, train_targets, eval_targets = prepare_room(
            "smm", config, vr_fraction=proportion)
        model_map = {"POSHGNN": table_methods(config)["POSHGNN"]}
        results = _fit_and_evaluate(room, model_map, train_targets,
                                    eval_targets, config,
                                    TRAIN_ALPHA0["smm"])
        result = results["POSHGNN"]
        table.add_column(f"VR = {int(100 * proportion)}%", {
            "after_utility": result.after_utility,
            "preference": result.preference,
            "presence": result.presence,
        })
    return table


# ----------------------------------------------------------------------
# Fig. 4 + Table VIII — the user study
# ----------------------------------------------------------------------
def run_user_study(config: BenchConfig | None = None):
    """Simulated 48-participant study; returns the StudyResult."""
    from ..study import UserStudy, generate_participants

    config = config or BenchConfig.from_env()
    participants = generate_participants(
        config.study_participants, np.random.default_rng(config.seed))
    study = UserStudy(participants=participants, seed=config.seed,
                      num_steps=config.study_steps,
                      max_render=config.max_render)
    alpha = resolve_alpha(study.problems()[:2], "auto",
                          alpha0=TRAIN_ALPHA0["user-study"])
    return study.run(study_methods(config),
                     fit_kwargs={"epochs": config.train_epochs,
                                 "alpha": alpha})


def render_user_study(result) -> str:
    """Plain-text rendering of Fig. 4 + Table VIII."""
    lines = ["User study (paper Fig. 4 + Table VIII)",
             "=" * 42]
    for panel, rows in result.figure4().items():
        lines.append(f"[{panel}]")
        for name, values in rows.items():
            lines.append(f"  {name:10s} utility/step={values['utility']:7.3f}"
                         f"  mean Likert={values['likert']:.2f}")
    lines.append("[correlations (Table VIII)]")
    for metric, corr in result.correlations().items():
        lines.append(f"  {metric:16s} Pearson={corr['pearson']:.3f} "
                     f"Spearman={corr['spearman']:.3f}")
    lines.append(f"[adaptive-display preference rate] "
                 f"{100 * result.adaptive_preference_rate():.1f}%")
    return "\n".join(lines)
