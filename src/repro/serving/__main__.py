"""Run one canned workload scenario end to end::

    python -m repro.serving --scenario flash_crowd [--ticks 8] \\
        [--fleet 2] [--out DIR] [--enforce]

The spec runs through :func:`~repro.serving.workload.run_scenario` on a
small :class:`~repro.serving.Fleet` (or an in-process engine with
``--fleet 0``) and the report lands in ``scenario_<name>.json`` under
``--out`` (default ``$REPRO_RUN_DIR`` or ``runs/``).  The SLO verdict
is *report-only* unless ``--enforce`` is given: a smoke host's timing
is not evidence about production latency, but the pipeline must run
end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .workload import CANNED_SPECS, canned_spec, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="run one workload scenario as a serving smoke test")
    parser.add_argument("--scenario", default="flash_crowd",
                        choices=sorted(CANNED_SPECS))
    parser.add_argument("--ticks", type=int, default=None,
                        help="override the scenario's tick count")
    parser.add_argument("--fleet", type=int, default=2,
                        help="worker count (0 = in-process engine)")
    parser.add_argument("--out", default=None,
                        help="output dir (default $REPRO_RUN_DIR or "
                             "runs/)")
    parser.add_argument("--enforce", action="store_true",
                        help="fail (exit 1) on SLO breaches")
    args = parser.parse_args(argv)

    overrides = {} if args.ticks is None else {"ticks": args.ticks}
    spec = canned_spec(args.scenario, **overrides)
    out_dir = args.out or os.environ.get("REPRO_RUN_DIR", "runs")
    os.makedirs(out_dir, exist_ok=True)
    run = run_scenario(spec, args.fleet)
    plan, outcome, report = run.plan, run.outcome, run.report

    document = {
        "scenario": spec.name,
        "fleet": args.fleet,
        "schedule_hash": plan.schedule_hash(),
        "events": len(plan.events),
        "sessions": sorted(outcome.results),
        "tickets": {sid: len(t) for sid, t in outcome.tickets.items()},
        "slo": {"ok": report.ok,
                "breaches": len(report.breach_events),
                "rules": [rule for rule in spec.slo]},
    }
    path = os.path.join(out_dir, f"scenario_{spec.name}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"scenario {spec.name}: {len(plan.events)} events, "
          f"{len(outcome.results)} sessions, "
          f"slo_ok={report.ok} -> {path}")
    print(report.render())
    return 1 if args.enforce and not report.ok else 0


if __name__ == "__main__":
    sys.exit(main())
