"""``python3 -m bench``: run the benchmark from the root of a checkout.

The driver's form is
``python3 -m bench --workload W --seed N --seconds S --trace 0|1``; the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Without ``--workload`` all four
run in turn, which is the "one command prints every metric" form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback


def _stop_resource_tracker() -> None:
    """End ``multiprocessing``'s resource tracker and wait for it.

    Left alone it ends only after this process has, and the benchmark is to
    leave no process of its own behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main() -> int:
    from bench.workloads import WORKLOADS, program_source

    source = program_source()
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(
            f"no program to measure: {source}/repro is missing (run from the "
            "root of a checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, source)

    from bench.measure import pin_to_last_cpu
    from bench.metrics import RUN_SECONDS, UNITS
    from bench.runner import header, run_workload

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1, help="the generator's only input")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="sizes the fixed op list (length = seconds x the workload's frozen rate)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    parser.add_argument("--out", help="append each run's result to this file, one JSON per line")
    parser.add_argument(
        "--spans", help="with --trace 1: append the traced pass's spans to this file, one per line"
    )
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_to_last_cpu()
    status = 0
    try:
        for name in [args.workload] if args.workload else list(WORKLOADS):
            report = run_workload(
                WORKLOADS[name],
                args.seed,
                args.seconds,
                args.trace,
                os.path.abspath(args.spans) if args.spans else None,
            )
            print(header(report))
            for metric, value in report.metrics.items():
                print(f"{metric:<44} {value:>16.6g} {UNITS[metric]}")
            print(f"{'fail_frac':<44} {report.failed / report.attempted:>16.6g} ratio")
            print(f"{'machine_speed':<44} {report.machine_speed:>16.6g} ratio")
            for problem in report.problems:
                print(f"# failed: {problem}")
            result = report.result()
            if args.out:
                with open(args.out, "a", encoding="utf-8") as out:
                    record = dict(
                        workload=name, seed=args.seed, seconds=args.seconds,
                        trace=args.trace, **result,
                    )  # fmt: skip
                    out.write(json.dumps(record) + "\n")
            print(json.dumps(result), flush=True)
            if not report.correct:
                status = 1
    except Exception:  # noqa: BLE001 - reported, then the tracker is still stopped
        # Handled here rather than in a ``finally``: once this block ends the
        # traceback lets go of the run's semaphores, which the tracker would
        # otherwise report as leaked.
        traceback.print_exc()
        status = 3
    _stop_resource_tracker()
    return status


if __name__ == "__main__":
    sys.exit(main())
