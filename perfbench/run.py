"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload loss --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the workload's deterministic first round untraced and
then traced, and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is the JSON result.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

from common import HERE, SRC, Options, Outcome

ROOT = os.path.dirname(HERE)

#: Workload name -> the module that runs it.
WORKLOADS = {
    "loss": "workload_loss",
    "compile-clean": "workload_compile",
    "serve-mixed": "workload_serve",
}


def declared_metrics(trace):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run, in declaration order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(os.getcwd(), ".perfbench_run",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    # Keep every repro default directory inside the run's scratch tree.
    for var, sub in (("REPRO_CACHE_DIR", "cache"),
                     ("REPRO_STORE_DIR", "store"),
                     ("REPRO_CIRCUIT_DIR", "circuits"),
                     ("REPRO_TRACE_DIR", "traces")):
        os.environ[var] = os.path.join(work, "default", sub)

    opts = Options(args.seed, args.seconds, bool(args.trace), work)
    out = Outcome()
    try:
        __import__(WORKLOADS[args.workload]).run(opts, out)
    except Exception as error:
        # A program that breaks outright is a failed run, not a crash of
        # the benchmark: report it with ``correct`` false.
        traceback.print_exc()
        out.attempted += 1
        out.fail(f"workload raised {type(error).__name__}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    expected = declared_metrics(args.trace)
    for name, unit in expected.items():
        if name not in out.metrics and args.trace:
            # A layer this workload does not reach.
            out.metric(name, 0, unit, "not exercised by this workload")
    measured = {name: m["unit"] for name, m in out.metrics.items()}
    if measured != expected and not out.failed:
        raise RuntimeError(f"measured metrics {measured} do not match "
                           f"BENCHMARK.json {expected}")
    # A failed run may lack the metrics of the operations that failed.
    out.metrics = {name: out.metrics[name] for name in expected
                   if name in out.metrics}
    out.emit(args.workload, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
