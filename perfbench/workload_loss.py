"""``loss``: the paper's section VI loss loop, closed-loop in-process.

One round runs, under a fresh session (fresh compile cache):

* Fig 10 tolerance trials -- every coping strategy on cnu-30 and
  cuccaro-30, 10x10 array, MID 2..5 (compile-small variants skip MID 2,
  as in the paper), one trial per cell;
* Fig 12 shot batches -- 500 shots of cnu-30 per MID for Fig 12's
  strategies (the four fix-up strategies and always-reload; recompile
  is left out of Fig 12, as in the paper).

Both go through the experiments' own task functions and the exec
layer's ``grid_map``, seeded from the round's base seed, exactly as
``repro run fig10`` / ``fig12`` would run them.  An operation is one
trial or one shot batch.  Round r of seed s is the same work in every
run, so round 0 is the deterministic work unit the traced run measures.

``ops_per_s`` counts trials and shot batches; ``op_p50_ms`` and
``op_tail_ms`` are over tolerance trials only, whose cost -- recompiles
on grids with holes -- is the experiment's headline.

Every program any strategy compiled (pristine grids and grids with
holes) is captured (``probe.capture_programs``) and checked by
``check.check_schedule`` after its round, outside the timed part.  A
trial that stops on ``CompilationError`` is the experiment's normal end,
not a failure.
"""

from __future__ import annotations

import time

import probe
from common import (HostSpeed, compile_layer_metrics, traced_unit,
                    latency_metrics, repeat_setup, self_rss_mb,
                    self_time_metrics, rounds_until, tail_ready)

BENCHMARKS = ("cnu", "cuccaro")
MIDS = (2.0, 3.0, 4.0, 5.0)
PROGRAM_SIZE = 30
GRID_SIDE = 10
SHOTS = 500
#: At least 167 trials per run (about 500 in 30 s on the reference
#: machine): p94 leaves 10 or more beyond, in the recompile trials.
#: ``op_tail_ms`` is the mean of the trials beyond it.
TAIL_PERCENTILE = 94
#: Set-up warms up on this seed's round, so that it does the same work
#: -- the same holes, the same stalls -- whatever the workload seed.
WARMUP_SEED = 7919


class LossRound:
    """Builds and runs round ``r`` of seed ``seed``."""

    def __init__(self, seed, mids=MIDS):
        from repro.loss.strategies import STRATEGY_ORDER

        self.seed = seed
        self.mids = mids
        self.strategies = list(STRATEGY_ORDER)
        self.trial_cells = [
            {"benchmark": b, "strategy": s, "mid": m,
             "program_size": PROGRAM_SIZE, "grid_side": GRID_SIDE,
             "trials": 1}
            for b in BENCHMARKS for m in mids for s in self.strategies
            if not ("small" in s and m <= 2.0)
        ]

    def shot_specs(self):
        from repro.experiments.fig12_overhead import FIG12_STRATEGIES
        from repro.hardware.loss import LossModel
        from repro.loss.runner import ShotSpec

        return [
            ShotSpec(strategy=s, benchmark="cnu", program_size=PROGRAM_SIZE,
                     grid_side=GRID_SIDE, mid=m, max_shots=SHOTS, seed=0,
                     loss_model=LossModel.lossless_readout())
            for m in self.mids for s in FIG12_STRATEGIES
            if not ("small" in s and m <= 2.0)
        ]

    def base_seed(self, r):
        return (self.seed * 1_000_003 + r) % (2**31)

    def run(self, r, sink, host=None):
        """Run round ``r``; append ``(kind, start, seconds, result)`` to
        ``sink``.  With a ``host``, calibrate between tasks."""
        from repro.api.session import Session
        from repro.exec.grid import grid_map

        base = self.base_seed(r)
        with Session().activate():
            grid_map(_Timed(_trial, "trial", sink, host), self.trial_cells,
                     experiment="fig10", base_seed=base,
                     key_fields=("benchmark", "strategy", "mid",
                                 "program_size", "trials"))
            grid_map(_Timed(_shots, "shots", sink, host), self.shot_specs(),
                     experiment="fig12", base_seed=base)


def _trial(cell):
    from repro.experiments.fig10_loss_tolerance import _tolerance_task

    return _tolerance_task(cell)


def _shots(spec):
    from repro.loss.runner import run_shot_spec

    return run_shot_spec(spec)


class _Timed:
    """Task function that times each task (inline backend: same
    process), calibrating the host before it when one is given."""

    def __init__(self, fn, kind, sink, host):
        self.fn, self.kind, self.sink, self.host = fn, kind, sink, host

    def __call__(self, task):
        if self.host is not None:
            self.host.maybe_sample()
        start = time.perf_counter()
        result = self.fn(task)
        self.sink.append((self.kind, start, time.perf_counter() - start,
                          result))
        return result


def check_outputs(out, sink, programs):
    from check import check_schedule

    device = GRID_SIDE * GRID_SIDE
    for kind, _, _, result in sink:
        out.attempted += 1
        if kind == "trial":
            sustained = result.losses_sustained
            if (len(sustained) != 1
                    or not 0 <= sustained[0] <= device - PROGRAM_SIZE):
                out.fail(f"trial {result.strategy_name}: "
                         f"sustained {sustained}")
        else:
            if (result.shots_attempted != SHOTS
                    or not 0 <= result.shots_successful <= SHOTS
                    or any(e.duration < 0 for e in result.timeline)):
                out.fail(f"shots {result.strategy_name}: inconsistent result")
    for program, active, mid in programs:
        out.attempted += 1
        problem = check_schedule(program, active, mid)
        if problem is not None:
            out.fail(f"compiled schedule: {problem}")


def tolerance_frac(sink):
    trials = [r for kind, _, _, r in sink if kind == "trial"]
    return sum(t.mean_fraction for t in trials) / len(trials)


def run(opts, out):
    def setup():
        # Warm process-wide state (imports, grid tables) on a throwaway
        # MID-3 round of the warm-up seed; measured rounds start
        # cold-cached.
        LossRound(WARMUP_SEED, mids=(3.0,)).run(0, [])
        return LossRound(opts.seed)

    # Set-up runs through the same compile wrapper as the rounds.
    probe.capture_programs(None)
    host = HostSpeed()
    work, setup_s = repeat_setup(setup, host)
    if opts.trace:
        return traced(opts, out, work)

    trial_seconds = []
    fractions = []

    def step(r):
        sink = []
        programs = []
        probe.capture_programs(programs)
        host.sample()
        spent = host.spent
        start = time.perf_counter()
        work.run(r, sink, host)
        end = time.perf_counter()
        measured = end - start - (host.spent - spent)
        host.sample()
        probe.capture_programs(None)
        check_outputs(out, sink, programs)
        trial_seconds.extend(host.scaled(begun, seconds)
                             for kind, begun, seconds, _ in sink
                             if kind == "trial")
        fractions.append(tolerance_frac(sink))
        return len(sink), measured, measured * host.factor(start, end)

    rate, ops, rounds = rounds_until(
        opts.seconds, step,
        lambda: tail_ready(len(trial_seconds), TAIL_PERCENTILE))
    latency_metrics(out, "op_", trial_seconds, "tolerance trial",
                    TAIL_PERCENTILE)
    if rate is not None:
        out.metric("ops_per_s", rate, "1/s", f"over {rounds} rounds: "
                   f"trials and shot batches per second, {ops} ops")
    out.metric("setup_s", setup_s, "s")
    out.metric("peak_rss_mb", self_rss_mb(), "MB", "benchmark process")
    host.note(out)
    out.note(f"  (loss_trials_per_s = ops_per_s; loss_tolerance_frac = "
             f"{sum(fractions) / rounds:.6f} over {rounds} rounds)")


def traced(opts, out, work):
    sink = []
    programs = []

    def run_unit(traced):
        probe.capture_programs(programs if traced else None)
        work.run(0, sink if traced else [])
        probe.capture_programs(None)

    untraced_wall, traced_wall, spans = traced_unit(run_unit)
    check_outputs(out, sink, programs)
    compile_layer_metrics(out, spans)
    self_time_metrics(out, spans, traced_wall)
    out.metric("obs.trace_overhead_ratio", traced_wall / untraced_wall,
               "ratio", "traced / untraced wall of round 0")
    out.metric("quality.loss_tolerance_frac", tolerance_frac(sink), "ratio",
               "mean tolerated losses / device sites")
    out.metric("bench.ops_n", len(sink), "count")
    out.metric("bench.round_wall_s", traced_wall, "s", "traced round 0")
