"""Shared helpers: statistics, memory, span analysis, the result line."""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A run stops measuring after ``WALL_FACTOR * --seconds`` wall seconds,
#: however little it measured, so that a program that fails every
#: operation still ends (with ``correct`` false).
WALL_FACTOR = 3


class Options:
    """Command-line options plus the run's private scratch directory."""

    def __init__(self, seed, seconds, trace, work):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work

    def path(self, *parts):
        path = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path


class Outcome:
    """What one run measured: counts, metrics, and a readable report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.report = []

    def fail(self, reason):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.report.append(f"  {name:<28} {value:>14.6g} {unit:<8} {note}")

    def note(self, line):
        self.report.append(line)

    def emit(self, workload, trace):
        if self.attempted == 0:
            self.fail("no operation was attempted")
        self.attempted = max(self.attempted, self.failed)
        correct = self.failed == 0
        print(f"perfbench {workload} ({'traced' if trace else 'untraced'}): "
              f"attempted={self.attempted} failed={self.failed} "
              f"failed_ratio={self.failed / self.attempted:.6g}")
        for line in self.report:
            print(line)
        for problem in self.problems:
            print(f"  FAILED: {problem}")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }, sort_keys=True))
        sys.stdout.flush()


def tail(samples, percentile, mean=True):
    """The mean of the samples beyond the nearest-rank ``percentile`` of
    ``samples`` (the largest sample when none lies beyond), or with
    ``mean`` false that percentile itself, and how many samples lie
    beyond it.  Where the tail is a dense mode of its own (loss trials,
    large compiles), a single order statistic jumps between modes from
    one seed to the next while the mean stays; where it is a few
    outliers past a dense cluster (serve misses), the mean jumps with
    them while the percentile stays."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    if not mean:
        return ordered[rank - 1], len(ordered) - rank
    return (statistics.fmean(ordered[rank:] or ordered[-1:]),
            len(ordered) - rank)


def tail_ready(n, percentile):
    """Whether ``n`` samples leave ``TAIL_BEYOND`` beyond ``percentile``."""
    return n - math.ceil(percentile / 100.0 * n) >= TAIL_BEYOND


def highest_tail(n):
    """The highest whole percentile that leaves ``TAIL_BEYOND`` of ``n``
    samples beyond it, or None."""
    return next((p for p in range(99, 49, -1) if tail_ready(n, p)), None)


def latency_metrics(out, prefix, samples, what, percentile, tail_mean=True):
    """``<prefix>p50_ms`` and ``<prefix>tail_ms`` from samples in seconds.

    Each workload fixes its tail percentile and measures until at least
    ``TAIL_BEYOND`` samples lie beyond it (see README.md).  Without
    samples -- every operation failed -- neither metric is reported.
    ``tail_mean`` picks the tail statistic (see ``tail``).
    """
    if not samples:
        out.note(f"  (no successful {what}: no latency metrics)")
        return
    value, beyond = tail(samples, percentile, tail_mean)
    out.metric(f"{prefix}p50_ms", statistics.median(samples) * 1000.0, "ms",
               f"median {what}, n={len(samples)}")
    statistic = "mean beyond" if tail_mean else "nearest-rank"
    out.metric(f"{prefix}tail_ms", value * 1000.0, "ms",
               f"{what}, {statistic} p{percentile:g}, n={len(samples)}, "
               f"{beyond} beyond")
    if beyond < TAIL_BEYOND:
        out.note(f"  (only {beyond} samples beyond p{percentile:g}: "
                 "the tail is under-sampled)")


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- host speed --------------------------------------------------------------

#: Seconds the calibration loop takes on the reference host.  Scaled
#: times are seconds on a host that runs the loop in exactly this long;
#: the 2-vCPU VM (Xeon, Python 3.11) the baseline was measured on runs
#: it in 25 to 45 ms as its neighbours' load comes and goes.
CALIBRATION_S = 0.03
#: The calibration loop runs at least this often, in seconds of work.
CALIBRATE_EVERY_S = 0.5
#: An operation is scaled by the median of the calibration samples taken
#: within this many seconds of it, and at least ``CALIBRATION_NEAREST``.
CALIBRATION_WINDOW_S = 2.0
CALIBRATION_NEAREST = 3


class _Site:
    __slots__ = ("index", "group", "label")

    def __init__(self, index, group):
        self.index = index
        self.group = group
        self.label = str(index & 255)


def calibration_loop():
    """A fixed piece of pure-Python work that runs none of the program
    under test, so only the host's speed changes its duration: objects
    with attributes, dict grouping, scattered reads and a keyed sort
    over a few megabytes, which a shared host's cache and memory
    contention slow as they slow the compiler."""
    n = 20000
    sites = [_Site(i, (i * 7919) % 1021) for i in range(n)]
    groups = {}
    for site in sites:
        groups.setdefault(site.group, []).append(site)
    total = 0
    for j in range(0, n, 2):
        site = sites[(j * 104729) % n]
        for other in groups[site.group][:4]:
            total += other.index + len(other.label)
    sites.sort(key=lambda site: (site.group, -site.index))
    return total + len(groups) + sites[0].index


class HostSpeed:
    """The host's speed through a run, from the calibration loop.

    A shared host's speed drifts: over two and a half minutes, the
    median compile time over 5 s windows had a coefficient of variation
    of 10 %, and its ratio to the calibration loop's time taken beside
    it one of 2.3 %.  The in-process workloads therefore interleave
    the loop with their work (``maybe_sample`` between operations,
    outside their timing) and report every time scaled to the reference
    host (``scaled``).  The program's own speed still shows in full: the
    loop runs none of it.
    """

    def __init__(self):
        self.ends = []
        self.seconds = []
        self.spent = 0.0

    def sample(self):
        # A collection here would time the program's heap, not the host.
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.ends.append(end)
        self.seconds.append(end - start)
        self.spent += end - start

    def maybe_sample(self):
        """Sample unless the last sample is under ``CALIBRATE_EVERY_S``
        old."""
        if not self.ends or \
                time.perf_counter() - self.ends[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self, start, end):
        """Reference seconds per host second for work done between
        ``start`` and ``end`` (``perf_counter`` readings)."""
        lo = bisect.bisect_left(self.ends, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + CALIBRATION_WINDOW_S)
        if hi - lo < CALIBRATION_NEAREST:
            middle = bisect.bisect_left(self.ends, (start + end) / 2)
            lo = max(0, min(len(self.ends) - CALIBRATION_NEAREST,
                            middle - CALIBRATION_NEAREST // 2))
            hi = lo + CALIBRATION_NEAREST
        return CALIBRATION_S / statistics.median(self.seconds[lo:hi])

    def note(self, out):
        """Report how the host's speed varied over the run (set-up
        alone takes two samples or more)."""
        q1, q2, q3 = statistics.quantiles(self.seconds, n=4)
        out.note(f"  (times scaled to the reference host: calibration "
                 f"loop {q2 * 1000:.3f} ms median, quartiles "
                 f"{q1 * 1000:.3f}-{q3 * 1000:.3f}, n={len(self.seconds)}; "
                 f"reference {CALIBRATION_S * 1000:g} ms)")

    def scaled(self, start, seconds):
        """``seconds`` of work that began at ``start``, scaled to the
        reference host."""
        return seconds * self.factor(start, start + seconds)


def repeat_setup(setup, host, repeats=SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times, calibrating around each; the
    last result and the median set-up seconds, scaled to the reference
    host."""
    durations = []
    result = None
    for _ in range(repeats):
        host.sample()
        start = time.perf_counter()
        result = setup()
        durations.append((start, time.perf_counter() - start))
        host.sample()
    return result, statistics.median(host.scaled(start, seconds)
                                     for start, seconds in durations)


def rounds_until(seconds, step, enough=lambda: True):
    """Call ``step(r)`` for rounds r = 0, 1, ... until the seconds it
    measured add up to ``seconds`` and ``enough()`` holds, or until
    ``WALL_FACTOR * seconds`` wall seconds have passed.  ``step`` returns
    ``(ops, seconds, scaled)``: the seconds of its timed part, which
    leaves out output checks and calibration, and the same scaled to the
    reference host.  Returns ops per scaled second over all rounds --
    rounds differ in work, so their mean is the steadier estimate -- or
    ``None`` when no round completed an operation, and the total ops and
    rounds."""
    deadline = time.perf_counter() + WALL_FACTOR * seconds
    measured = scaled_total = 0.0
    ops = rounds = 0
    while ((measured < seconds or not enough() or not ops)
           and time.perf_counter() < deadline):
        n, elapsed, scaled = step(rounds)
        rounds += 1
        measured += elapsed
        scaled_total += scaled
        ops += n
    rate = ops / scaled_total if ops and scaled_total > 0 else None
    return rate, ops, rounds


# -- span analysis -----------------------------------------------------------


def self_times(spans):
    """Self seconds per span name: a span's duration minus the part of
    its interval that its child spans cover."""
    children = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record)
    totals = {}
    for record in spans:
        start = record["start"]
        end = start + record["duration_s"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(record["span"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["start"] + child["duration_s"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = max(0.0, record["duration_s"] - covered)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def by_name(spans, name):
    return [record for record in spans if record["name"] == name]


def total_s(spans, name):
    return sum(record["duration_s"] for record in by_name(spans, name))


def attr_sum(spans, name, attr):
    return sum((record.get("attrs") or {}).get(attr, 0)
               for record in by_name(spans, name))


#: Span name -> the layer its self time is charged to.  Spans the
#: benchmark opens itself (``bench.*``) are charged to no layer.
LAYER_OF = {
    "circuits.decompose": "circuits",
    "core.compile": "core",
    "core.dag_weights": "core",
    "core.placement": "core",
    "core.schedule": "core",
    "compile": "exec",
    "exec.compile_key": "exec",
    "exec.cache_lookup": "exec",
    "tasks": "exec",
    "loss.tolerance_trial": "loss",
    "loss.shot_batch": "loss",
    "loss.on_loss": "loss",
    "loss.reload": "loss",
    "shots": "loss",
    "hardware.loss_sample": "hardware",
    "api.store_get": "api",
    "api.store_put": "api",
    "api.ledger_record": "api",
    "session.run": "api",
    "store.read": "api",
    "store.write": "api",
    "server.request": "serve",
    "queue.wait": "serve",
    "job.execute": "serve",
}

LAYERS = ("circuits", "core", "exec", "loss", "hardware", "api", "serve")


def compile_layer_metrics(out, spans):
    """The circuits / core / exec / loss / hardware / api metrics that
    in-process span trees and subprocess traces share."""
    compiles = by_name(spans, "core.compile")
    ok = [s for s in compiles if "error" not in (s.get("attrs") or {})]
    failed = [s for s in compiles if "error" in (s.get("attrs") or {})]
    proposals = attr_sum(spans, "core.schedule", "proposals")
    swaps = sum(s["attrs"]["swaps"] for s in ok)
    lookups = by_name(spans, "exec.cache_lookup")
    hits = sum(1 for s in lookups if s.get("attrs", {}).get("hit"))
    on_loss = by_name(spans, "loss.on_loss")
    fixups = [s for s in on_loss
              if s.get("attrs", {}).get("strategy") != "recompile"]
    m = out.metric
    m("circuits.decompose_s", total_s(spans, "circuits.decompose"), "s")
    m("circuits.lowered_gates",
      attr_sum(spans, "circuits.decompose", "gates_out"), "count")
    m("core.compile_n", len(compiles), "count")
    m("core.compile_ok_s", sum(s["duration_s"] for s in ok), "s")
    m("core.compile_failed_n", len(failed), "count")
    m("core.compile_failed_s", sum(s["duration_s"] for s in failed), "s")
    m("core.dag_weights_s", total_s(spans, "core.dag_weights"), "s")
    m("core.placement_s", total_s(spans, "core.placement"), "s")
    m("core.schedule_s", total_s(spans, "core.schedule"), "s")
    m("core.timesteps", sum(s["attrs"]["timesteps"] for s in ok), "count")
    m("core.swaps", swaps, "count")
    m("core.route_proposals", proposals, "count")
    m("core.route_useful_ratio", swaps / proposals if proposals else 0.0,
      "ratio", "executed SWAPs / proposals")
    m("exec.cache_lookups", len(lookups), "count")
    m("exec.cache_hit_ratio", hits / len(lookups) if lookups else 0.0,
      "ratio")
    m("exec.compile_key_s", total_s(spans, "exec.compile_key"), "s")
    m("exec.tasks_n", sum((s.get("attrs") or {}).get("count", 0)
                          for s in by_name(spans, "tasks")), "count")
    m("loss.on_loss_n", len(on_loss), "count")
    m("loss.on_loss_s", sum(s["duration_s"] for s in on_loss), "s")
    m("loss.fixup_s", sum(s["duration_s"] for s in fixups), "s")
    m("loss.reloads_n", len(by_name(spans, "loss.reload")), "count")
    m("loss.shots_n", attr_sum(spans, "loss.shot_batch", "shots"), "count")
    m("hardware.loss_sample_n", len(by_name(spans, "hardware.loss_sample")),
      "count")
    m("hardware.loss_sample_s", total_s(spans, "hardware.loss_sample"), "s")
    for name in ("store_get", "store_put"):
        m(f"api.{name}_n", len(by_name(spans, f"api.{name}")), "count")
        m(f"api.{name}_s", total_s(spans, f"api.{name}"), "s")
    m("api.ledger_record_s", total_s(spans, "api.ledger_record"), "s")
    m("api.session_run_s", total_s(spans, "session.run"), "s")


def self_time_metrics(out, spans, wall, what="traced wall"):
    """Per-layer self seconds and the share of ``wall`` (``what``) that
    they cover."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(spans).items():
        if name in LAYER_OF:
            per_layer[LAYER_OF[name]] += seconds
    for layer in LAYERS:
        out.metric(f"self.{layer}_s", per_layer[layer], "s",
                   "span self time")
    covered = sum(per_layer.values())
    out.metric("obs.self_time_coverage", covered / wall if wall else 0.0,
               "ratio", f"named layer self time / {what}")
    out.metric("obs.spans_n", len(spans), "count")


def traced_unit(run_unit):
    """Run the workload's fixed unit of work twice: ``run_unit(False)``
    untraced, then ``run_unit(True)`` with the layer probes installed and
    an in-memory tracer active.  Returns the untraced and traced wall
    seconds and the traced run's spans."""
    import probe
    from repro.obs import SpanBuffer, Tracer, trace

    start = time.perf_counter()
    run_unit(False)
    untraced_wall = time.perf_counter() - start
    probe.install()
    tracer = Tracer(SpanBuffer(), service="perfbench")
    start = time.perf_counter()
    with trace.activate(tracer, trace.new_trace_id()):
        with trace.span("bench.round"):
            run_unit(True)
    return untraced_wall, time.perf_counter() - start, tracer.sink.records


def read_trace_dir(path):
    """Every span record in a ``TraceStore`` directory."""
    spans = []
    for dirpath, _, names in os.walk(path):
        for name in names:
            if name.endswith(".jsonl"):
                with open(os.path.join(dirpath, name)) as handle:
                    spans.extend(json.loads(line) for line in handle
                                 if line.strip())
    return spans
