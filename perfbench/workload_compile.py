"""``compile-clean``: fresh compiles on pristine grids, closed-loop.

Each round compiles one program per (family, configuration, size band)
-- families bv, cnu, cuccaro, qaoa, qft-adder and random; configurations
native neutral-atom (multi-qubit gates kept), decomposed neutral-atom
(``native_max_arity=2``) and superconducting-like; sizes 6 to 80 qubits
on the 10x10 device; MIDs 1 to 5 rotating over the items -- plus one
small random program on a 3x3 grid.  Size jitter and circuit structure
come from the seed.  Every program is compiled with ``compile_circuit``
(no compile cache), so each operation is one fresh compile.

After each round, outside the timed part, every schedule goes through
``check.check_schedule``; the 3x3 programs are also checked for
statevector equivalence with ``repro.core.validation.check_compiled``.
Any ``CompilationError`` here is a failure.
"""

from __future__ import annotations

import random
import time

from common import (HostSpeed, compile_layer_metrics, traced_unit,
                    latency_metrics, repeat_setup, self_rss_mb,
                    self_time_metrics, rounds_until, tail_ready)

FAMILIES = ("bv", "cnu", "cuccaro", "qaoa", "qft-adder", "random")
CONFIGS = ("native", "decomposed", "sc-like")
GRID_SIDE = 10
SMALL_SIDE = 3
#: Size bands; each program's size is a band plus a seeded jitter.
SIZES = (8, 22, 36, 50, 64, 78)
SIZE_JITTER = 2
#: About 440 compiles in 30 s on the reference machine, and at least
#: 200: p95 leaves 10 or more beyond.  ``op_tail_ms`` is the mean of the
#: compiles beyond it.
TAIL_PERCENTILE = 95
MIDS = (1.0, 2.0, 3.0, 4.0, 5.0)
#: Set-up warms up on this seed's programs, so that it does the same
#: work whatever the workload seed.
WARMUP_SEED = 7919


def _circuit(family, size, rng):
    from repro.workloads.random_circuits import random_circuit
    from repro.workloads.registry import build_circuit

    if family == "random":
        return random_circuit(size, 3 * size, rng=rng.randrange(2**31))
    return build_circuit(family, size, rng=rng.randrange(2**31))


def _config(kind, mid):
    from repro.core.config import CompilerConfig

    if kind == "native":
        return CompilerConfig.neutral_atom(mid)
    if kind == "decomposed":
        return CompilerConfig.neutral_atom(mid).decomposed()
    return CompilerConfig.superconducting_like()


def round_inputs(seed, r, bands=SIZES):
    """``[(label, circuit, side, config, small)]`` for round ``r``: every
    (family, configuration, size band) once, item j at MID
    ``MIDS[j % 5]``, plus one small random program on a 3x3 grid.  Sizes
    (a band plus a jitter of up to ``SIZE_JITTER`` qubits) and circuit
    structure come from the seed and the round, so every round has the
    same mix of work."""
    from repro.core.config import CompilerConfig

    rng = random.Random(seed * 1_000_003 + r)
    inputs = []
    items = [(f, k, b) for f in FAMILIES for k in CONFIGS for b in bands]
    for j, (family, kind, band) in enumerate(items):
        size = band + rng.randint(-SIZE_JITTER, SIZE_JITTER)
        config = _config(kind, MIDS[j % len(MIDS)])
        inputs.append((f"{family}-{size}-{kind}-mid"
                       f"{config.max_interaction_distance:g}",
                       _circuit(family, size, rng), GRID_SIDE, config, False))
    small = _circuit("random", rng.randint(4, 7), rng)
    mid = rng.choice(MIDS[:3])
    inputs.append((f"small-random-mid{mid:g}", small, SMALL_SIDE,
                   CompilerConfig.neutral_atom(mid), True))
    return inputs


def compile_round(inputs, sink, out, host=None):
    """Compile every input; append ``(label, start, seconds, program,
    small)`` to ``sink``.  With a ``host``, calibrate between compiles."""
    import repro.core.compiler as compiler
    from repro.core.errors import CompilationError
    from repro.hardware.topology import Topology

    for label, circuit, side, config, small in inputs:
        topology = Topology.square(side, config.max_interaction_distance)
        if host is not None:
            host.maybe_sample()
        start = time.perf_counter()
        try:
            program = compiler.compile_circuit(circuit, topology, config)
        except CompilationError as error:
            out.attempted += 1
            out.fail(f"{label}: {type(error).__name__}: {error}")
            continue
        sink.append((label, start, time.perf_counter() - start, program,
                     small))


def check_outputs(out, sink, seed):
    from check import check_schedule
    from repro.core.validation import check_compiled

    for label, _, _, program, small in sink:
        out.attempted += 1
        mid = program.config.max_interaction_distance
        side = program.grid_shape[0]
        problem = check_schedule(program, range(side * side), mid)
        if problem is None and small and not check_compiled(
                program, trials=4, rng=seed):
            problem = "not equivalent to its source (statevector)"
        if problem is not None:
            out.fail(f"{label}: {problem}")


def run(opts, out):
    def setup():
        # Warm grid tables and code paths on another seed's small
        # programs, and build round 0's inputs.
        compile_round(round_inputs(WARMUP_SEED, 0, SIZES[:2]), [], out)
        return round_inputs(opts.seed, 0)

    host = HostSpeed()
    first, setup_s = repeat_setup(setup, host)
    if opts.trace:
        return traced(opts, out, first)

    latencies = []
    totals = {"gates": 0, "depth": 0}

    def step(r):
        sink = []
        inputs = first if r == 0 else round_inputs(opts.seed, r)
        host.sample()
        compile_round(inputs, sink, out, host)
        host.sample()
        check_outputs(out, sink, opts.seed)
        scaled = [host.scaled(start, s) for _, start, s, _, _ in sink]
        latencies.extend(scaled)
        totals["gates"] += sum(p.gate_count() for _, _, _, p, _ in sink)
        totals["depth"] += sum(p.depth() for _, _, _, p, _ in sink)
        return len(sink), sum(s for _, _, s, _, _ in sink), sum(scaled)

    rate, ops, rounds = rounds_until(
        opts.seconds, step,
        lambda: tail_ready(len(latencies), TAIL_PERCENTILE))
    latency_metrics(out, "op_", latencies, "fresh compile", TAIL_PERCENTILE)
    if rate is not None:
        out.metric("ops_per_s", rate, "1/s", f"over {rounds} rounds: "
                   f"compiles per second, {ops} compiles")
    out.metric("setup_s", setup_s, "s")
    out.metric("peak_rss_mb", self_rss_mb(), "MB", "benchmark process")
    host.note(out)
    out.note(f"  (compile_p50_ms / compile_tail_ms = op_p50_ms / op_tail_ms;"
             f" compiled_gates_sum = {totals['gates']}, compiled_depth_sum ="
             f" {totals['depth']} over {rounds} rounds)")


def traced(opts, out, first):
    sink = []

    def run_unit(traced):
        compile_round(first, sink if traced else [], out)

    untraced_wall, traced_wall, spans = traced_unit(run_unit)
    check_outputs(out, sink, opts.seed)
    compile_layer_metrics(out, spans)
    self_time_metrics(out, spans, traced_wall)
    out.metric("obs.trace_overhead_ratio", traced_wall / untraced_wall,
               "ratio", "traced / untraced wall of round 0")
    out.metric("quality.gates_sum",
               sum(p.gate_count() for _, _, _, p, _ in sink),
               "count", "compiled gates over round 0")
    out.metric("quality.depth_sum", sum(p.depth() for _, _, _, p, _ in sink),
               "count", "compiled depth over round 0")
    out.metric("bench.ops_n", len(sink), "count")
    out.metric("bench.round_wall_s", traced_wall, "s", "traced round 0")
