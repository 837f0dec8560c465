"""Layer probes for traced benchmark runs.

``install()`` wraps the public entry points of each layer so that every
call records a ``repro.obs`` span named ``<layer>.<stage>``.  The spans
go wherever the program's own spans go (an in-memory ``SpanBuffer`` for
in-process workloads, the ``--trace-dir`` store for the ``repro serve``
subprocess), so one span tree holds both the program's
spans (``compile``, ``shots``, ``tasks``, ``server.request``, ...) and
these.  Untraced runs never call ``install()``.

``capture_programs`` installs only the ``compile_circuit`` wrapper,
without spans, so that an untraced run can keep every compiled program
for its output checks; ``install()`` turns that same wrapper's spans on.

Counts that are too frequent for one span per call (routing proposals)
are accumulated per thread and attached as an attribute to the enclosing
``core.schedule`` span.
"""

from __future__ import annotations

import functools
import threading

_local = threading.local()


def _span():
    from repro.obs import trace

    return trace.span


def _wrap(owner, attr, name, annotate=None):
    """Replace ``owner.attr`` by a wrapper recording span ``name``.

    ``annotate(result, args, kwargs) -> dict`` adds span attributes
    computed from the call's result.
    """
    original = getattr(owner, attr)
    span = _span()

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with span(name) as handle:
            result = original(*args, **kwargs)
            if annotate is not None:
                handle.set(**annotate(result, args, kwargs))
            return result

    setattr(owner, attr, wrapper)
    return original


class _Compile:
    """State of the one ``compile_circuit`` wrapper."""

    installed = False
    #: Record ``core.compile`` spans (set by ``install()``).
    spans = False
    #: List that receives ``(program, active sites, MID)``, or None.
    programs = None


def _wrap_compile():
    """``core.compile`` with outcome and quality attributes; failures
    (``CompilationError``, stalls included) are stamped by the span's
    ``error`` attribute.  Also hands each program to
    ``_Compile.programs``."""
    if _Compile.installed:
        return
    _Compile.installed = True
    import repro.core.compiler as compiler_module

    original = compiler_module.compile_circuit
    span = _span()

    @functools.wraps(original)
    def compile_circuit(circuit, topology, config=None):
        if _Compile.spans:
            with span("core.compile") as handle:
                program = original(circuit, topology, config)
                handle.set(timesteps=len(program.schedule),
                           swaps=program.swap_count,
                           gates=program.gate_count(),
                           depth=program.depth())
        else:
            program = original(circuit, topology, config)
        if _Compile.programs is not None:
            _Compile.programs.append((program,
                                      tuple(topology.active_sites()),
                                      topology.max_interaction_distance))
        return program

    compiler_module.compile_circuit = compile_circuit


def capture_programs(programs):
    """Append every program ``compile_circuit`` returns from now on, with
    the active sites and MID it was compiled for, to the list
    ``programs``; ``None`` stops capturing."""
    _wrap_compile()
    _Compile.programs = programs


def _wrap_schedule(compiler_module, scheduler_module):
    """``core.schedule`` spans carrying the ``propose_swap`` call count
    made inside them (per thread: the server compiles on two)."""
    propose = scheduler_module.propose_swap

    @functools.wraps(propose)
    def counted_propose(*args, **kwargs):
        _local.proposals = getattr(_local, "proposals", 0) + 1
        return propose(*args, **kwargs)

    scheduler_module.propose_swap = counted_propose
    schedule = compiler_module.schedule_circuit
    span = _span()

    @functools.wraps(schedule)
    def schedule_circuit(*args, **kwargs):
        before = getattr(_local, "proposals", 0)
        with span("core.schedule") as handle:
            try:
                return schedule(*args, **kwargs)
            finally:
                handle.set(proposals=getattr(_local, "proposals", 0) - before)

    compiler_module.schedule_circuit = schedule_circuit


def _wrap_on_loss(cls):
    original = cls.on_loss
    span = _span()

    @functools.wraps(original)
    def on_loss(self, site):
        with span("loss.on_loss", strategy=self.name) as handle:
            outcome = original(self, site)
            handle.set(coped=outcome.coped,
                       recompiled=outcome.recompile_seconds > 0)
            return outcome

    cls.on_loss = on_loss


def install() -> None:
    """Wrap every probed layer entry point (idempotent per process)."""
    if getattr(install, "done", False):
        return
    install.done = True

    import repro.core.compiler as compiler
    import repro.core.scheduler as scheduler
    import repro.exec.cache as cache
    import repro.experiments.fig10_loss_tolerance as fig10
    import repro.hardware.loss as hw_loss
    import repro.loss.runner as runner
    from repro.api.store import ResultStore
    from repro.loss.strategies import (AlwaysRecompile, AlwaysReload,
                                       VirtualRemap)

    # circuits: lowering
    _wrap(compiler, "decompose_circuit", "circuits.decompose",
          lambda result, args, kwargs: {"gates_out": len(result)})
    # core: the compile pipeline, stage by stage
    _wrap_compile()
    _Compile.spans = True
    _wrap(compiler, "CircuitDag", "core.dag_weights")
    _wrap(compiler, "initial_weights", "core.dag_weights")
    _wrap(compiler, "initial_mapping", "core.placement")
    _wrap_schedule(compiler, scheduler)
    # exec: compile cache and task fan-out
    _wrap(cache, "compile_key", "exec.compile_key")
    _wrap(cache.CompileCache, "lookup", "exec.cache_lookup",
          lambda result, args, kwargs: {"hit": result is not None})
    # loss + hardware: trials, strategies, shot sampling
    _wrap(fig10, "max_loss_tolerance", "loss.tolerance_trial")
    for cls in (AlwaysRecompile, AlwaysReload, VirtualRemap):
        _wrap_on_loss(cls)
    _wrap(runner.ShotRunner, "_reload", "loss.reload")
    _wrap(runner.ShotRunner, "run", "loss.shot_batch",
          lambda result, args, kwargs: {"shots": result.shots_attempted})
    _wrap(hw_loss.ShotLossSampler, "sample", "hardware.loss_sample")
    # api: the result store (Session.run has its own session.run span)
    _wrap(ResultStore, "get", "api.store_get")
    _wrap(ResultStore, "put", "api.store_put")
    _wrap(ResultStore, "record", "api.ledger_record")
