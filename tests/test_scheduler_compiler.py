"""Integration tests for the scheduler and the top-level compiler."""

import pytest

from repro.circuits import Circuit
from repro.circuits.gates import ccx, cx, h, x
from repro.core import (
    CompilationError,
    CompilerConfig,
    check_compiled,
    compile_circuit,
    max_native_arity_for_distance,
)
from repro.core import scheduler
from repro.core.errors import DisconnectedTopologyError, SchedulingStalledError
from repro.core.result import CompiledProgram
from repro.core.scheduler import schedule_circuit
from repro.hardware import Grid, Topology
from repro.workloads import bernstein_vazirani, build_circuit, cuccaro_adder


def compile_on(circuit, side, mid, **config_kwargs):
    topo = Topology.square(side, mid)
    config = CompilerConfig(max_interaction_distance=mid, **config_kwargs)
    return compile_circuit(circuit, topo, config)


class TestScheduleInvariants:
    def test_all_source_gates_scheduled_once(self):
        program = compile_on(bernstein_vazirani(6), 3, 1.0,
                             restriction_radius="none", native_max_arity=2)
        source_indices = [op.source_index for op in program.ops
                          if not op.is_swap]
        assert sorted(source_indices) == list(range(len(program.source)))

    def test_ops_within_interaction_distance(self):
        program = compile_on(build_circuit("qaoa", 9), 3, 2.0)
        topo = Topology.square(3, 2.0)
        for op in program.ops:
            for i in range(len(op.sites)):
                for j in range(i + 1, len(op.sites)):
                    assert topo.distance(op.sites[i], op.sites[j]) <= 2.0 + 1e-9

    def test_no_site_reuse_within_timestep(self):
        program = compile_on(build_circuit("cnu", 8), 3, 2.0)
        for timestep in program.schedule:
            seen = set()
            for op in timestep:
                assert not (set(op.sites) & seen)
                seen.update(op.sites)

    def test_zones_disjoint_within_timestep(self):
        program = compile_on(build_circuit("qft-adder", 8), 3, 2.0)
        model = program.config.restriction_model()
        grid = Grid(3, 3)
        for timestep in program.schedule:
            for i in range(len(timestep)):
                for j in range(i + 1, len(timestep)):
                    a = [grid.position(s) for s in timestep[i].sites]
                    b = [grid.position(s) for s in timestep[j].sites]
                    assert not model.conflict(a, b)

    def test_final_layout_consistent_with_swaps(self):
        program = compile_on(bernstein_vazirani(6), 3, 1.0,
                             restriction_radius="none", native_max_arity=2)
        # Replay the swaps over the initial layout.
        site_of = dict(program.initial_layout)
        inverse = {s: q for q, s in site_of.items()}
        for op in program.ops:
            if not op.is_swap:
                continue
            a, b = op.sites
            qa, qb = inverse.pop(a, None), inverse.pop(b, None)
            if qa is not None:
                site_of[qa] = b
                inverse[b] = qa
            if qb is not None:
                site_of[qb] = a
                inverse[a] = qb
        assert site_of == program.final_layout


class TestSemanticEquivalence:
    @pytest.mark.parametrize("mid", [1.0, 2.0])
    def test_bv_equivalent(self, mid):
        config = dict(native_max_arity=2)
        if mid == 1.0:
            config["restriction_radius"] = "none"
        program = compile_on(bernstein_vazirani(6), 3, mid, **config)
        assert check_compiled(program)

    def test_cuccaro_native_equivalent(self):
        program = compile_on(cuccaro_adder(2), 3, 2.0)
        assert check_compiled(program)

    def test_cnu_equivalent(self):
        program = compile_on(build_circuit("cnu", 8), 3, 2.0)
        assert check_compiled(program)

    def test_qaoa_equivalent(self):
        program = compile_on(build_circuit("qaoa", 6), 3, 2.0)
        assert check_compiled(program)

    def test_qft_adder_equivalent(self):
        program = compile_on(build_circuit("qft-adder", 6), 3, 2.0)
        assert check_compiled(program)

    def test_equivalence_on_rectangular_grid(self):
        topo = Topology(Grid(3, 4), 2.0)
        program = compile_circuit(
            bernstein_vazirani(7), topo,
            CompilerConfig(max_interaction_distance=2.0),
        )
        assert check_compiled(program)


class TestCompilerPolicies:
    def test_native_arity_by_distance(self):
        assert max_native_arity_for_distance(1.0) == 2
        assert max_native_arity_for_distance(1.5) == 4
        assert max_native_arity_for_distance(3.0) == 8

    def test_toffoli_decomposed_at_mid_1(self):
        program = compile_on(Circuit(3, [ccx(0, 1, 2)]), 3, 1.0,
                             native_max_arity=3)
        assert all(len(op.sites) <= 2 for op in program.ops)

    def test_toffoli_native_at_mid_2(self):
        program = compile_on(Circuit(3, [ccx(0, 1, 2)]), 3, 2.0,
                             native_max_arity=3)
        arities = [len(op.sites) for op in program.ops if not op.is_swap]
        assert 3 in arities

    def test_config_mid_follows_topology(self):
        topo = Topology.square(3, 2.0)
        program = compile_circuit(
            Circuit(2, [cx(0, 1)]), topo,
            CompilerConfig(max_interaction_distance=5.0),
        )
        assert program.config.max_interaction_distance == 2.0

    def test_too_large_program_rejected(self):
        with pytest.raises(CompilationError):
            compile_on(bernstein_vazirani(20), 3, 1.0)

    def test_disconnected_topology_raises(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        circuit = Circuit(4, [cx(0, 1), cx(2, 3), cx(0, 3), cx(1, 2)])
        with pytest.raises(CompilationError):
            compile_circuit(circuit, topo,
                            CompilerConfig(max_interaction_distance=1.0))

    def test_compile_on_holey_but_connected(self):
        topo = Topology.square(4, 2.0)
        for site in (5, 10):
            topo.remove_atom(site)
        program = compile_circuit(
            bernstein_vazirani(8), topo,
            CompilerConfig(max_interaction_distance=2.0),
        )
        lost = topo.lost_sites
        for op in program.ops:
            assert not (set(op.sites) & lost)


#: A hole pattern on the 10x10 MID-2 device on which compiling cnu-30
#: livelocks: the router settles into a SWAP undone by the next one.
LIVELOCK_LOST_SITES = (
    5, 8, 13, 14, 17, 18, 19, 26, 34, 38, 44, 47, 48, 50, 52, 54, 57, 58,
    62, 63, 64, 65, 74, 81, 83, 85, 86, 87, 91, 96, 99,
)


class TestSchedulerLivelock:
    def test_livelock_stops_at_first_repeated_layout(self, monkeypatch):
        calls = []
        real_propose_swap = scheduler.propose_swap

        def counting_propose_swap(*args, **kwargs):
            calls.append(None)
            return real_propose_swap(*args, **kwargs)

        monkeypatch.setattr(scheduler, "propose_swap", counting_propose_swap)
        topo = Topology.square(10, 2.0)
        for site in LIVELOCK_LOST_SITES:
            topo.remove_atom(site)
        with pytest.raises(SchedulingStalledError, match="repeats timestep"):
            compile_circuit(build_circuit("cnu", 30), topo,
                            CompilerConfig(max_interaction_distance=2.0))
        # Running out the default 200 x (gates + 1) timestep budget
        # instead costs about 6,000 proposals.
        assert 0 < len(calls) < 100

    def test_long_swap_only_route_still_compiles(self):
        # Opposite ends of a 12-site MID-1 line, with a spectator qubit in
        # the way: bringing the operands together takes a long run of
        # SWAP-only timesteps, none of which may look like a livelock.
        topo = Topology(Grid(1, 12), 1.0)
        circuit = Circuit(3, [h(0), cx(0, 1), x(2), cx(2, 0)])
        config = CompilerConfig(max_interaction_distance=1.0)
        layout = {0: 0, 1: 11, 2: 5}
        schedule, final_layout = schedule_circuit(circuit, topo, config, layout)
        swap_only = [all(op.is_swap for op in step) for step in schedule]
        longest_run = run = 0
        for flag in swap_only:
            run = run + 1 if flag else 0
            longest_run = max(longest_run, run)
        assert longest_run >= 8
        program = CompiledProgram(
            source=circuit, config=config, grid_shape=(1, 12),
            initial_layout=layout, final_layout=final_layout,
            schedule=schedule,
        )
        assert check_compiled(program)


class TestMetricsTrends:
    def test_gate_count_decreases_with_mid(self):
        circuit = bernstein_vazirani(20)
        counts = []
        for mid in (1.0, 2.0, 3.0):
            program = compile_on(circuit, 5, mid, native_max_arity=2)
            counts.append(program.gate_count())
        assert counts[0] >= counts[1] >= counts[2]

    def test_full_connectivity_needs_no_swaps(self):
        circuit = bernstein_vazirani(16)
        program = compile_on(circuit, 4, 4.25, native_max_arity=2)
        assert program.swap_count == 0
        assert program.gate_count() == len(circuit)

    def test_gate_count_identity(self):
        program = compile_on(bernstein_vazirani(10), 4, 1.0,
                             restriction_radius="none", native_max_arity=2)
        assert program.gate_count() == (
            program.op_count + 2 * program.swap_count
        )

    def test_counts_by_arity_includes_swaps(self):
        program = compile_on(bernstein_vazirani(10), 4, 1.0,
                             restriction_radius="none", native_max_arity=2)
        counts = program.counts_by_arity()
        source_2q = sum(1 for g in program.source if g.arity == 2)
        assert counts[2] == source_2q + 3 * program.swap_count

    def test_depth_at_least_critical_path(self):
        program = compile_on(build_circuit("cuccaro", 8), 3, 2.0)
        assert program.depth() >= program.source.depth()

    def test_duration_positive_and_scales(self):
        from repro.hardware import NoiseModel
        noise = NoiseModel.neutral_atom()
        small = compile_on(bernstein_vazirani(5), 3, 2.0)
        large = compile_on(bernstein_vazirani(9), 3, 2.0)
        assert 0 < small.duration(noise) < large.duration(noise)

    def test_zone_serialization_increases_depth(self):
        circuit = build_circuit("qft-adder", 16)
        zoned = compile_on(circuit, 5, 4.0, restriction_radius="half",
                           native_max_arity=2)
        ideal = compile_on(circuit, 5, 4.0, restriction_radius="none",
                           native_max_arity=2)
        assert zoned.depth() >= ideal.depth()

    def test_used_and_measured_sites(self):
        program = compile_on(bernstein_vazirani(6), 3, 2.0)
        used = program.used_sites()
        assert set(program.initial_layout.values()) <= used
        assert program.measured_sites() == set(program.final_layout.values())

    def test_summary_keys(self):
        program = compile_on(bernstein_vazirani(5), 3, 2.0)
        summary = program.summary()
        assert {"qubits", "mid", "ops", "gates", "swaps", "depth",
                "timesteps"} <= set(summary)
