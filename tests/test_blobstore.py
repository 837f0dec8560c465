"""Layout conformance for every persistent store (repro.blobstore).

The compile cache, result store, circuit store and trace sink share one
on-disk layout, ``<root>/<key[:2]>/<key><ext>``.  Each store, written
through its own API, must land there; listing, stats, gc and prefix
resolution must see exactly its entries and nothing foreign.
"""

import hashlib
import os

import pytest

from repro.api.circuits import CircuitStore
from repro.api.store import ResultStore
from repro.circuits.circuit import Circuit
from repro.circuits.gates import h
from repro.core.compiler import compile_circuit
from repro.core.config import CompilerConfig
from repro.exec.cache import CompileCache
from repro.hardware.topology import Topology
from repro.obs import TraceStore, span_record
from repro.workloads.registry import build_circuit

#: Enough entries that two must share a first hex digit (pigeonhole),
#: so every store has an ambiguous one-character prefix.
ENTRIES = 17


def _key(index, width=64):
    return hashlib.sha256(str(index).encode()).hexdigest()[:width]


@pytest.fixture(scope="module")
def program():
    return compile_circuit(build_circuit("bv", 4), Topology.square(3, 2.0),
                           CompilerConfig(max_interaction_distance=2.0))


def _compile_cache(root, program):
    cache = CompileCache(root)

    def write(index):
        cache.store(_key(index), program)
        return _key(index)
    return cache.disk, ".pkl", write


def _result_store(root, program):
    store = ResultStore(root)

    def write(index):
        store.put(_key(index), {"experiment": "layout", "index": index})
        return _key(index)
    return store, ".json", write


def _circuit_store(root, program):
    store = CircuitStore(root)

    def write(index):
        circuit = Circuit(index + 1)
        circuit.append(h(index))
        return store.add_circuit(circuit)
    return store, ".qasm", write


def _trace_store(root, program):
    store = TraceStore(root)

    def write(index):
        trace_id = _key(index, 32)
        store.emit(span_record(trace_id, "a" * 16, None, "x", "s", 1.0, 0.1))
        return trace_id
    return store, ".jsonl", write


STORES = [_compile_cache, _result_store, _circuit_store, _trace_store]


def _foreign_files(root, ext):
    """Files a store must neither list nor evict."""
    paths = [os.path.join(root, "ledger.jsonl"),
             os.path.join(root, "README" + ext),
             os.path.join(root, "ab", "notes.txt"),
             os.path.join(root, "ab", "cd" + "0" * 30 + ext)]
    for path in paths:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("foreign\n")
    # serve nests its circuit store inside the result store.
    nested = CircuitStore(os.path.join(root, "circuits"))
    nested.write_blob("ab" * 32, b"nested store entry")
    return paths + [nested.path_for("ab" * 32)]


@pytest.mark.parametrize("make", STORES, ids=lambda make: make.__name__[1:])
class TestLayoutConformance:
    def test_entries_land_in_key_shards(self, tmp_path, program, make):
        store, ext, write = make(str(tmp_path), program)
        keys = {write(index) for index in range(ENTRIES)}
        assert len(keys) == ENTRIES
        for key in keys:
            expected = os.path.join(str(tmp_path), key[:2], key + ext)
            assert store.path_for(key) == expected
            assert os.path.isfile(expected)

    def test_listing_and_gc_ignore_temp_and_foreign_files(
            self, tmp_path, program, make):
        store, ext, write = make(str(tmp_path), program)
        keys = {write(index) for index in range(ENTRIES)}
        foreign = _foreign_files(str(tmp_path), ext)
        shard = os.path.dirname(store.path_for(min(keys)))
        stale = os.path.join(shard, ".tmp-dead" + ext)
        live = os.path.join(shard, ".tmp-live" + ext)
        for path in (stale, live):
            with open(path, "wb") as handle:
                handle.write(b"x" * 10)
        os.utime(stale, (1, 1))  # a writer that died long ago

        rows = store.entries()
        assert {key for key, _, _, _ in rows} == keys
        assert store.stats()["entries"] == ENTRIES
        assert store.stats()["total_bytes"] == sum(row[2] for row in rows)

        outcome = store.gc(0)
        assert outcome == {"removed": ENTRIES, "remaining_entries": 0,
                           "remaining_bytes": 0}
        assert store.entries() == []
        assert all(os.path.exists(path) for path in foreign)
        assert not os.path.exists(stale)
        assert os.path.exists(live)

    def test_prefix_resolution(self, tmp_path, program, make):
        store, _, write = make(str(tmp_path), program)
        keys = sorted(write(index) for index in range(ENTRIES))
        for key in keys:
            assert store.resolve(key) == key
            assert store.resolve(key[:12]) == key
        shared = next(key[0] for key in keys
                      if sum(k.startswith(key[0]) for k in keys) > 1)
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve(shared)
        assert store.resolve("zz") is None
