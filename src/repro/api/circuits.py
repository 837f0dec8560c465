"""Content-addressed on-disk store of uploaded circuits.

The circuit-side sibling of :class:`repro.api.store.ResultStore`: a
:class:`CircuitStore` persists user-supplied programs under their
canonical gate-stream digest (:func:`repro.circuits.digest.
circuit_digest`), so a ``circuit:<digest>`` workload reference resolves
to the same program on any machine that holds the bytes — the server,
a fleet worker's local cache, a developer laptop.

What is stored is the **canonical QASM text** (``to_qasm(from_qasm(
upload))``), not the upload verbatim: comments, blank lines, and
whitespace are not part of program identity, so two uploads differing
only in those collapse to one entry, and ``GET /circuits/<digest>``
returns byte-identical text everywhere.  The on-disk layout, atomic
writes and LRU gc are the shared :class:`repro.blobstore.BlobStore`
ones (``<digest[:2]>/<digest>.qasm``).

Reads re-verify: :meth:`get` re-digests the parsed circuit and treats a
mismatch (torn write, tampered file) as a miss rather than silently
running the wrong program under a right-looking name.  Re-adding a
digest is a no-op only over an entry that verifies; a corrupt entry is
rewritten, so a re-upload heals it.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.blobstore import BlobStore
from repro.circuits.circuit import Circuit
from repro.circuits.digest import circuit_digest, is_circuit_digest
from repro.circuits.qasm import from_qasm, to_qasm

#: Environment variable naming the default circuit-store directory.
CIRCUIT_DIR_ENV = "REPRO_CIRCUIT_DIR"


class CircuitStore(BlobStore):
    """On-disk circuits keyed by canonical gate-stream digest."""

    def __init__(self, path: str):
        super().__init__(path, ".qasm", "circuit store",
                         "uploads will not persist")

    # -- ingestion ---------------------------------------------------------------

    def add(self, qasm_text: str) -> str:
        """Ingest QASM text; returns the digest.  Idempotent.

        Parses through :func:`repro.circuits.qasm.from_qasm` (so every
        validation error it raises applies here) and stores the
        canonical re-serialization.  Propagates ``ValueError`` on
        malformed programs; an unwritable directory degrades to
        in-memory-only (the digest is still returned, nothing persists).
        """
        return self.add_circuit(from_qasm(qasm_text))

    def add_circuit(self, circuit: Circuit) -> str:
        """Ingest an in-memory circuit; returns the digest.  Writes
        unless a verified entry already exists, so a corrupt entry is
        replaced rather than kept forever."""
        digest = circuit_digest(circuit)
        if self.get(digest) is None:
            self.write_blob(digest, to_qasm(circuit).encode("utf-8"))
        return digest

    # -- retrieval ---------------------------------------------------------------

    def get_qasm(self, digest: str) -> Optional[str]:
        """The stored canonical QASM text for ``digest``, or ``None``."""
        if not is_circuit_digest(digest):
            return None
        data = self.read_blob(digest)
        try:
            return None if data is None else data.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def get(self, digest: str) -> Optional[Circuit]:
        """The circuit stored under ``digest``, or ``None``.

        Verified: the parsed circuit must re-digest to ``digest``; a
        corrupt or tampered entry is a miss, never a wrong program.  A
        hit touches mtime so :meth:`gc` evicts least-recently-used
        entries first.
        """
        text = self.get_qasm(digest)
        if text is None:
            return None
        try:
            circuit = from_qasm(text)
        except ValueError:
            return None
        if circuit_digest(circuit) != digest:
            return None
        self.touch(digest)
        return circuit

    def has(self, digest: str) -> bool:
        """Cheap existence check (no parse, no verification) for the
        store-hit path; :meth:`get` is the verified read."""
        return (is_circuit_digest(digest)
                and os.path.exists(self.path_for(digest)))
