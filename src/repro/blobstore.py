"""Sharded, content-addressed blob files: the one on-disk layout under
every persistent store.

The compile cache (:mod:`repro.exec.cache`), the result store
(:mod:`repro.api.store`), the circuit store (:mod:`repro.api.circuits`)
and the trace sink (:mod:`repro.obs.store`) all keep one file per key at
``<root>/<key[:2]>/<key><ext>``.  A :class:`BlobStore` is the single
home of that layout and of its policy:

* **Atomic writes.**  Bytes go to a ``.tmp-*`` file in the shard, then
  ``os.replace`` onto the entry, so concurrent writers (threads, spawn
  workers, separate processes) never expose a torn entry.
* **Conforming files only.**  Listing, stats, gc and prefix resolution
  see only ``<key><ext>`` files inside two-character shard directories
  whose name is the key's prefix.  In-flight temp files, the result
  store's ``ledger.jsonl`` and a store nested inside another (``serve``
  keeps ``circuits/`` under its result store) are never listed, counted
  or evicted.
* **LRU gc.**  :meth:`BlobStore.gc` evicts least-recently-used entries,
  in (mtime, key) order, until the entries fit a byte budget.  Coarse
  (1 s) filesystem mtimes routinely tie between files written in one
  burst; the key tie-break keeps eviction deterministic.  Reads that
  count as use call :meth:`BlobStore.touch`.  gc first sweeps temp
  files older than :data:`STALE_TEMP_SECONDS`: orphans from writers
  that died mid-write never become entries, so evicting entries alone
  could leave the directory over budget forever.
* **Degrade, announced once.**  An unwritable root degrades to not
  persisting, with one stderr line per store object.

Stdlib only, and outside :mod:`repro.exec`, so :mod:`repro.obs` can use
it without importing the execution engine.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: Prefix marking an in-flight atomic write.
TEMP_PREFIX = ".tmp-"

#: Age past which gc treats a temp file as an orphan of a dead writer.
STALE_TEMP_SECONDS = 3600.0

#: One listed entry: ``(key, path, bytes, mtime)``.
Entry = Tuple[str, str, int, float]


class BlobStore:
    """One directory of ``<key[:2]>/<key><ext>`` files.

    ``label`` names the store in messages (``"result store"``);
    ``degrade`` says what an unwritable root costs (``"uploads will not
    persist"``).
    """

    def __init__(self, path: str, ext: str, label: str, degrade: str):
        self.path = os.path.abspath(path)
        self.ext = ext
        self.label = label
        self.degrade = degrade
        self._warned_unwritable = False

    def path_for(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + self.ext)

    def warn_unwritable(self, error: OSError) -> None:
        """One stderr line the first time persistence fails: the degrade
        must be observable, or an unwritable volume silently recomputes
        (or drops) forever."""
        if self._warned_unwritable:
            return
        self._warned_unwritable = True
        print(f"[{self.label} {self.path} is not writable ({error}); "
              f"{self.degrade}]", file=sys.stderr)

    # -- entry i/o ---------------------------------------------------------------

    def write_blob(self, key: str, data: bytes) -> None:
        """Persist ``data`` under ``key`` atomically; an unwritable root
        warns once and persists nothing."""
        target = self.path_for(key)
        directory = os.path.dirname(target)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=directory, prefix=TEMP_PREFIX, suffix=self.ext)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_path, target)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self.warn_unwritable(error)

    def read_blob(self, key: str) -> Optional[bytes]:
        """The entry's bytes, or ``None`` when it is missing or
        unreadable.  Does not touch: callers touch only after the bytes
        validate."""
        try:
            with open(self.path_for(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def touch(self, key: str) -> None:
        """Mark ``key`` most-recently-used for :meth:`gc`."""
        try:
            os.utime(self.path_for(key))
        except OSError:
            pass

    # -- listing and maintenance -------------------------------------------------

    def _shard_files(self) -> Iterator[Tuple[str, str, str]]:
        """``(shard, path, name)`` for every file in a two-character
        shard directory; files anywhere else are foreign."""
        try:
            shards = os.listdir(self.path)
        except OSError:
            return
        for shard in shards:
            if len(shard) != 2:
                continue
            directory = os.path.join(self.path, shard)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                yield shard, os.path.join(directory, name), name

    def entries(self) -> List[Entry]:
        """Every entry as ``(key, path, bytes, mtime)``, least-recently-
        used first; a file deleted mid-listing is silently dropped."""
        rows = []
        for shard, target, name in self._shard_files():
            if name.startswith(TEMP_PREFIX) or not name.endswith(self.ext):
                continue
            key = name[:-len(self.ext)]
            if not key.startswith(shard):
                continue
            try:
                info = os.stat(target)
            except OSError:
                continue
            rows.append((key, target, info.st_size, info.st_mtime))
        rows.sort(key=lambda row: (row[3], row[0]))
        return rows

    def stats(self) -> Dict[str, object]:
        rows = self.entries()
        return {
            "path": self.path,
            "entries": len(rows),
            "total_bytes": sum(row[2] for row in rows),
        }

    def resolve(self, prefix: str) -> Optional[str]:
        """The unique key starting with ``prefix`` (an exact key always
        wins), or ``None``; raises ``KeyError`` naming candidates when
        the prefix is ambiguous."""
        matches = sorted(key for key, _, _, _ in self.entries()
                         if key.startswith(prefix))
        if prefix in matches:
            return prefix
        if len(matches) > 1:
            shown = ", ".join(key[:16] for key in matches[:5])
            raise KeyError(f"{self.label} prefix {prefix!r} is ambiguous: "
                           f"{shown}{', …' if len(matches) > 5 else ''}")
        return matches[0] if matches else None

    def sweep_temp(self, max_age_seconds: float) -> None:
        """Remove ``.tmp-*`` files older than ``max_age_seconds``.

        The age guard protects a live concurrent writer about to
        ``os.replace``.  The comparison is strict: mtimes can be as
        coarse as one second, so a file stamped in the same second as
        the cutoff counts as *newer* than it, or a just-created temp
        file would be swept out from under its writer.
        """
        cutoff = time.time() - max_age_seconds
        for _, target, name in self._shard_files():
            if not name.startswith(TEMP_PREFIX):
                continue
            try:
                if os.stat(target).st_mtime < cutoff:
                    os.unlink(target)
            except OSError:
                pass

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until they fit
        ``max_bytes``; returns ``{"removed", "remaining_entries",
        "remaining_bytes"}``."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.sweep_temp(STALE_TEMP_SECONDS)
        rows = self.entries()
        total = sum(row[2] for row in rows)
        removed = 0
        for _, target, size, _ in rows:
            if total <= max_bytes:
                break
            try:
                os.unlink(target)
            except OSError:
                continue
            total -= size
            removed += 1
        return {
            "removed": removed,
            "remaining_entries": len(rows) - removed,
            "remaining_bytes": total,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"
