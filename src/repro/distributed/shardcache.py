"""Content-addressed shard cache: ship each shard's codes at most once.

Every shard the coordinator places on a worker is an immutable ``(codes,
n_categories)`` pair, so it has a stable identity: the SHA-256 over the raw
code bytes plus the shape/dtype/vocabulary header.  :func:`shard_content_key`
computes that key and :class:`ShardCache` maps keys to ``.npz`` files in a
directory, which buys the runtime two things:

* **No re-handshake re-ship.**  A fresh executor over the same data (a new
  fit, an MCDC restart, a reconnect) opens its ``hello`` with just the
  content key; a worker that already holds the shard — in its cache from a
  previous session — answers ``welcome`` directly and *zero* payload bytes
  travel.  Only on a miss does the worker ask (``need_codes``) and the
  coordinator ship.
* **Cheap recovery.**  When a worker dies mid-fit, the replacement host can
  restore the shard from its cache (or the shared cache directory) instead
  of waiting for a full re-ship, which is what keeps the recovery path in
  :mod:`repro.distributed.resilience` fast for large shards.

Layout: ``<directory>/<key[:2]>/<key>.npz`` (two-level fan-out so huge
caches do not degenerate into one giant directory), each file a
pickle-free ``np.savez`` archive of ``codes`` + ``ncat``.  Writes are atomic
(temp file + ``os.replace``) so concurrent coordinators/workers sharing one
directory — the single-machine deployment — can never observe a torn entry;
a corrupt or truncated file is treated as a miss and overwritten.

**Byte budget (LRU).**  A long-lived cache would grow without bound: every
new dataset or shard layout gets new content keys, so the cache accumulates
one entry per distinct shard it ever saw.  ``max_bytes`` (or the
``REPRO_SHARD_CACHE_MAX`` environment variable, e.g. ``512m``/``2g``) caps
the directory: after each :meth:`put` the least-recently-*used* entries are
evicted — reads touch an entry's mtime — until the total is back under
budget.  Eviction is best-effort and crash-safe: a concurrently deleted file
is simply skipped, and an evicted entry is just a future cache miss.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["shard_content_key", "parse_byte_size", "ShardCache"]

#: Environment variable supplying a default byte budget for every cache.
CACHE_MAX_ENV = "REPRO_SHARD_CACHE_MAX"

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_byte_size(value: Union[str, int, float, None]) -> Optional[int]:
    """``"512m"`` / ``"2g"`` / ``"1048576"`` -> bytes (``None``/"" -> None)."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        size = int(value)
    else:
        text = str(value).strip().lower()
        if not text:
            return None
        factor = 1
        if text[-1] in _SIZE_SUFFIXES:
            factor = _SIZE_SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            size = int(float(text) * factor)
        except ValueError:
            raise ValueError(
                f"malformed byte size {value!r}; use e.g. 1048576, '512m', '2g'"
            ) from None
    if size <= 0:
        raise ValueError(f"byte size must be positive, got {value!r}")
    return size


def shard_content_key(codes: np.ndarray, n_categories: Sequence[int]) -> str:
    """Stable hex digest identifying one shard's ``(codes, n_categories)``.

    Hashes the C-order int64 bytes plus a header of shape, dtype and the
    per-feature vocabulary sizes, so two shards collide only if they are the
    same data under the same encoding — the condition under which a cached
    copy is a bit-exact substitute for a re-ship.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    digest = hashlib.sha256()
    header = "{}|{}|{}".format(
        codes.shape, codes.dtype.str, ",".join(str(int(m)) for m in n_categories)
    )
    digest.update(header.encode("ascii"))
    digest.update(codes.tobytes())
    return digest.hexdigest()


class ShardCache:
    """A directory of content-addressed shard payloads (``.npz`` files).

    Safe for concurrent use by any number of processes sharing the
    directory: :meth:`put` is atomic and idempotent (same key => same
    bytes), :meth:`get` treats unreadable entries as misses.

    ``max_bytes`` bounds the directory with least-recently-used eviction
    (see module docs); ``None`` falls back to ``REPRO_SHARD_CACHE_MAX``
    (unbounded when that is unset too).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: Union[str, int, None] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            max_bytes = os.environ.get(CACHE_MAX_ENV) or None
        self.max_bytes = parse_byte_size(max_bytes)
        self.evictions = 0

    def path_for(self, key: str) -> Path:
        """Where ``key``'s payload lives (two-level fan-out)."""
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed shard content key {key!r}")
        return self.directory / key[:2] / f"{key}.npz"

    def has(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def put(self, key: str, codes: np.ndarray, n_categories: Sequence[int]) -> Path:
        """Store one shard under ``key`` (atomic; no-op if already present)."""
        path = self.path_for(key)
        if path.is_file():
            self._touch(path)
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=".shard-", suffix=".tmp", delete=False
        )
        try:
            np.savez(
                handle,
                codes=np.ascontiguousarray(codes, dtype=np.int64),
                ncat=np.asarray(list(n_categories), dtype=np.int64),
            )
            handle.close()
            os.replace(handle.name, path)
        except BaseException:  # pragma: no cover - leave no temp litter behind
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._evict_over_budget(keep=path)
        return path

    def get(self, key: str) -> Optional[Tuple[np.ndarray, List[int]]]:
        """The cached ``(codes, n_categories)`` for ``key``, or ``None``.

        A missing, truncated or otherwise unreadable entry is a miss — the
        caller re-ships and :meth:`put` replaces the bad file — so a crashed
        writer can never wedge every later session on a corrupt cache.
        """
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                codes = np.asarray(archive["codes"], dtype=np.int64)
                ncat = [int(m) for m in archive["ncat"]]
        except (OSError, ValueError, KeyError, EOFError):
            return None
        self._touch(path)  # a hit makes the entry recently used
        return codes, ncat

    # ------------------------------------------------------------------ #
    # LRU byte budget
    # ------------------------------------------------------------------ #
    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away; harmless
            pass

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Every cache file as ``(mtime, size, path)`` (missing ones skipped)."""
        out: List[Tuple[float, int, Path]] = []
        for path in self.directory.glob("??/*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((stat.st_mtime, int(stat.st_size), path))
        return out

    def total_bytes(self) -> int:
        """Current payload bytes resident in the cache directory."""
        return sum(size for _, size, _ in self._entries())

    def _evict_over_budget(self, keep: Optional[Path] = None) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The just-written entry (``keep``) is never evicted by its own put —
        even when it alone exceeds the budget — because the caller is about
        to rely on it; it becomes an ordinary candidate afterwards.
        """
        if self.max_bytes is None:
            return
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):  # oldest mtime first
            if keep is not None and path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = "" if self.max_bytes is None else f", max_bytes={self.max_bytes}"
        return f"ShardCache({str(self.directory)!r}{budget})"
