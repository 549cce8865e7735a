"""Transactional catalog — atomic MULTI-TABLE snapshots over
``state/versioned.py`` tables (the Iceberg-catalog idea, reduced to
what a training pipeline needs): curation jobs commit to individual
tables continuously, but a training run pins ONE catalog version and
sees a CONSISTENT set of table versions — never table A's new commit
joined against table B's old one, and never a table commit that no
catalog publish has blessed.

- tables live under ``root/tables/<name>/`` (each its own versioned
  table with its own commit log);
- catalog publish = one line ``{version, pins: {table: version}}``
  appended to ``root/_catalog.json`` via atomic rename — the same
  crash contract as the table logs (a crashed publish is invisible,
  readers keep resolving the previous catalog version);
- ``publish()`` validates every pinned version against its table's
  own log BEFORE the append, so a catalog can never reference an
  orphan or unwritten commit;
- the append is a whole-file read-modify-write, so CONCURRENT
  publishers are serialized through an ``O_EXCL`` lock file
  (``_catalog.lock``): without it two publishers could both read
  version N and one publish would be silently lost. Readers never
  take the lock (the rename keeps reads atomic); a publisher that
  dies holding the lock leaves a stale lock file, broken by age
  (> ``_LOCK_STALE_SEC``) — acceptable for a driver-side control
  plane where publishes are rare and short.
"""

from __future__ import annotations

import json
import os
import time

from .versioned import latest_version, read_as_of

_CATALOG = "_catalog.json"
_LOCK_STALE_SEC = 60.0


class _PublishLock:
    """O_EXCL lock file serializing read→append→rename publishers."""

    def __init__(self, root: str, timeout: float = 30.0):
        self.path = os.path.join(root, "_catalog.lock")
        self.timeout = timeout

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self
            except FileExistsError:
                try:  # break locks orphaned by a dead publisher
                    if time.time() - os.path.getmtime(
                            self.path) > _LOCK_STALE_SEC:
                        os.unlink(self.path)
                        continue
                except OSError:
                    pass  # raced with the holder's release — retry
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"catalog publish lock {self.path} held > "
                        f"{self.timeout}s") from None
                time.sleep(0.05)

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except OSError:
            pass
        return False


def table_root(root: str, table: str) -> str:
    return os.path.join(root, "tables", table)


def _read_catalog(root: str) -> list[dict]:
    path = os.path.join(root, _CATALOG)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def publish(root: str, pins: dict[str, int]) -> int:
    """Atomically publish a catalog version pinning each table to a
    specific committed version. Raises if any pin references a version
    its table's log does not contain. Concurrent publishers serialize
    on the ``_catalog.lock`` file so no publish is ever lost."""
    for table, v in pins.items():
        have = latest_version(table_root(root, table))
        if not (1 <= v <= have):
            raise ValueError(
                f"cannot pin {table!r} at v{v}: table log has {have} "
                "commit(s)")
    os.makedirs(root, exist_ok=True)
    with _PublishLock(root):
        log = _read_catalog(root)
        version = max((e["version"] for e in log), default=0) + 1
        log.append({"version": version, "pins": dict(pins)})
        tmp = os.path.join(root, _CATALOG + ".tmp")
        with open(tmp, "w") as f:
            json.dump(log, f)
        os.replace(tmp, os.path.join(root, _CATALOG))
    return version


def pins_as_of(root: str, catalog_version: int) -> dict[str, int]:
    for e in _read_catalog(root):
        if e["version"] == catalog_version:
            return dict(e["pins"])
    raise ValueError(f"no catalog version {catalog_version}")


def read_table(root: str, catalog_version: int, table: str, *,
               key: str, num_buckets: int = 16):
    """Dataset of ``table``'s state as pinned by ``catalog_version`` —
    unpinned later table commits are invisible, by construction."""
    pins = pins_as_of(root, catalog_version)
    if table not in pins:
        raise ValueError(
            f"catalog v{catalog_version} does not pin table {table!r}")
    return read_as_of(table_root(root, table), pins[table], key=key,
                      num_buckets=num_buckets)
