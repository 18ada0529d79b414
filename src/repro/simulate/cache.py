"""On-disk archive cache keyed by a digest of the full configuration.

Generating the benchmark-scale archive takes tens of seconds; analyses,
benchmarks and the CLI frequently re-request the *same* configuration.
This module memoises :func:`~repro.simulate.archive.make_archive` on
disk:

* the cache key is a SHA-256 over a canonical JSON rendering of the
  complete :class:`~repro.simulate.config.ArchiveConfig` -- every
  :class:`~repro.simulate.config.EffectSizes` field, every system spec,
  every enum-keyed mix -- plus
  :data:`~repro.simulate.failures.GENERATOR_VERSION`, so *any* change to
  the configuration or to the generator's RNG-stream layout produces a
  different key;
* entries are pickles written atomically (temp file + ``os.replace``),
  so a crashed or concurrent writer can never leave a half-written
  entry in place;
* the bulky job and temperature logs are stored as flat numpy columns
  and materialised lazily on first access, so a warm load costs a few
  array reads instead of unpickling hundreds of thousands of record
  objects (see :class:`~repro.records.dataset.ColumnarSystemDataset`);
* loads are corruption-tolerant for the *specific* I/O and
  deserialization errors a bad entry can raise (see ``_LOAD_ERRORS`` /
  ``_DECODE_ERRORS``): such an entry is treated as a miss (and deleted
  when possible) and counted on the ``archive_cache.abandoned``
  telemetry counter so swallowed corruption stays observable; anything
  outside those error sets propagates.

The cache directory defaults to ``$XDG_CACHE_HOME/hpcfail/archives``
(``~/.cache/hpcfail/archives``) and can be overridden with the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from ..records.dataset import Archive, ColumnarSystemDataset, SystemDataset
from ..records.environment import TemperatureColumns
from ..records.usage import JobColumns
from ..telemetry import counter_add, span
from .archive import make_archive
from .config import ArchiveConfig
from .failures import GENERATOR_VERSION

_MAGIC = "hpcfail-archive"
#: Bump when the pickle payload layout changes (not the archive schema:
#: record-class changes already change unpickling behaviour).
_FORMAT_VERSION = 2

#: What a corrupted/foreign/stale pickle read can legitimately raise:
#: I/O failures, every documented unpickling error (UnpicklingError,
#: plus the EOF/attribute/import/index errors ``pickle.load`` is
#: specified to leak on truncated or alien payloads) and ValueError
#: for malformed primitive payloads.  Anything else -- MemoryError,
#: KeyboardInterrupt, bugs -- propagates instead of being silently
#: treated as a cache miss.
_LOAD_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)

#: What decoding a (format-matching but inconsistent) payload dict can
#: raise: missing/mistyped keys and malformed column arrays.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def cache_dir() -> Path:
    """The archive cache directory (not necessarily existing yet).

    ``REPRO_CACHE_DIR`` overrides; otherwise ``XDG_CACHE_HOME`` (or
    ``~/.cache``) ``/hpcfail/archives``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hpcfail" / "archives"


def _canonical(obj):
    """Reduce a config object to JSON-serialisable canonical form.

    Dataclasses carry their type name (two configs of different classes
    with equal fields must not collide); enums serialise as
    ``ClassName.MEMBER``; dict entries are sorted so insertion order
    cannot leak into the key; floats use ``repr`` (shortest round-trip,
    and keeps ``1.0`` distinct from the int ``1``).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return f"float:{obj!r}"
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for the cache key"
    )


def config_digest(config: ArchiveConfig) -> str:
    """Hex SHA-256 cache key for a configuration.

    Covers every field of the config (recursively, including effect
    sizes and system specs) and the generator version, so equal digests
    imply bit-identical archives.
    """
    payload = {
        "magic": _MAGIC,
        "generator_version": GENERATOR_VERSION,
        "config": _canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_path(config: ArchiveConfig, directory: Path | None = None) -> Path:
    """The cache file an archive for ``config`` would live at."""
    return (directory or cache_dir()) / f"{config_digest(config)}.pkl"


# --- columnar payload ------------------------------------------------------
#
# An archive's bulk is its job and temperature logs: hundreds of
# thousands of small record objects whose one-by-one unpickling costs as
# much as regenerating them.  The cache therefore stores those two logs
# as flat numpy columns and decodes them into a ColumnarSystemDataset,
# which materialises the record tuples only on first access -- a warm
# load deserialises a handful of arrays, and analyses that read the
# logs through ``job_columns()`` / ``temperature_columns()`` never pay
# for records.


def _encode_system(ds: SystemDataset) -> dict:
    """Reduce one system to a columnar cache payload."""
    jobs = ds.job_columns()
    temps = ds.temperature_columns()
    return {
        "system_id": ds.system_id,
        "group": ds.group,
        "num_nodes": ds.num_nodes,
        "processors_per_node": ds.processors_per_node,
        "period": ds.period,
        "layout": ds.layout,
        "failures": ds.failures,
        "maintenance": ds.maintenance,
        "job_cols": {
            "submit": jobs.submit_times,
            "job_id": jobs.job_ids,
            "dispatch": jobs.dispatch_times,
            "end": jobs.end_times,
            "user": jobs.user_ids,
            "nprocs": jobs.num_processors,
            "failed": jobs.failed_due_to_node,
            "offsets": jobs.node_offsets,
            "nodes": jobs.node_ids,
        },
        "temp_cols": {
            "time": temps.times,
            "node": temps.node_ids,
            "celsius": temps.celsius,
        },
    }


def _decode_system(payload: dict) -> SystemDataset:
    """Rebuild one system from its payload.  The payload was checked when
    the original dataset was built, so it is not validated again."""
    jobs = payload["job_cols"]
    temps = payload["temp_cols"]
    return ColumnarSystemDataset.from_columns(
        jobs=JobColumns(
            submit_times=jobs["submit"],
            dispatch_times=jobs["dispatch"],
            end_times=jobs["end"],
            user_ids=jobs["user"],
            num_processors=jobs["nprocs"],
            failed_due_to_node=jobs["failed"],
            job_ids=jobs["job_id"],
            node_offsets=jobs["offsets"],
            node_ids=jobs["nodes"],
        ),
        temperatures=TemperatureColumns(
            times=temps["time"], node_ids=temps["node"], celsius=temps["celsius"]
        ),
        **{
            name: payload[name]
            for name in (
                "system_id",
                "group",
                "num_nodes",
                "processors_per_node",
                "period",
                "layout",
                "failures",
                "maintenance",
            )
        },
    )


def _encode_archive(archive: Archive) -> dict:
    return {
        "neutrons": archive.neutron_series,
        "systems": [_encode_system(ds) for ds in archive],
    }


def _decode_archive(payload: dict) -> Archive:
    return Archive(
        (_decode_system(s) for s in payload["systems"]),
        neutron_series=payload["neutrons"],
    )


def load_cached(
    config: ArchiveConfig, directory: Path | None = None
) -> Archive | None:
    """Load the cached archive for ``config``, or ``None`` on any miss.

    Corrupted, truncated or foreign files at the expected path are
    removed (best-effort) and reported as a miss.
    """
    path = cache_path(config, directory)
    with span("archive_cache.load", path=path.name) as s:

        def miss(reason: str) -> None:
            s.set_attrs(result=reason)
            counter_add("archive_cache.loads", 1, result=reason)
            return None

        def abandoned(reason: str, exc: BaseException | None = None) -> None:
            """A load that found an entry and had to throw it away.

            Counted separately from plain misses so swallowed
            corruption stays observable: ``archive_cache.abandoned``
            is labelled with the failure stage and the exception class
            that caused it.
            """
            counter_add(
                "archive_cache.abandoned",
                1,
                stage=reason,
                error=type(exc).__name__ if exc is not None else "none",
            )
            _discard(path)
            return miss(reason)

        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return miss("absent")
        except _LOAD_ERRORS as exc:
            return abandoned("corrupt", exc)
        if (
            not isinstance(payload, dict)
            or payload.get("magic") != _MAGIC
            or payload.get("format") != _FORMAT_VERSION
            or payload.get("digest") != config_digest(config)
        ):
            return abandoned("stale")
        try:
            archive = _decode_archive(payload["archive"])
        except _DECODE_ERRORS as exc:
            return abandoned("corrupt", exc)
        s.set_attrs(result="warm")
        counter_add("archive_cache.loads", 1, result="warm")
        return archive


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def store_cached(
    config: ArchiveConfig, archive: Archive, directory: Path | None = None
) -> Path:
    """Atomically write ``archive`` to the cache; returns the entry path."""
    path = cache_path(config, directory)
    with span("archive_cache.store", path=path.name):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "magic": _MAGIC,
            "format": _FORMAT_VERSION,
            "digest": config_digest(config),
            "archive": _encode_archive(archive),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        replaced = False
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            replaced = True
        finally:
            # Cleanup, not error handling: the temp file must not
            # outlive a failed write regardless of the exception type,
            # and the exception itself always propagates.
            if not replaced:
                _discard(Path(tmp))
        counter_add("archive_cache.stores", 1)
    return path


def cached_make_archive(
    config: ArchiveConfig | None = None,
    *,
    workers: int | None = None,
    directory: Path | None = None,
    refresh: bool = False,
) -> Archive:
    """:func:`make_archive` memoised on disk.

    Args:
        config: archive configuration (defaults to the full catalogue).
        workers: worker processes for a cache-miss generation (the
            output -- and therefore the cache entry -- is identical at
            any worker count).
        directory: cache directory override (default :func:`cache_dir`).
        refresh: regenerate and overwrite even on a hit.
    """
    config = config or ArchiveConfig()
    if not refresh:
        archive = load_cached(config, directory)
        if archive is not None:
            counter_add("archive_cache.requests", 1, result="warm")
            return archive
    counter_add(
        "archive_cache.requests", 1, result="refresh" if refresh else "cold"
    )
    archive = make_archive(config, workers=workers)
    store_cached(config, archive, directory)
    return archive
