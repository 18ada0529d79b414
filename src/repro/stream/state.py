"""Incremental analysis state over the shared batch window kernel.

The batch engine (:mod:`repro.core.windows`) answers "what is the
probability a node fails in the window after a trigger" over a complete
archive.  This module maintains the *same counts incrementally* as
events stream in, with three guarantees:

* **Replay-vs-batch equivalence by construction** -- windows are
  counted by :func:`repro.core.windows.slice_window_counts`, the kernel
  behind :func:`~repro.core.windows.conditional_counts_batch`.  Batch
  counts each trigger stream as one slice; the stream counts the slice
  of triggers whose windows became final in a micro-batch.  The
  kernel's counts are additive over slices, so after a full replay the
  conditional grids equal the batch grids *exactly* (integer equality).
  Censoring is the same elementwise ``t + span.days <= period.end``,
  and the baseline grids use the same ``floor((t - start) / span.days)``
  slot arithmetic as :func:`repro.core.windows.baseline_counts_batch`.
* **Monotone finalisation** -- a trigger's window ``(t, t + span]`` is
  counted only once the watermark passes ``t + span`` (no admissible
  event can still land in it).  Because admitted events satisfy
  ``time >= watermark`` and resolved triggers satisfy
  ``t + span < watermark``, out-of-order insertions always land *after*
  the resolved prefix of the time-sorted store, so per-span resolution
  pointers stay valid.
* **Bit-identical checkpoint/restore** -- :func:`write_checkpoint` /
  :func:`load_checkpoint` round-trip the entire state (versioned
  format); a consumer killed and restored from its last checkpoint,
  then fed the same source again, converges to the same
  :meth:`StreamAnalysisState.digest` as an uninterrupted run
  (already-applied events deduplicate, already-final events drop as
  late).  Checkpoints contain no wall-clock timestamps, so rewriting
  the same state yields byte-identical payloads; a damaged checkpoint
  raises :class:`StreamStateError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..core.windows import Counts, Scope, prev_same_node, slice_window_counts
from ..records.dataset import Archive
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import ALL_SPANS, ObservationPeriod, Span, count_windows
from ..telemetry import counter_add, gauge_set, span as tel_span
from .events import KIND_FAILURE, StreamEvent, WatermarkClock


class StreamStateError(ValueError):
    """Raised on inconsistent streaming state or checkpoint payloads."""


#: Version of the on-disk checkpoint format.  Bump on any change to the
#: meta schema or array layout; :func:`load_checkpoint` refuses payloads
#: from other versions rather than guessing.
CHECKPOINT_VERSION = 1

_NODE, _RACK, _SYSTEM = Scope.NODE.value, Scope.RACK.value, Scope.SYSTEM.value

#: Selection code for "any category" (no filter).
ANY_CODE = -1

_CATEGORY_CODES: dict[Category, int] = {
    c: i for i, c in enumerate(all_categories())
}
_CATEGORY_BY_CODE: dict[int, Category] = {
    i: c for c, i in _CATEGORY_CODES.items()
}


def selection_code(selection: Category | None) -> int:
    """Integer code of a category selection (``ANY_CODE`` for ``None``)."""
    return ANY_CODE if selection is None else _CATEGORY_CODES[selection]


_CODE_NAMES: dict[int, str] = {
    ANY_CODE: "any",
    **{i: c.value for c, i in _CATEGORY_CODES.items()},
}


def _code_name(code: int) -> str:
    return _CODE_NAMES[code]


def _name_code(name: str) -> int:
    if name == "any":
        return ANY_CODE
    return _CATEGORY_CODES[Category(name)]


def _float_hex(value: float) -> str:
    """Exact, JSON-safe float encoding (handles the +/-inf watermarks)."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value).hex()


def _hex_float(text: str) -> float:
    if text == "inf":
        return math.inf
    if text == "-inf":
        return -math.inf
    return float.fromhex(text)


@dataclass(frozen=True)
class StreamAnalysisConfig:
    """What the incremental analysis tracks.

    Attributes:
        spans: window lengths of the conditional/baseline grids.
        lateness_days: bounded out-of-order tolerance; events older
            than ``high - lateness_days`` are dropped as late.  ``0``
            suits in-order sources (archive replay); live feeds should
            budget their expected delivery skew.
        selections: trigger/target category selections of the NODE-scope
            grid (``None`` = any failure).
        wide_targets: target selections of the RACK/SYSTEM-scope grids
            (kept narrow by default: the paper's rack/system analyses
            condition on the trigger type, not the target type).
    """

    spans: tuple[Span, ...] = ALL_SPANS
    lateness_days: float = 0.0
    selections: tuple[Category | None, ...] = (None, *all_categories())
    wide_targets: tuple[Category | None, ...] = (None,)

    def __post_init__(self) -> None:
        if self.lateness_days < 0 or not math.isfinite(self.lateness_days):
            raise StreamStateError(
                f"lateness_days must be finite and >= 0, got "
                f"{self.lateness_days}"
            )
        if not self.spans or not self.selections:
            raise StreamStateError("spans and selections must be non-empty")
        for target in self.wide_targets:
            if target not in self.selections:
                raise StreamStateError(
                    f"wide target {target!r} must also be a selection"
                )

    def to_payload(self) -> dict:
        """JSON-safe description (stored in checkpoints)."""
        return {
            "lateness_days": _float_hex(self.lateness_days),
            "spans": [span.value for span in self.spans],
            "selections": [_code_name(selection_code(s)) for s in self.selections],
            "wide_targets": [
                _code_name(selection_code(s)) for s in self.wide_targets
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "StreamAnalysisConfig":
        def _selection(name: str) -> Category | None:
            code = _name_code(name)
            return None if code == ANY_CODE else _CATEGORY_BY_CODE[code]

        return cls(
            spans=tuple(Span(v) for v in payload["spans"]),
            lateness_days=_hex_float(payload["lateness_days"]),
            selections=tuple(_selection(n) for n in payload["selections"]),
            wide_targets=tuple(_selection(n) for n in payload["wide_targets"]),
        )


@dataclass
class BatchStats:
    """Disposition counts of one ingested micro-batch."""

    accepted: int = 0
    late: int = 0
    duplicate: int = 0
    ignored: int = 0
    invalid: int = 0
    unknown_system: int = 0
    touched: set[int] = field(default_factory=set)

    def total(self) -> int:
        return (
            self.accepted
            + self.late
            + self.duplicate
            + self.ignored
            + self.invalid
            + self.unknown_system
        )

    def merge(self, other: "BatchStats") -> None:
        self.accepted += other.accepted
        self.late += other.late
        self.duplicate += other.duplicate
        self.ignored += other.ignored
        self.invalid += other.invalid
        self.unknown_system += other.unknown_system
        self.touched |= other.touched


class StreamingEventIndex:
    """Incremental counterpart of :class:`repro.records.dataset.EventIndex`.

    Maintains one event selection time-sorted (``times`` / ``nodes``)
    under streaming insertion.  Python lists absorb the out-of-order
    inserts; numpy mirrors (and the :func:`prev_same_node` links the
    window kernel needs) are materialised lazily per micro-batch.
    """

    __slots__ = ("_times", "_nodes", "_cache")

    def __init__(self) -> None:
        self._times: list[float] = []
        self._nodes: list[int] = []
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._times)

    def add(self, time: float, node: int) -> None:
        """Insert one event, keeping time order (ties: arrival order)."""
        pos = bisect_right(self._times, time)
        self._times.insert(pos, time)
        self._nodes.insert(pos, node)
        self._cache.clear()

    @property
    def times(self) -> np.ndarray:
        """Time-sorted event times (cached numpy mirror)."""
        cached = self._cache.get("t")
        if cached is None:
            cached = np.array(self._times, dtype=float)
            self._cache["t"] = cached
        return cached

    @property
    def nodes(self) -> np.ndarray:
        """Node ids aligned with :attr:`times` (cached numpy mirror)."""
        cached = self._cache.get("n")
        if cached is None:
            cached = np.array(self._nodes, dtype=np.int64)
            self._cache["n"] = cached
        return cached

    @property
    def prev(self) -> np.ndarray:
        """:func:`prev_same_node` links of :attr:`nodes` (cached)."""
        cached = self._cache.get("p")
        if cached is None:
            cached = prev_same_node(self.nodes)
            self._cache["p"] = cached
        return cached

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, nodes)`` snapshot for checkpointing."""
        return self.times.copy(), self.nodes.copy()

    @classmethod
    def from_arrays(
        cls, times: np.ndarray, nodes: np.ndarray
    ) -> "StreamingEventIndex":
        """Rebuild from checkpoint arrays (time order preserved)."""
        index = cls()
        index._times = [float(t) for t in times]
        index._nodes = [int(n) for n in nodes]
        return index


def _due_prefix(times: np.ndarray, days: float, watermark: float) -> int:
    """Length of the prefix with ``t + days < watermark`` (final windows).

    ``searchsorted`` on ``watermark - days`` lands within a float ulp of
    the boundary; the scalar walk then enforces the *exact* elementwise
    predicate the correctness argument needs.
    """
    n = int(times.size)
    if watermark == math.inf:
        return n
    pos = int(np.searchsorted(times, watermark - days, side="left"))
    while pos > 0 and not (times[pos - 1] + days < watermark):
        pos -= 1
    while pos < n and times[pos] + days < watermark:
        pos += 1
    return pos


def _window_slot(t: float, start: float, days: float, n_windows: int) -> int:
    """Tiled-window index of ``t`` (same arithmetic as ``window_index``)."""
    if t < start:
        return -1
    idx = math.floor((t - start) / days)
    if idx < 0 or idx >= n_windows:
        return -1
    return int(idx)


class SystemStreamState:
    """One system's incremental stores, counters and watermark."""

    def __init__(
        self,
        system_id: int,
        num_nodes: int,
        period: ObservationPeriod,
        rack_of: np.ndarray | None,
        config: StreamAnalysisConfig,
    ) -> None:
        if num_nodes < 1:
            raise StreamStateError(f"num_nodes must be >= 1, got {num_nodes}")
        self.system_id = system_id
        self.num_nodes = num_nodes
        self.period = period
        self.config = config
        if rack_of is not None:
            rack_of = np.asarray(rack_of, dtype=np.int64)
            if rack_of.shape != (num_nodes,):
                raise StreamStateError(
                    "rack_of must map every node of the system to a rack"
                )
            self._rack_sizes = np.bincount(
                rack_of, minlength=int(rack_of.max()) + 1
            )
        else:
            self._rack_sizes = None
        self.rack_of = rack_of
        self.clock = WatermarkClock(config.lateness_days)
        self.stats = BatchStats()
        self.seen: dict[str, float] = {}
        self._codes = [selection_code(s) for s in config.selections]
        self._wide_codes = [selection_code(s) for s in config.wide_targets]
        self.stores: dict[int, StreamingEventIndex] = {
            code: StreamingEventIndex() for code in self._codes
        }
        self.n_windows = {
            span.value: count_windows(period, span) for span in config.spans
        }
        # Hot-path constants: ``Span`` attribute lookups go through
        # ``Enum.__get__``, too slow for once per event.
        self._spans = tuple(
            (span.value, span.days, self.n_windows[span.value])
            for span in config.spans
        )
        #: Resolution slices: one output label per (trigger code, span).
        self._slices = tuple(
            (tc, sv, days) for tc in self._codes for sv, days, _ in self._spans
        )
        self.resolved: dict[tuple[int, str], int] = {
            (tc, sv): 0 for tc, sv, _ in self._slices
        }
        self.cond: dict[tuple[str, int, int, str], list[int]] = {}
        for tc in self._codes:
            for gc in self._codes:
                for sv, _, _ in self._spans:
                    self.cond[(_NODE, tc, gc, sv)] = [0, 0]
        wide_scopes = [_SYSTEM] + ([_RACK] if rack_of is not None else [])
        for scope in wide_scopes:
            for tc in self._codes:
                for gc in self._wide_codes:
                    for sv, _, _ in self._spans:
                        self.cond[(scope, tc, gc, sv)] = [0, 0]
        self.base_keys: dict[tuple[int, str], set[int]] = {
            (gc, sv): set() for gc in self._codes for sv, _, _ in self._spans
        }

    # ------------------------------------------------------------------
    # ingestion

    def observe(self, event: StreamEvent) -> str:
        """Apply one event; returns its disposition."""
        if event.kind != KIND_FAILURE:
            return "ignored"
        if event.node_id >= self.num_nodes or not self.period.contains(
            event.time
        ):
            return "invalid"
        if event.time < self.clock.watermark:
            return "late"
        if event.event_id in self.seen:
            return "duplicate"
        self.clock.admit(event.time)
        self.seen[event.event_id] = event.time
        code = (
            selection_code(event.category)
            if event.category is not None
            else None
        )
        start = self.period.start
        for store_code in (ANY_CODE, code):
            if store_code is None or store_code not in self.stores:
                continue
            self.stores[store_code].add(event.time, event.node_id)
            for sv, days, n_windows in self._spans:
                slot = _window_slot(event.time, start, days, n_windows)
                if slot >= 0:
                    self.base_keys[(store_code, sv)].add(
                        event.node_id * n_windows + slot
                    )
        return "accepted"

    def prune_seen(self) -> None:
        """Drop dedup entries below the watermark (no longer admissible)."""
        watermark = self.clock.watermark
        if watermark == -math.inf:
            return
        dead = [key for key, t in self.seen.items() if t < watermark]
        for key in dead:
            del self.seen[key]

    def seal(self) -> None:
        """End-of-stream: resolve every pending window."""
        self.clock.seal()
        self.prune_seen()
        self.resolve()

    # ------------------------------------------------------------------
    # window resolution

    def resolve(self) -> None:
        """Fold every newly-final trigger slice into the counter cells.

        Each (trigger code, span) pointer advances to the watermark.  The
        newly-final slices ``[done, due)`` of all pointers, censored as
        in the batch kernel, become labelled rows of one
        :func:`~repro.core.windows.slice_window_counts` call per target
        store.
        """
        watermark = self.clock.watermark
        if watermark == -math.inf:
            return
        columns: tuple[list[np.ndarray], ...] = ([], [], [], [])
        due_cells = []
        for label, (tc, sv, days) in enumerate(self._slices):
            store = self.stores[tc]
            if not len(store):
                continue
            times = store.times
            done = self.resolved[(tc, sv)]
            due = _due_prefix(times, days, watermark)
            if due <= done:
                continue
            self.resolved[(tc, sv)] = due
            # The same elementwise censoring predicate as the batch kernel.
            alive = times[done:due] + days <= self.period.end
            t = times[done:due][alive]
            n = store.nodes[done:due][alive]
            for column, rows in zip(
                columns, (t, t + days, n, np.full(t.size, label))
            ):
                column.append(rows)
            rack_trials = (
                int((self._rack_sizes[self.rack_of[n]] - 1).sum())
                if self.rack_of is not None
                else 0
            )
            due_cells.append((label, tc, sv, int(t.size), rack_trials))
        if not due_cells:
            return
        rows = [np.concatenate(column) for column in columns]
        for gc in self._codes:
            target = self.stores[gc]
            wide = gc in self._wide_codes
            own, system, rack = slice_window_counts(
                *rows,
                len(self._slices),
                target.times,
                target.nodes,
                target.prev,
                rack_of=self.rack_of if wide else None,
            )
            for label, tc, sv, n_alive, rack_trials in due_cells:
                cell = self.cond[(_NODE, tc, gc, sv)]
                cell[0] += int(own[label])
                cell[1] += n_alive
                if not wide:
                    continue
                cell = self.cond[(_SYSTEM, tc, gc, sv)]
                cell[0] += int(system[label])
                cell[1] += n_alive * (self.num_nodes - 1)
                if self.rack_of is not None:
                    cell = self.cond[(_RACK, tc, gc, sv)]
                    cell[0] += int(rack[label])
                    cell[1] += rack_trials

    # ------------------------------------------------------------------
    # reads

    def counts(
        self,
        scope: Scope,
        trigger: Category | None,
        target: Category | None,
        span: Span,
    ) -> Counts:
        """Resolved conditional counts of one grid cell."""
        key = (
            scope.value,
            selection_code(trigger),
            selection_code(target),
            span.value,
        )
        try:
            cell = self.cond[key]
        except KeyError as exc:
            raise StreamStateError(
                f"cell {scope}/{trigger}/{target}/{span} is not tracked by "
                "this configuration"
            ) from exc
        return Counts(cell[0], cell[1])

    def baseline(self, target: Category | None, span: Span) -> Counts:
        """Tiled-window baseline counts for one (target, span) cell."""
        keys = self.base_keys[(selection_code(target), span.value)]
        return Counts(len(keys), self.num_nodes * self.n_windows[span.value])

    def conditional_grid(self, scope: Scope) -> list[list[list[Counts]]]:
        """The trigger x target x span grid at one scope (batch layout)."""
        targets = (
            self.config.selections
            if scope is Scope.NODE
            else self.config.wide_targets
        )
        return [
            [
                [self.counts(scope, trigger, target, span) for span in self.config.spans]
                for target in targets
            ]
            for trigger in self.config.selections
        ]

    def baseline_grid(self) -> list[list[Counts]]:
        """The target x span baseline grid (batch layout)."""
        return [
            [self.baseline(target, span) for span in self.config.spans]
            for target in self.config.selections
        ]

    # ------------------------------------------------------------------
    # serialisation

    def to_meta(self, include_stats: bool = True) -> dict:
        """JSON-safe scalar state (arrays go to the ``.npz`` payload).

        ``include_stats=False`` omits the operational disposition
        counters, which a resumed run legitimately accrues differently
        (re-offered events count as late/duplicate) even though its
        analytical state is bit-identical -- the digest compares
        analytical state only.
        """
        meta = {
            "system_id": self.system_id,
            "num_nodes": self.num_nodes,
            "period": [_float_hex(self.period.start), _float_hex(self.period.end)],
            "has_rack": self.rack_of is not None,
            "high": _float_hex(self.clock.high),
            "seen": [
                [key, _float_hex(t)] for key, t in sorted(self.seen.items())
            ],
            "resolved": [
                [_code_name(tc), sv, done]
                for (tc, sv), done in self.resolved.items()
            ],
            "cond": [
                [scope, _code_name(tc), _code_name(gc), sv, cell[0], cell[1]]
                for (scope, tc, gc, sv), cell in self.cond.items()
            ],
        }
        if include_stats:
            meta["stats"] = {
                "accepted": self.stats.accepted,
                "late": self.stats.late,
                "duplicate": self.stats.duplicate,
                "ignored": self.stats.ignored,
                "invalid": self.stats.invalid,
            }
        return meta

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Array state, keyed for the checkpoint ``.npz`` payload."""
        prefix = f"s{self.system_id}"
        arrays: dict[str, np.ndarray] = {}
        if self.rack_of is not None:
            arrays[f"{prefix}.rack"] = self.rack_of
        for code in self._codes:
            times, nodes = self.stores[code].to_arrays()
            arrays[f"{prefix}.k.{_code_name(code)}.times"] = times
            arrays[f"{prefix}.k.{_code_name(code)}.nodes"] = nodes
        for (code, sv), keys in self.base_keys.items():
            arrays[f"{prefix}.b.{_code_name(code)}.{sv}"] = np.array(
                sorted(keys), dtype=np.int64
            )
        return arrays

    @classmethod
    def from_payload(
        cls,
        meta: Mapping,
        arrays: Mapping[str, np.ndarray],
        config: StreamAnalysisConfig,
    ) -> "SystemStreamState":
        system_id = int(meta["system_id"])
        prefix = f"s{system_id}"
        rack_of = arrays[f"{prefix}.rack"] if meta["has_rack"] else None
        state = cls(
            system_id=system_id,
            num_nodes=int(meta["num_nodes"]),
            period=ObservationPeriod(
                _hex_float(meta["period"][0]), _hex_float(meta["period"][1])
            ),
            rack_of=rack_of,
            config=config,
        )
        state.clock.high = _hex_float(meta["high"])
        stats = meta["stats"]
        state.stats.accepted = int(stats["accepted"])
        state.stats.late = int(stats["late"])
        state.stats.duplicate = int(stats["duplicate"])
        state.stats.ignored = int(stats["ignored"])
        state.stats.invalid = int(stats["invalid"])
        state.seen = {key: _hex_float(t) for key, t in meta["seen"]}
        for name, sv, done in meta["resolved"]:
            key = (_name_code(name), sv)
            if key not in state.resolved:
                raise StreamStateError(
                    f"checkpoint resolution pointer {name}/{sv} does not "
                    "match the configuration"
                )
            state.resolved[key] = int(done)
        for scope, tc_name, gc_name, sv, successes, trials in meta["cond"]:
            key = (scope, _name_code(tc_name), _name_code(gc_name), sv)
            if key not in state.cond:
                raise StreamStateError(
                    f"checkpoint cell {scope}/{tc_name}/{gc_name}/{sv} does "
                    "not match the configuration"
                )
            state.cond[key] = [int(successes), int(trials)]
        for code in state._codes:
            name = _code_name(code)
            state.stores[code] = StreamingEventIndex.from_arrays(
                arrays[f"{prefix}.k.{name}.times"],
                arrays[f"{prefix}.k.{name}.nodes"],
            )
            for span in config.spans:
                state.base_keys[(code, span.value)] = {
                    int(k) for k in arrays[f"{prefix}.b.{name}.{span.value}"]
                }
        return state


class StreamAnalysisState:
    """All systems' incremental state, plus checkpoint orchestration."""

    def __init__(self, config: StreamAnalysisConfig | None = None) -> None:
        self.config = config if config is not None else StreamAnalysisConfig()
        self.systems: dict[int, SystemStreamState] = {}

    def register_system(
        self,
        system_id: int,
        num_nodes: int,
        period: ObservationPeriod,
        rack_of: np.ndarray | None = None,
    ) -> SystemStreamState:
        """Declare one system (idempotent for identical declarations)."""
        existing = self.systems.get(system_id)
        if existing is not None:
            if (
                existing.num_nodes != num_nodes
                or existing.period != period
            ):
                raise StreamStateError(
                    f"system {system_id} already registered with different "
                    "shape"
                )
            return existing
        state = SystemStreamState(
            system_id, num_nodes, period, rack_of, self.config
        )
        self.systems[system_id] = state
        return state

    def register_archive(self, archive: Archive) -> None:
        """Register every system of an archive (metadata only)."""
        for ds in archive:
            self.register_system(
                ds.system_id, ds.num_nodes, ds.period, ds.rack_of
            )

    def ingest(self, events: Iterable[StreamEvent]) -> BatchStats:
        """Apply one micro-batch, then resolve newly-final windows."""
        stats = BatchStats()
        for event in events:
            system = self.systems.get(event.system_id)
            if system is None:
                stats.unknown_system += 1
                continue
            disposition = system.observe(event)
            if disposition == "accepted":
                stats.accepted += 1
                system.stats.accepted += 1
                stats.touched.add(event.system_id)
            elif disposition == "late":
                stats.late += 1
                system.stats.late += 1
            elif disposition == "duplicate":
                stats.duplicate += 1
                system.stats.duplicate += 1
            elif disposition == "ignored":
                stats.ignored += 1
                system.stats.ignored += 1
            else:
                stats.invalid += 1
                system.stats.invalid += 1
        for system_id in sorted(stats.touched):
            system = self.systems[system_id]
            system.prune_seen()
            system.resolve()
        return stats

    def finalize(self) -> None:
        """End-of-stream: resolve every pending window of every system."""
        for system_id in sorted(self.systems):
            self.systems[system_id].seal()

    def watermarks(self) -> dict[int, float]:
        """Current per-system watermarks (``-inf`` before any event)."""
        return {
            system_id: self.systems[system_id].clock.watermark
            for system_id in sorted(self.systems)
        }

    # ------------------------------------------------------------------
    # checkpoint payload

    def _meta_payload(self, include_stats: bool = True) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_payload(),
            "systems": [
                self.systems[system_id].to_meta(include_stats=include_stats)
                for system_id in sorted(self.systems)
            ],
        }

    def _array_payload(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for system_id in sorted(self.systems):
            arrays.update(self.systems[system_id].to_arrays())
        return arrays

    def digest(self) -> str:
        """SHA-256 over the canonical serialised state.

        Two states with equal digests hold bit-identical stores,
        counters, watermarks and dedup windows -- the equality the
        checkpoint/restore tests assert.
        """
        hasher = hashlib.sha256()
        hasher.update(
            json.dumps(
                self._meta_payload(include_stats=False), sort_keys=True
            ).encode()
        )
        arrays = self._array_payload()
        for key in sorted(arrays):
            hasher.update(key.encode())
            hasher.update(np.ascontiguousarray(arrays[key]).tobytes())
        return hasher.hexdigest()


# ----------------------------------------------------------------------
# checkpoint files


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint landed and how big it is."""

    directory: Path
    sequence: int
    bytes: int


_LATEST = "LATEST"


def _checkpoint_paths(directory: Path, sequence: int) -> tuple[Path, Path]:
    stem = f"ckpt-{sequence:06d}"
    return directory / f"{stem}.meta.json", directory / f"{stem}.state.npz"


def _tmp_path(path: Path) -> Path:
    """Sibling a file is written to before its atomic ``os.replace``."""
    return path.with_name(f"{path.name}.tmp")


def latest_checkpoint_sequence(directory: Path | str) -> int | None:
    """Sequence number of the newest complete checkpoint, if any."""
    marker = Path(directory) / _LATEST
    try:
        return int(marker.read_text().strip())
    except (OSError, ValueError):
        return None


def write_checkpoint(
    state: StreamAnalysisState, directory: Path | str, keep: int = 2
) -> CheckpointInfo:
    """Write a new checkpoint generation and atomically publish it.

    Each payload file is written to a temporary sibling and renamed into
    place, and both land before the ``LATEST`` marker is swapped in the
    same way, so a crash mid-write leaves the previous generation intact
    and never leaves a partial file under a checkpoint name.  Older
    generations beyond ``keep`` are pruned.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    latest = latest_checkpoint_sequence(directory)
    sequence = 1 if latest is None else latest + 1
    meta_path, npz_path = _checkpoint_paths(directory, sequence)
    with tel_span("stream.checkpoint", sequence=sequence):
        meta_tmp = _tmp_path(meta_path)
        meta_tmp.write_text(json.dumps(state._meta_payload(), sort_keys=True))
        os.replace(meta_tmp, meta_path)
        npz_tmp = _tmp_path(npz_path)
        with open(npz_tmp, "wb") as handle:
            np.savez(handle, **state._array_payload())
        os.replace(npz_tmp, npz_path)
        marker_tmp = _tmp_path(directory / _LATEST)
        marker_tmp.write_text(f"{sequence}\n")
        os.replace(marker_tmp, directory / _LATEST)
        size = meta_path.stat().st_size + npz_path.stat().st_size
        for stale in sorted(directory.glob("ckpt-*.meta.json")):
            stale_seq = int(stale.stem.split("-")[1].split(".")[0])
            if stale_seq <= sequence - keep:
                stale_meta, stale_npz = _checkpoint_paths(directory, stale_seq)
                stale_meta.unlink(missing_ok=True)
                stale_npz.unlink(missing_ok=True)
    counter_add("stream.checkpoints", 1)
    gauge_set("stream.checkpoint_bytes", size)
    return CheckpointInfo(directory=directory, sequence=sequence, bytes=size)


def load_checkpoint(
    directory: Path | str, config: StreamAnalysisConfig | None = None
) -> StreamAnalysisState:
    """Restore the newest checkpoint into a fresh state.

    The configuration is rebuilt from the checkpoint itself; passing
    ``config`` additionally asserts it matches (a consumer restarted
    with a different grid must not silently resume).
    """
    directory = Path(directory)
    sequence = latest_checkpoint_sequence(directory)
    if sequence is None:
        raise StreamStateError(f"no checkpoint found in {directory}")
    meta_path, npz_path = _checkpoint_paths(directory, sequence)
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StreamStateError(f"unreadable checkpoint meta: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise StreamStateError(
            f"checkpoint version {version} is not supported (expected "
            f"{CHECKPOINT_VERSION}); regenerate the checkpoint"
        )
    try:
        with np.load(npz_path) as payload:
            arrays = {key: payload[key] for key in payload.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise StreamStateError(f"unreadable checkpoint arrays: {exc}") from exc
    try:
        restored_config = StreamAnalysisConfig.from_payload(meta["config"])
        if config is not None and config != restored_config:
            raise StreamStateError(
                "checkpoint was written under a different stream configuration"
            )
        state = StreamAnalysisState(restored_config)
        for system_meta in meta["systems"]:
            system = SystemStreamState.from_payload(
                system_meta, arrays, restored_config
            )
            state.systems[system.system_id] = system
    except KeyError as exc:
        raise StreamStateError(
            f"incomplete checkpoint {sequence}: missing {exc}"
        ) from exc
    return state


class Checkpointer:
    """Periodic checkpoint writer (every N accepted events)."""

    def __init__(
        self, directory: Path | str, every: int = 0, keep: int = 2
    ) -> None:
        if every < 0:
            raise StreamStateError(f"every must be >= 0, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self._pending = 0
        self.last: CheckpointInfo | None = None

    def maybe(
        self, state: StreamAnalysisState, new_events: int
    ) -> CheckpointInfo | None:
        """Checkpoint when ``every`` accepted events have accumulated."""
        self._pending += new_events
        if not self.every or self._pending < self.every:
            return None
        return self.write(state)

    def write(self, state: StreamAnalysisState) -> CheckpointInfo:
        """Force a checkpoint now."""
        self.last = write_checkpoint(state, self.directory, keep=self.keep)
        self._pending = 0
        return self.last
