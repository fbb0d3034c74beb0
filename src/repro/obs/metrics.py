"""Named metric instruments with a Prometheus-exposition renderer.

One :class:`MetricsRegistry` holds every instrument of a process —
service counters, training gauges, quality windows — so a single
``registry.render()`` produces the full exposition text.  Instruments
are get-or-create by name: asking twice for ``rtp_queries_total``
returns the same :class:`Counter`, which is how the service monitor
and the trainer share a registry without coordination.

Label support follows the Prometheus client idiom::

    errors = registry.counter("rtp_errors_total", "Failed requests",
                              labels=("path",))
    errors.labels(path="batch").inc(4)

Instruments declared without labels are used directly
(``counter.inc()``, ``gauge.set(3.0)``, ``histogram.observe(12.5)``).

Concurrency contract:

* **Threads** — every write (``inc``/``set``/``observe``) and
  ``render()`` runs under the instrument's lock, so instruments are
  safe to hammer from many threads (the shard router writes from its
  callers' threads and its collector thread); no increments are lost.
* **Processes** — a registry is **per-process** state and is *not*
  shared across ``fork``/``spawn``; each process that wants metrics
  owns its own registry.  The shard tier follows a single-writer
  design: shard workers ship answers and spans back over the response
  queue and only the router process writes them into its registry
  (see :mod:`repro.serving_shard`).
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .tracing import current_trace_id

__all__ = [
    "Counter", "Gauge", "Histogram", "Summary", "MetricsRegistry",
    "DEFAULT_HISTOGRAM_BUCKETS", "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_LABEL_VALUE",
]

#: Generic latency-shaped default buckets (milliseconds).
DEFAULT_HISTOGRAM_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                             float("inf"))

#: Label-set cardinality cap per instrument (see ``max_label_sets``).
DEFAULT_MAX_LABEL_SETS = 256

#: Label value every clamped (over-the-cap) label set collapses into.
OVERFLOW_LABEL_VALUE = "__overflow__"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _format_labels(names: Sequence[str], values: Sequence[str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{value}"' for name, value in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Instrument:
    """Base class: name, help text, label names, per-labelset state.

    ``max_label_sets`` caps the number of distinct label sets one
    instrument can hold (default :data:`DEFAULT_MAX_LABEL_SETS`).
    Unbounded label values — per-courier quality segments, user ids —
    would otherwise grow the registry without limit; past the cap every
    *new* label set is clamped into a single ``__overflow__`` child (a
    one-time :class:`RuntimeWarning` is emitted).  Existing label sets
    keep updating normally.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = (),
                 max_label_sets: Optional[int] = None):
        self.name = name
        self.help = help_text
        self.label_names = tuple(labels)
        self.max_label_sets = (DEFAULT_MAX_LABEL_SETS
                               if max_label_sets is None
                               else int(max_label_sets))
        if self.max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self._overflow_warned = False
        self._values: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def labels(self, **kwargs: object) -> "_Bound":
        """Bind a concrete label set, e.g. ``c.labels(path="batch")``."""
        if set(kwargs) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(kwargs)}")
        key = tuple(str(kwargs[name]) for name in self.label_names)
        return _Bound(self, key)

    def _unlabeled(self) -> Tuple[str, ...]:
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; "
                "use .labels(...) to select a child")
        return ()

    def _admit_unlocked(self, key: Tuple[str, ...]) -> Tuple[str, ...]:
        """Cardinality guard: clamp new over-the-cap label sets."""
        if not key or len(self._values) < self.max_label_sets:
            return key
        overflow = (OVERFLOW_LABEL_VALUE,) * len(self.label_names)
        if key == overflow:
            return key
        if not self._overflow_warned:
            self._overflow_warned = True
            warnings.warn(
                f"{self.name}: label cardinality reached the cap of "
                f"{self.max_label_sets} label sets; new label sets are "
                f"clamped to {OVERFLOW_LABEL_VALUE!r} (raise "
                f"max_label_sets if this segmentation is intended)",
                RuntimeWarning, stacklevel=4)
        return overflow

    def _cell_unlocked(self, key: Tuple[str, ...]):
        cell = self._values.get(key)
        if cell is None:
            key = self._admit_unlocked(key)
            cell = self._values.get(key)
            if cell is None:
                cell = self._new_cell()
                self._values[key] = cell
        return cell

    def _cell(self, key: Tuple[str, ...]):
        with self._lock:
            return self._cell_unlocked(key)

    def _mutate(self, key: Tuple[str, ...], update) -> None:
        """Run ``update(cell)`` under the lock — the only write path.

        Fetch-then-mutate outside the lock would drop concurrent
        updates; every ``inc``/``set``/``observe`` funnels through here.
        """
        with self._lock:
            update(self._cell_unlocked(key))

    def _new_cell(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def render(self) -> List[str]:
        """Exposition lines for this instrument (TYPE line included)."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        # Format under the lock so a concurrent observe cannot yield a
        # torn cell (e.g. a histogram sum without its count).
        with self._lock:
            items = sorted(self._values.items())
            if not items and not self.label_names:
                items = [((), self._new_cell())]
            for key, cell in items:
                lines.extend(self._render_cell(key, cell))
        return lines

    def _render_cell(self, key, cell) -> List[str]:
        raise NotImplementedError


class _Bound:
    """One label child of an instrument; forwards the write methods."""

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: _Instrument, key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._instrument._inc(self._key, amount)

    def set(self, value: float) -> None:
        self._instrument._set(self._key, value)

    def observe(self, value: float,
                trace_id: Optional[str] = None) -> None:
        if trace_id is None:
            self._instrument._observe(self._key, value)
        else:
            self._instrument._observe(self._key, value, trace_id=trace_id)

    @property
    def value(self) -> float:
        return self._instrument._get(self._key)


class Counter(_Instrument):
    """Monotonically increasing count (``*_total`` convention)."""

    kind = "counter"

    def _new_cell(self):
        return [0.0]

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (label-less form)."""
        self._inc(self._unlabeled(), amount)

    def _inc(self, key, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease")

        def update(cell):
            cell[0] += amount

        self._mutate(key, update)

    def _get(self, key) -> float:
        return self._cell(key)[0]

    @property
    def value(self) -> float:
        """Current count (label-less form)."""
        return self._get(self._unlabeled())

    def _render_cell(self, key, cell) -> List[str]:
        labels = _format_labels(self.label_names, key)
        return [f"{self.name}{labels} {_format_value(cell[0])}"]


class Gauge(_Instrument):
    """A value that can go up and down (last-write-wins)."""

    kind = "gauge"

    def _new_cell(self):
        return [0.0]

    def set(self, value: float) -> None:
        """Set the current value (label-less form)."""
        self._set(self._unlabeled(), value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the current value (label-less form)."""
        self._inc(self._unlabeled(), amount)

    def _set(self, key, value: float) -> None:
        def update(cell):
            cell[0] = float(value)

        self._mutate(key, update)

    def _inc(self, key, amount: float) -> None:
        def update(cell):
            cell[0] += amount

        self._mutate(key, update)

    def _get(self, key) -> float:
        return self._cell(key)[0]

    @property
    def value(self) -> float:
        """Current value (label-less form)."""
        return self._get(self._unlabeled())

    def _render_cell(self, key, cell) -> List[str]:
        labels = _format_labels(self.label_names, key)
        return [f"{self.name}{labels} {_format_value(cell[0])}"]


class Summary(_Instrument):
    """Streaming sum/count pair (``_sum`` and ``_count`` series)."""

    kind = "summary"

    def _new_cell(self):
        return [0.0, 0]  # sum, count

    def observe(self, value: float) -> None:
        """Record one observation (label-less form)."""
        self._observe(self._unlabeled(), value)

    def _observe(self, key, value: float) -> None:
        def update(cell):
            cell[0] += float(value)
            cell[1] += 1

        self._mutate(key, update)

    def _get(self, key) -> float:
        return self._cell(key)[0]

    @property
    def sum(self) -> float:
        """Total of all observations (label-less form)."""
        return self._cell(self._unlabeled())[0]

    @property
    def count(self) -> int:
        """Number of observations (label-less form)."""
        return self._cell(self._unlabeled())[1]

    def _render_cell(self, key, cell) -> List[str]:
        labels = _format_labels(self.label_names, key)
        return [
            f"{self.name}_sum{labels} {cell[0]:.3f}",
            f"{self.name}_count{labels} {cell[1]}",
        ]


class Histogram(_Instrument):
    """Bucketed distribution with cumulative Prometheus rendering.

    ``exemplars=K`` (default 0: off) keeps, per label set, the K
    *largest* observations seen together with the trace id active when
    each was recorded — the join from a p99 spike in the exposition to
    the exact trace (and, via a flight recorder, the request payload)
    that caused it.  Pass ``trace_id=`` to :meth:`observe` explicitly
    or let it auto-capture
    :func:`~repro.obs.tracing.current_trace_id`; observations with no
    trace id never become exemplars.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_HISTOGRAM_BUCKETS,
                 exemplars: int = 0,
                 max_label_sets: Optional[int] = None):
        super().__init__(name, help_text, labels,
                         max_label_sets=max_label_sets)
        buckets = tuple(float(b) for b in buckets)
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted")
        if not buckets or buckets[-1] != float("inf"):
            buckets = buckets + (float("inf"),)
        self.buckets = buckets
        if exemplars < 0:
            raise ValueError("exemplars must be >= 0")
        self.max_exemplars = int(exemplars)
        self._exemplar_seq = 0

    def _new_cell(self):
        cell = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
        if self.max_exemplars:
            cell["exemplars"] = []
        return cell

    def observe(self, value: float,
                trace_id: Optional[str] = None) -> None:
        """Record one observation (label-less form)."""
        self._observe(self._unlabeled(), value, trace_id=trace_id)

    def _observe(self, key, value: float,
                 trace_id: Optional[str] = None) -> None:
        if self.max_exemplars and trace_id is None:
            trace_id = current_trace_id()

        def update(cell):
            cell["sum"] += float(value)
            cell["count"] += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    cell["counts"][index] += 1
                    break
            if self.max_exemplars and trace_id is not None:
                self._exemplar_seq += 1
                entries = cell["exemplars"]
                entries.append({"value": float(value),
                                "trace_id": trace_id,
                                "seq": self._exemplar_seq})
                if len(entries) > self.max_exemplars:
                    # Keep the K largest; among equals, evict the oldest.
                    smallest = min(
                        range(len(entries)),
                        key=lambda i: (entries[i]["value"],
                                       entries[i]["seq"]))
                    entries.pop(smallest)

        self._mutate(key, update)

    def exemplars(self, **labels: object) -> List[Dict[str, object]]:
        """Tail exemplars of one cell, largest value first."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            cell = self._cell_unlocked(key)
            entries = [dict(e) for e in cell.get("exemplars", ())]
        return sorted(entries,
                      key=lambda e: (-e["value"], -e["seq"]))

    @property
    def count(self) -> int:
        """Number of observations (label-less form)."""
        return self._cell(self._unlabeled())["count"]

    @property
    def sum(self) -> float:
        """Total of all observations (label-less form)."""
        return self._cell(self._unlabeled())["sum"]

    def snapshot(self, **labels: object) -> Dict[str, object]:
        """Consistent copy of one cell: bounds, per-bucket counts, sum.

        Taken under the instrument lock, so a concurrent ``observe``
        can never yield a torn view (a count without its sum).  The
        load harness reads these to build its JSON artifacts from the
        same registry state operators scrape.
        """
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            cell = self._cell_unlocked(key)
            snapshot = {
                "upper_bounds": list(self.buckets),
                "counts": list(cell["counts"]),
                "sum": float(cell["sum"]),
                "count": int(cell["count"]),
            }
            if self.max_exemplars:
                snapshot["exemplars"] = [dict(e)
                                         for e in cell["exemplars"]]
            return snapshot

    def _render_cell(self, key, cell) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, cell["counts"]):
            cumulative += count
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            labels = _format_labels(self.label_names, key, extra=("le", le))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        labels = _format_labels(self.label_names, key)
        lines.append(f"{self.name}_sum{labels} {cell['sum']:.3f}")
        lines.append(f"{self.name}_count{labels} {cell['count']}")
        return lines


class MetricsRegistry:
    """Get-or-create home for instruments; renders one exposition."""

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Sequence[str], **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"{name} already registered as {existing.kind}, "
                        f"cannot re-register as {cls.kind}")
                if tuple(labels) != existing.label_names:
                    raise ValueError(
                        f"{name} already registered with labels "
                        f"{existing.label_names}, got {tuple(labels)}")
                return existing
            instrument = cls(name, help_text, labels, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = (),
                max_label_sets: Optional[int] = None) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help_text, labels,
                                   max_label_sets=max_label_sets)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = (),
              max_label_sets: Optional[int] = None) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help_text, labels,
                                   max_label_sets=max_label_sets)

    def summary(self, name: str, help_text: str = "",
                labels: Sequence[str] = (),
                max_label_sets: Optional[int] = None) -> Summary:
        """Get or create a :class:`Summary`."""
        return self._get_or_create(Summary, name, help_text, labels,
                                   max_label_sets=max_label_sets)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_HISTOGRAM_BUCKETS,
                  exemplars: int = 0,
                  max_label_sets: Optional[int] = None) -> Histogram:
        """Get or create a :class:`Histogram` with ``buckets``.

        Construction kwargs (``buckets``/``exemplars``/
        ``max_label_sets``) apply on first registration only; later
        get-or-create calls return the existing instrument unchanged.
        """
        return self._get_or_create(Histogram, name, help_text, labels,
                                   buckets=buckets, exemplars=exemplars,
                                   max_label_sets=max_label_sets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        """Look up an instrument by name, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        """Registered instrument names, in registration order."""
        with self._lock:
            return list(self._instruments)

    def render(self) -> str:
        """Full Prometheus-exposition text of every instrument."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines)
