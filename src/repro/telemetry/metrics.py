"""Instance-scoped metrics registry.

Counters, gauges, and fixed-bucket histograms, deliberately minimal and
deterministic: no wall-clock timestamps, no background aggregation, no
global state.  Every :class:`~repro.network.simnet.SimNetwork`, ordering
service, and platform simulation owns (or shares) one registry, so
back-to-back scenarios in a single process never bleed counts into each
other — the failure mode the old module-free-floating ``NetworkStats``
dataclass invited.

Metric names are dotted strings (``net.messages_sent``); optional label
pairs qualify a family (``crypto.ops`` with ``mechanism=...``), rendered
Prometheus-style as ``crypto.ops{mechanism=symmetric-encryption}``.
Snapshots are plain JSON-serializable dicts and two snapshots can be
diffed, which is what the ``repro metrics`` CLI and the cross-PR
benchmark trajectory consume.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

#: Default histogram upper bounds, in simulated seconds — chosen to span
#: the latency scales the substrate produces (per-hop milliseconds up to
#: multi-second batch timeouts).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def _metric_key(name: str, labels: dict[str, str]) -> str:
    """``name{k=v,...}`` with the labels sorted; callers pass only a
    labelled name, since an unlabelled name is its own key."""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move both ways (queue depths, current term)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass
class Histogram:
    """A fixed-bucket histogram (cumulative buckets, like Prometheus).

    ``bounds`` are ascending inclusive upper edges; an implicit +Inf
    bucket catches the rest.  Only ``observe`` mutates it, so snapshots
    stay cheap.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # The first bound >= value; past the last bound, the +Inf bucket.
        self.counts[bisect.bisect_left(self.bounds, value)] += 1

    def mean(self) -> float | None:
        """Mean observation, or ``None`` when nothing was observed."""
        return self.total / self.count if self.count else None

    def bucket_dict(self) -> dict[str, int]:
        labels = [f"le={b:g}" for b in self.bounds] + ["le=+Inf"]
        return dict(zip(labels, self.counts))


class Bound(dict):
    """Hot-path metric handles: ``bound[key]`` is ``make(key)``, made on
    the key's first use (so no series before a touch) and then updated
    in place.  A site where nothing varies uses the key ``None``."""

    def __init__(self, make: Callable[[Any], Any]) -> None:
        self.make = make

    def __missing__(self, key: Any) -> Any:
        handles = self[key] = self.make(key)
        return handles


class MetricsRegistry:
    """One scope's worth of metrics; create one per simulation."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._labelled_keys: dict[tuple, str] = {}

    # -- accessors (create on first use)

    def _labelled_key(self, name: str, labels: dict[str, str]) -> str:
        """The metric key of *name* with *labels*, built once per series."""
        series = (name, tuple(labels.items()))
        key = self._labelled_keys.get(series)
        if key is None:
            key = self._labelled_keys[series] = _metric_key(name, labels)
        return key

    def counter(self, name: str, **labels: str) -> Counter:
        key = self._labelled_key(name, labels) if labels else name
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name=key)
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = self._labelled_key(name, labels) if labels else name
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name=key)
        return gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        key = self._labelled_key(name, labels) if labels else name
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(name=key, bounds=bounds)
        return histogram

    def bind(self, make: Callable[["MetricsRegistry", Any], Any]) -> Bound:
        """Hot-path handles, made by ``make(registry, key)`` per key."""
        return Bound(partial(make, self))

    def counter_value(self, name: str) -> float:
        """Counter *name*'s value, 0 if absent: reading creates no series."""
        return self._counters[name].value if name in self._counters else 0.0

    # -- snapshots

    def snapshot(self) -> dict:
        """JSON-serializable view of every metric, sorted for determinism."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean(),
                    "buckets": h.bucket_dict(),
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def render_text(self) -> str:
        """Human-readable snapshot for the ``repro metrics`` CLI."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            lines += [
                f"  {name:<48s} {value:g}"
                for name, value in snap["counters"].items()
            ]
        if snap["gauges"]:
            lines.append("gauges:")
            lines += [
                f"  {name:<48s} {value:g}"
                for name, value in snap["gauges"].items()
            ]
        if snap["histograms"]:
            lines.append("histograms:")
            for name, h in snap["histograms"].items():
                mean = "n/a" if h["mean"] is None else f"{h['mean']:.6f}"
                lines.append(
                    f"  {name:<48s} count={h['count']} sum={h['sum']:.6f} "
                    f"mean={mean}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def diff_snapshots(before: dict, after: dict) -> dict:
    """Per-metric deltas between two :meth:`MetricsRegistry.snapshot`s.

    Counters and histogram counts/sums subtract; gauges report both
    endpoints (a gauge delta hides the level, which is the point of a
    gauge).  Metrics absent on one side diff against zero.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    names = set(before.get("counters", {})) | set(after.get("counters", {}))
    for name in sorted(names):
        delta = after.get("counters", {}).get(name, 0.0) - before.get(
            "counters", {}
        ).get(name, 0.0)
        if delta:
            out["counters"][name] = delta
    names = set(before.get("gauges", {})) | set(after.get("gauges", {}))
    for name in sorted(names):
        out["gauges"][name] = {
            "before": before.get("gauges", {}).get(name, 0.0),
            "after": after.get("gauges", {}).get(name, 0.0),
        }
    names = set(before.get("histograms", {})) | set(after.get("histograms", {}))
    for name in sorted(names):
        b = before.get("histograms", {}).get(name, {"count": 0, "sum": 0.0})
        a = after.get("histograms", {}).get(name, {"count": 0, "sum": 0.0})
        delta_count = a["count"] - b["count"]
        if delta_count:
            out["histograms"][name] = {
                "count": delta_count,
                "sum": a["sum"] - b["sum"],
            }
    return out


def render_diff(delta: dict) -> str:
    """Text form of :func:`diff_snapshots` for the CLI."""
    lines: list[str] = []
    for name, value in delta.get("counters", {}).items():
        lines.append(f"counter   {name:<48s} {value:+g}")
    for name, ends in delta.get("gauges", {}).items():
        lines.append(
            f"gauge     {name:<48s} {ends['before']:g} -> {ends['after']:g}"
        )
    for name, h in delta.get("histograms", {}).items():
        lines.append(
            f"histogram {name:<48s} count {h['count']:+d} sum {h['sum']:+.6f}"
        )
    return "\n".join(lines) if lines else "(no differences)"
