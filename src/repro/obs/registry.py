"""Metrics registry: counters, gauges and fixed-bucket histograms.

The observability layer's storage.  Three metric kinds, all driven by
the **simulated** clock (never the wall clock — the registry must be
PMLint DET-01 clean so an instrumented run replays byte-identically):

- :class:`Counter` — monotonically increasing total (requests served,
  nanoseconds charged to a stage, frames carried).
- :class:`Gauge` — a point-in-time value.  Either set explicitly or
  *callback-backed*: constructed with ``fn=...`` it reads live system
  state (core queue depth, pool occupancy, connection count) at
  snapshot time, so the hot path pays nothing to keep it current.
- :class:`Histogram` — a :class:`~repro.obs.tdigest.TDigest` behind
  the classic ``le``-bucket snapshot shape.  ``observe`` is two adds
  plus one digest buffer append — the digest is the *only* sample
  store; the fixed per-observation bucket counters of earlier versions
  are gone.  :meth:`Histogram.quantile` answers from the digest
  (percentile-exact within the documented scale-function bound); the
  ``le`` buckets still exist but are **derived views**, materialised
  from the digest's centroids on demand (:attr:`Histogram.counts`),
  and the snapshot emits them **sparsely** — zero-count buckets are
  dropped, only the terminal ``{"le": null}`` overflow entry is always
  present.

Snapshots are plain dicts (JSON-ready) so ``repro-stats`` can export
them and CI can schema-check the output; the document carries
``schema`` (:data:`SNAPSHOT_SCHEMA`) so consumers can detect the
sparse-bucket format.  ``reset`` zeroes counters and histograms but
keeps the metric objects — handles cached by instrumented code stay
valid — and records the reset time, giving windowed rates and
utilisations a well-defined origin.
"""

from bisect import bisect_left

from repro.obs.tdigest import DEFAULT_COMPRESSION, TDigest

#: Default duration buckets (nanoseconds): 1 µs .. 16 ms in powers of
#: two, a range that spans one flush (~60 ns aggregates into the µs
#: buckets) up to a badly queued multi-millisecond request.
DEFAULT_TIME_BUCKETS_NS = tuple(1_000.0 * (2 ** i) for i in range(15))


class Counter:
    """Monotonic total.  ``inc`` is the only mutator."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount
        return self.value

    def reset(self):
        self.value = 0.0

    def describe(self):
        return {"type": "counter", "value": self.value}

    def __repr__(self):
        return f"<Counter {self.name}={self.value:.0f}>"


class Gauge:
    """Point-in-time value; callback-backed gauges read state lazily."""

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name, fn=None):
        self.name = name
        self._value = 0.0
        self.fn = fn

    @property
    def value(self):
        if self.fn is not None:
            return self.fn()
        return self._value

    def set(self, value):
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = value
        return value

    def reset(self):
        if self.fn is None:
            self._value = 0.0

    def describe(self):
        return {"type": "gauge", "value": self.value}

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


#: Quantiles every histogram snapshot reports from its digest.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: Snapshot document version.  v2: histogram buckets are sparse views
#: derived from the t-digest (zero-count buckets elided); v1 (implied
#: by the key's absence) emitted the full fixed bucket array.
SNAPSHOT_SCHEMA = "repro-metrics/v2"


class Histogram:
    """Digest-backed histogram presenting classic ``le`` buckets.

    The t-digest is the only per-observation store — ``observe`` keeps
    no bucket counters, so the hot path is two adds and a buffer
    append regardless of how many bucket edges the snapshot shows.
    ``bounds`` only shape the *view*: :attr:`counts` is derived on
    demand by binning the digest's centroids (a centroid of weight w
    at mean m contributes w to the bucket holding m), which preserves
    ``sum(counts) == count`` exactly while individual buckets are
    approximate within the digest's clustering — the same trade
    :meth:`quantile` already makes.  The digest is serialisable and
    mergeable, so per-core histograms can combine into one server-wide
    quantile view.
    """

    __slots__ = ("name", "bounds", "total", "count", "min", "max", "digest")

    def __init__(self, name, bounds=DEFAULT_TIME_BUCKETS_NS,
                 compression=DEFAULT_COMPRESSION):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name}: no buckets")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name}: bounds must strictly increase")
        self.name = name
        self.bounds = bounds
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None
        self.digest = TDigest(compression=compression)

    def observe(self, value):
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.digest.add(value)

    @property
    def counts(self):
        """Bucket counts derived from the digest's centroids.

        ``counts[i]`` approximates observations ``<= bounds[i]``
        (``bisect_left`` keeps the inclusive-``le`` contract for
        unmerged samples); the final entry is the overflow.  Exact
        while every sample is its own centroid (small n), approximate
        within centroid clustering after compaction; the total is
        always exact.
        """
        counts = [0] * (len(self.bounds) + 1)
        for mean, weight in self.digest.centroids():
            counts[bisect_left(self.bounds, mean)] += int(round(weight))
        return counts

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Percentile-exact quantile estimate from the t-digest.

        Within ``2pi*sqrt(q(1-q))/compression`` (in quantile space) of
        the exact sample quantile — see :mod:`repro.obs.tdigest`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return self.digest.quantile(q)

    def reset(self):
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None
        self.digest.reset()

    def describe(self):
        counts = self.counts
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            # Sparse: zero-count buckets are elided; the terminal
            # overflow entry ({"le": null}) is always present, so
            # buckets[-1]["le"] is None and sum(counts) == count hold
            # for every consumer.
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds, counts)
                if count
            ] + [{"le": None, "count": counts[-1]}],
            "quantiles": {
                f"p{q * 100:g}": self.digest.quantile(q)
                for q in SNAPSHOT_QUANTILES
            },
        }

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.0f}>"


class MetricsRegistry:
    """Named metrics under one namespace, with sim-clock bookkeeping.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent,
    so wiring code can run more than once); requesting an existing name
    as a different kind is an error — it would silently split one
    logical metric across types.
    """

    def __init__(self, sim=None):
        self.sim = sim
        self._metrics = {}
        self.created_at = self.now
        self.reset_at = self.now

    @property
    def now(self):
        """Simulated time; 0.0 when no simulator is attached."""
        return self.sim.now if self.sim is not None else 0.0

    @property
    def window_ns(self):
        """Nanoseconds of simulated time since the last reset."""
        return self.now - self.reset_at

    # -- construction ----------------------------------------------------------

    def _get_or_create(self, name, kind, factory):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name):
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name, fn=None):
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None and gauge.fn is None:
            gauge.fn = fn  # upgrade a plain gauge to callback-backed
        return gauge

    def histogram(self, name, bounds=DEFAULT_TIME_BUCKETS_NS):
        return self._get_or_create(name, Histogram, lambda: Histogram(name, bounds))

    # -- access ----------------------------------------------------------------

    def get(self, name):
        return self._metrics.get(name)

    def value(self, name, default=0.0):
        """Current value of a counter/gauge (histograms: their mean)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.mean
        return metric.value

    def names(self):
        return sorted(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def __len__(self):
        return len(self._metrics)

    # -- snapshot / reset ------------------------------------------------------

    def snapshot(self):
        """JSON-ready dict of every metric plus clock bookkeeping."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "sim_now_ns": self.now,
            "window_ns": self.window_ns,
            "metrics": {
                name: metric.describe()
                for name, metric in sorted(self._metrics.items())
            },
        }

    def reset(self):
        """Zero counters/histograms/settable gauges; keep registrations."""
        for metric in self._metrics.values():
            metric.reset()
        self.reset_at = self.now

    def __repr__(self):
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
