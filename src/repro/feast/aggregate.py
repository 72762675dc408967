"""Statistical aggregation of trial records.

The paper reports "the average of the maximum task lateness taken over the
128 simulation runs that were made for each parameter combination". These
helpers compute that average — and, beyond the paper, its dispersion and a
95 % confidence interval — for arbitrary groupings of trial records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.feast.runner import TrialRecord

#: Two-sided 95 % t-quantiles for small samples; falls back to 1.96 above.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 14: 2.145, 16: 2.120,
    20: 2.086, 24: 2.064, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}


def _t95(dof: int) -> float:
    if dof <= 0:
        return float("nan")
    best = 1.960
    for k in sorted(_T95):
        if dof <= k:
            return _T95[k]
        best = _T95[k]
    return 1.960 if dof > 120 else best


@dataclass(frozen=True)
class Summary:
    """Aggregate statistics of one group of samples."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci95_half_width: float

    @property
    def ci95(self) -> Tuple[float, float]:
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample standard deviation, extrema, and 95 % CI half-width."""
    if not values:
        raise ExperimentError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
        half = _t95(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        half = float("nan")
    return Summary(
        n=n,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
        ci95_half_width=half,
    )


GroupKey = Tuple
KeyFn = Callable[[TrialRecord], GroupKey]


def group_records(
    records: Iterable[TrialRecord], key: KeyFn
) -> Dict[GroupKey, List[TrialRecord]]:
    """Group records by an arbitrary key function, preserving insertion order."""
    out: Dict[GroupKey, List[TrialRecord]] = {}
    for record in records:
        out.setdefault(key(record), []).append(record)
    return out


def summarize_by(
    records: Iterable[TrialRecord],
    key: KeyFn,
    value: Callable[[TrialRecord], float] = lambda r: r.max_lateness,
) -> Dict[GroupKey, Summary]:
    """Per-group :class:`Summary` of a record field (default: max lateness)."""
    return {
        k: summarize([value(r) for r in group])
        for k, group in group_records(records, key).items()
    }


def mean_max_lateness(
    records: Iterable[TrialRecord],
) -> Dict[Tuple[str, str, int], float]:
    """The paper's headline series: mean (over graphs) of the maximum task
    lateness, keyed by (scenario, method, n_processors)."""
    summaries = summarize_by(
        records, key=lambda r: (r.scenario, r.method, r.n_processors)
    )
    return {k: s.mean for k, s in summaries.items()}


def mean_end_to_end_lateness(
    records: Iterable[TrialRecord],
) -> Dict[Tuple[str, str, int], float]:
    """Mean (over graphs) of the maximum *end-to-end* lateness, keyed by
    (scenario, method, n_processors). Unlike :func:`mean_max_lateness`
    this measure shares its anchors across strategies, so it is the right
    series for comparing different deadline-distribution methods."""
    summaries = summarize_by(
        records,
        key=lambda r: (r.scenario, r.method, r.n_processors),
        value=lambda r: r.max_end_to_end_lateness,
    )
    return {k: s.mean for k, s in summaries.items()}


@dataclass(frozen=True)
class PairedComparison:
    """Paired comparison of two methods on the same graphs.

    ``mean_diff`` is mean(B − A): negative means method B achieves more
    negative (better) lateness than A. The experiment runner seeds graphs
    per (scenario, index), so records with equal ``graph_index`` are the
    *same* workload under both methods — the paired design that removes
    between-graph variance from the comparison.
    """

    method_a: str
    method_b: str
    n: int
    mean_diff: float
    ci95_half_width: float
    t_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Two-sided significance at the 5 % level."""
        return self.p_value < 0.05

    @property
    def ci95(self) -> Tuple[float, float]:
        return (
            self.mean_diff - self.ci95_half_width,
            self.mean_diff + self.ci95_half_width,
        )


def paired_comparison(
    records: Iterable[TrialRecord],
    method_a: str,
    method_b: str,
    scenario: Optional[str] = None,
    n_processors: Optional[int] = None,
    value: Callable[[TrialRecord], float] = lambda r: r.max_lateness,
) -> PairedComparison:
    """Paired t-test of method B against method A on matched graphs.

    Filters to one (scenario, size) cell when given; otherwise pairs
    within every cell and pools the differences. Raises
    :class:`ExperimentError` when no pairs match.
    """
    by_key_a: Dict[Tuple, float] = {}
    by_key_b: Dict[Tuple, float] = {}
    for record in records:
        if scenario is not None and record.scenario != scenario:
            continue
        if n_processors is not None and record.n_processors != n_processors:
            continue
        key = (record.scenario, record.n_processors, record.graph_index)
        if record.method == method_a:
            by_key_a[key] = value(record)
        elif record.method == method_b:
            by_key_b[key] = value(record)
    diffs = [
        by_key_b[key] - by_key_a[key] for key in by_key_a if key in by_key_b
    ]
    if not diffs:
        raise ExperimentError(
            f"no matched pairs of {method_a!r} and {method_b!r}"
        )
    n = len(diffs)
    mean = sum(diffs) / n
    if n > 1:
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    if std == 0.0:
        t_stat = 0.0 if mean == 0 else math.copysign(math.inf, mean)
        p_value = 1.0 if mean == 0 else 0.0
        half = 0.0
    else:
        se = std / math.sqrt(n)
        t_stat = mean / se
        half = _t95(n - 1) * se
        p_value = _two_sided_p(t_stat, n - 1)
    return PairedComparison(
        method_a=method_a,
        method_b=method_b,
        n=n,
        mean_diff=mean,
        ci95_half_width=half,
        t_statistic=t_stat,
        p_value=p_value,
    )


def _two_sided_p(t_stat: float, dof: int) -> float:
    """Two-sided p-value of a t statistic.

    Uses scipy when available (it is, in this repository's environment);
    falls back to the normal approximation otherwise.
    """
    try:
        from scipy import stats

        return float(2.0 * stats.t.sf(abs(t_stat), dof))
    except ImportError:  # pragma: no cover - scipy is a test dependency
        z = abs(t_stat)
        return float(2.0 * 0.5 * math.erfc(z / math.sqrt(2.0)))


# ----------------------------------------------------------------------
# Streaming aggregation (the record_sink side of the execution backends)
# ----------------------------------------------------------------------
class ExactSum:
    """Exact float accumulation via Shewchuk partials.

    Floating-point addition is not associative, but execution backends
    deliver chunks in arbitrary order — a worker fleet by journal
    position. Tracking each group's sum as a list of
    non-overlapping partials makes the rounded total independent of
    the order values arrive in, which is what lets a streamed aggregate
    be *identical* across backends and shard counts instead of merely
    close. Memory is O(1) in practice (a handful of partials).
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: List[float] = []

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        """The correctly rounded sum of everything added so far."""
        return math.fsum(self._partials)


class StreamStats:
    """One group's running statistics (exact sums, O(1) memory)."""

    __slots__ = ("n", "_sum", "_sumsq", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self._sum = ExactSum()
        self._sumsq = ExactSum()
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.n += 1
        self._sum.add(value)
        self._sumsq.add(value * value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> Summary:
        """A :class:`Summary` of the streamed values.

        The variance comes from the one-pass identity
        ``(Σv² − n·mean²) / (n−1)`` over *exact* sums, so it is
        order-independent; it can differ from the two-pass
        :func:`summarize` result in the last few ulps (never more —
        the sums themselves carry no accumulated rounding error).
        """
        if self.n == 0:
            raise ExperimentError("cannot summarize an empty sample")
        n = self.n
        mean = self._sum.value / n
        if n > 1:
            var = max(0.0, (self._sumsq.value - n * mean * mean) / (n - 1))
            std = math.sqrt(var)
            half = _t95(n - 1) * std / math.sqrt(n)
        else:
            std = 0.0
            half = float("nan")
        return Summary(
            n=n,
            mean=mean,
            std=std,
            minimum=self.minimum,
            maximum=self.maximum,
            ci95_half_width=half,
        )


class StreamingAggregator:
    """Fold trial records into per-group statistics as they stream.

    The ``record_sink`` counterpart of :func:`summarize_by`: pass an
    instance as ``run_experiment(..., record_sink=agg)`` and each
    record is folded into its group's :class:`StreamStats` the moment
    its chunk completes (or replays from a checkpoint), then dropped —
    the run never materializes the record list, so a paper-scale sweep's
    resident memory is bounded by the chunk size. Aggregates are
    order-independent (see :class:`ExactSum`): serial and any worker
    count produce identical group summaries.

    ``key``/``value`` default to the paper's headline series — mean max
    lateness per (scenario, method, n_processors), i.e.
    :meth:`means` matches :func:`mean_max_lateness` of the same records.
    """

    def __init__(
        self,
        key: KeyFn = lambda r: (r.scenario, r.method, r.n_processors),
        value: Callable[[TrialRecord], float] = lambda r: r.max_lateness,
    ) -> None:
        self._key = key
        self._value = value
        self.groups: Dict[GroupKey, StreamStats] = {}
        #: Records folded so far.
        self.n_records = 0

    def __call__(self, record: TrialRecord) -> None:
        """The record-sink interface: fold one record."""
        self.n_records += 1
        stats = self.groups.get(self._key(record))
        if stats is None:
            stats = self.groups.setdefault(self._key(record), StreamStats())
        stats.add(self._value(record))

    def summaries(self) -> Dict[GroupKey, Summary]:
        """Per-group :class:`Summary`, keyed and ordered deterministically
        (sorted by group key, independent of arrival order)."""
        return {
            key: self.groups[key].summary() for key in sorted(self.groups)
        }

    def means(self) -> Dict[GroupKey, float]:
        """Per-group means — the streamed :func:`mean_max_lateness`."""
        return {key: s.mean for key, s in self.summaries().items()}


def improvement_over(
    records: Iterable[TrialRecord],
    baseline_method: str,
) -> Dict[Tuple[str, str, int], float]:
    """Relative improvement of each method's mean max lateness over a
    baseline, per (scenario, method, n_processors).

    Improvement is measured the way the paper phrases it ("the increase in
    performance over PURE can be as high as 100 %"): the *gain in margin*,
    ``(baseline - method) / |baseline|`` — positive when the method achieves
    a more negative (better) lateness than the baseline.
    """
    means = mean_max_lateness(records)
    out: Dict[Tuple[str, str, int], float] = {}
    for (scenario, method, size), value in means.items():
        base = means.get((scenario, baseline_method, size))
        if base is None or method == baseline_method or base == 0:
            continue
        out[(scenario, method, size)] = (base - value) / abs(base)
    return out
