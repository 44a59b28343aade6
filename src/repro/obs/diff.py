"""A general metrics-diff engine: compare two metric JSON documents.

``repro metrics diff`` compares two of the repository's metric
artifacts, each in one of two schemas:

- a :class:`~repro.obs.metrics.MetricsRegistry` dump
  (``--metrics-out`` of ``repro simulate``),
- a campaign/chaos rollup (``campaign_metrics.json``; the aggregate
  section, itself a registry dump, is what gets diffed).

Each document is first *flattened* to ``{dotted.name: float}``
(:func:`flatten_metrics` sniffs the schema), then :func:`diff_metrics`
walks the union of names and applies a ratio threshold per metric:
``min_ratio`` guards higher-is-better values (a hit rate may not fall
below ``min_ratio`` × baseline), ``max_ratio`` guards lower-is-better
ones (a retransmit count may not grow past ``max_ratio`` × baseline).
Thresholds attach by ``fnmatch`` pattern — first matching rule wins —
so callers can say "``*.retransmits`` may not double, everything else
is informational". The report names the **worst regression**
explicitly: the failing metric with the most extreme ratio, with its
before/after values, so a red CI line reads as a diagnosis rather than
a boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Iterable


@dataclass(frozen=True)
class Threshold:
    """Per-metric bounds on ``after / before``.

    ``min_ratio`` fails the diff when the ratio drops below it
    (higher-is-better metrics); ``max_ratio`` fails when the ratio
    exceeds it (lower-is-better metrics). Both ``None`` means the
    metric is reported but never fails.
    """

    min_ratio: float | None = None
    max_ratio: float | None = None


@dataclass(frozen=True)
class MetricDelta:
    """One metric's comparison outcome.

    ``ratio`` is ``after / before`` (``inf`` when a zero baseline
    grew, ``1.0`` when both sides are zero); ``ok`` is ``False`` only
    when a threshold tripped, with ``reason`` saying which bound and
    by how much. Metrics present on one side only are reported with
    ``status`` ``"added"``/``"removed"`` and never fail.
    """

    name: str
    before: float | None
    after: float | None
    ratio: float | None
    ok: bool
    status: str = "compared"
    reason: str = ""


@dataclass(frozen=True)
class DiffReport:
    """All deltas plus the headline verdict."""

    deltas: tuple[MetricDelta, ...]

    @property
    def failures(self) -> tuple[MetricDelta, ...]:
        """Deltas that tripped a threshold."""
        return tuple(d for d in self.deltas if not d.ok)

    @property
    def ok(self) -> bool:
        """True when no threshold tripped."""
        return not self.failures

    @property
    def worst(self) -> MetricDelta | None:
        """The failing delta with the most extreme ratio, if any.

        "Most extreme" means farthest from 1.0 on a log scale, so a
        metric that halved and one that doubled are equally bad.
        """
        worst: MetricDelta | None = None
        worst_badness = -1.0
        for delta in self.failures:
            ratio = delta.ratio if delta.ratio else float("inf")
            badness = (
                float("inf")
                if ratio in (0.0, float("inf"))
                else abs(ratio - 1.0) / min(ratio, 1.0)
            )
            if badness > worst_badness:
                worst, worst_badness = delta, badness
        return worst


def _flatten_metric(name: str, metric: dict, out: dict[str, float]) -> None:
    """Flatten one registry-style metric into scalar components."""
    kind = metric.get("type")
    if kind in ("counter", "gauge"):
        out[name] = float(metric["value"])
        return
    if kind == "histogram":
        for component in ("count", "sum", "mean", "min", "max"):
            value = metric.get(component)
            if value is not None:
                out[f"{name}.{component}"] = float(value)
        return
    raise ValueError(f"unknown metric type {kind!r} for {name!r}")


def flatten_metrics(doc: dict[str, Any]) -> dict[str, float]:
    """Flatten a metrics document of any supported schema to scalars.

    Recognises rollups (``aggregate`` section) and raw registry dumps
    (name → typed metric). A flat ``{name: number}`` mapping passes
    through unchanged.
    """
    if "aggregate" in doc and isinstance(doc["aggregate"], dict):
        doc = doc["aggregate"]
    flat: dict[str, float] = {}
    for name in sorted(doc):
        value = doc[name]
        if isinstance(value, dict) and "type" in value:
            _flatten_metric(name, value, flat)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = float(value)
        elif isinstance(value, bool):
            flat[name] = float(value)
        # Non-numeric entries (schema tags, labels) are not metrics.
    return flat


def load_metrics(path: str | Path) -> dict[str, float]:
    """Read and flatten a metrics JSON file."""
    return flatten_metrics(json.loads(Path(path).read_text()))


def resolve_threshold(
    name: str,
    rules: Iterable[tuple[str, Threshold]],
    default: Threshold,
) -> Threshold:
    """First ``fnmatch``-matching rule for *name*, else *default*."""
    for pattern, threshold in rules:
        if fnmatch(name, pattern):
            return threshold
    return default


def diff_metrics(
    before: dict[str, float],
    after: dict[str, float],
    rules: Iterable[tuple[str, Threshold]] = (),
    default: Threshold = Threshold(),
) -> DiffReport:
    """Compare two flattened metric mappings name by name."""
    rules = tuple(rules)
    deltas: list[MetricDelta] = []
    for name in sorted(set(before) | set(after)):
        if name not in after:
            deltas.append(MetricDelta(
                name=name, before=before[name], after=None, ratio=None,
                ok=True, status="removed",
            ))
            continue
        if name not in before:
            deltas.append(MetricDelta(
                name=name, before=None, after=after[name], ratio=None,
                ok=True, status="added",
            ))
            continue
        b, a = before[name], after[name]
        if b == 0.0:
            ratio = 1.0 if a == 0.0 else float("inf")
        else:
            ratio = a / b
        threshold = resolve_threshold(name, rules, default)
        ok, reason = True, ""
        if threshold.min_ratio is not None and ratio < threshold.min_ratio:
            ok = False
            reason = (
                f"ratio {ratio:.3f} below floor {threshold.min_ratio:.3f}"
            )
        elif threshold.max_ratio is not None and ratio > threshold.max_ratio:
            ok = False
            reason = (
                f"ratio {ratio:.3f} above ceiling {threshold.max_ratio:.3f}"
            )
        deltas.append(MetricDelta(
            name=name, before=b, after=a, ratio=ratio, ok=ok, reason=reason,
        ))
    return DiffReport(deltas=tuple(deltas))


def parse_threshold_rule(spec: str) -> tuple[str, Threshold]:
    """Parse a CLI rule ``PATTERN:min=X`` / ``PATTERN:max=Y`` (or both,
    comma-separated): ``'*.speedup:min=0.5'``."""
    pattern, sep, bounds = spec.partition(":")
    if not sep or not pattern:
        raise ValueError(
            f"threshold rule {spec!r} must look like 'PATTERN:min=0.5' "
            "or 'PATTERN:max=2.0'"
        )
    min_ratio = max_ratio = None
    for bound in bounds.split(","):
        key, sep, value = bound.partition("=")
        if not sep:
            raise ValueError(f"bad bound {bound!r} in rule {spec!r}")
        if key == "min":
            min_ratio = float(value)
        elif key == "max":
            max_ratio = float(value)
        else:
            raise ValueError(f"unknown bound {key!r} in rule {spec!r}")
    return pattern, Threshold(min_ratio=min_ratio, max_ratio=max_ratio)


def format_diff(report: DiffReport, verbose: bool = False) -> str:
    """Human-readable diff report.

    Failures always print with before/after and the tripped bound; the
    worst regression gets a dedicated headline line. With *verbose*,
    passing and added/removed metrics print too.
    """
    lines: list[str] = []
    for delta in report.deltas:
        if delta.status == "removed":
            if verbose:
                lines.append(f"  - {delta.name} removed "
                             f"(was {delta.before:g})")
            continue
        if delta.status == "added":
            if verbose:
                lines.append(f"  + {delta.name} added "
                             f"(now {delta.after:g})")
            continue
        if not delta.ok:
            lines.append(
                f"FAIL {delta.name}: {delta.before:g} -> {delta.after:g} "
                f"({delta.reason})"
            )
        elif verbose:
            lines.append(
                f"  ok {delta.name}: {delta.before:g} -> {delta.after:g} "
                f"(ratio {delta.ratio:.3f})"
            )
    worst = report.worst
    if worst is not None:
        lines.append(
            f"worst regression: {worst.name} "
            f"({worst.before:g} -> {worst.after:g}, "
            f"ratio {worst.ratio:.3f})"
        )
    compared = sum(1 for d in report.deltas if d.status == "compared")
    lines.append(
        f"{'FAIL' if not report.ok else 'OK'}: "
        f"{len(report.failures)} of {compared} compared metrics regressed"
    )
    return "\n".join(lines) + "\n"
