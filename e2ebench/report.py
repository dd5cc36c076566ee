"""One run's outcome: gated metrics, report rows and the result line."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from common import TAIL_MIN_BEYOND, samples_beyond, tail


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Metrics eligible for the result line: name -> (value, unit).
    metrics: Dict[str, tuple] = field(default_factory=dict)
    layer_metrics: Dict[str, tuple] = field(default_factory=dict)
    #: Report rows: (name, value or None, unit, samples, note).
    rows: List[tuple] = field(default_factory=list)
    layer_rows: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, samples: int,
               note: str) -> None:
        """A gated end-to-end metric (also printed in the report)."""
        self.metrics[name] = (value, unit)
        self.rows.append((name, value, unit, samples, note))

    def note(self, name: str, value: Optional[float], unit: str,
             samples: int, note: str) -> None:
        """A report-only figure (not in BENCHMARK.json)."""
        self.rows.append((name, value, unit, samples, note))

    def tail(self, prefix: str, values: Sequence[float], unit: str) -> None:
        found = tail(values)
        name = f"{prefix}_tail_{unit}"
        if found is None:
            self.note(name, None, unit, len(values),
                      f"omitted: {len(values)} samples leave fewer than "
                      f"{TAIL_MIN_BEYOND} beyond any tail percentile")
            return
        pct, value = found
        self.note(name, value, unit, len(values),
                  f"p{pct:g}, {samples_beyond(len(values), pct):.0f} "
                  f"samples beyond it")

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layer_metrics[name] = (value, unit)

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [f"== {self.workload}: end-to-end "
                 f"({self.failed}/{self.attempted} ops failed, "
                 f"error_ratio {self.error_ratio:.4f})"]
        for name, value, unit, samples, note in self.rows:
            shown = "-" if value is None else f"{value:.4f}"
            lines.append(
                f"  {name:<22} {shown:>14} {unit:<6} n={samples:<6} {note}"
            )
        lines.extend(self.layer_rows)
        for failure in self.failures[:20]:
            lines.append(f"  FAILED {failure.strip()}")
        return "\n".join(lines)

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result_line(self, names: List[str]) -> str:
        source = {**self.metrics, **self.layer_metrics}
        metrics: Dict[str, Any] = {}
        for name in names:
            value, unit = source[name]
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
