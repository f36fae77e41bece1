"""Result rows and deterministic CSV emission."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class ResultRow:
    """One detector's tally after replaying a policy-arrival sequence.

    The headline rate divides false positives by the number of correct
    (loop-free) arrivals, i.e. the fraction of correct rules rejected.
    Because that denominator is a judgement call, the row also carries the
    fraction over all arrivals, so consumers can pick either.
    """

    experiment: str
    detector: str
    path_threshold: int
    installed: int
    rejected: int
    true_loops: int
    false_positives: int

    def __post_init__(self) -> None:
        counts = (self.installed, self.rejected, self.true_loops,
                  self.false_positives)
        if any(c < 0 for c in counts):
            raise ValueError("counters cannot be negative")
        if self.rejected > self.installed:
            raise ValueError("cannot reject more rules than arrived")
        if self.true_loops > self.installed:
            raise ValueError("cannot have more loops than arrivals")
        if self.false_positives > self.rejected:
            raise ValueError("false positives are a subset of rejections")
        if self.false_positives > self.correct:
            raise ValueError("false positives are a subset of correct rules")

    @property
    def correct(self) -> int:
        return self.installed - self.true_loops

    @property
    def fp_rate(self) -> float:
        """Fraction of correct rules rejected."""
        return self.false_positives / max(1, self.correct)

    @property
    def fp_rate_all(self) -> float:
        """Fraction of all arrivals rejected despite being loop-free."""
        return self.false_positives / max(1, self.installed)


def write_csv(path: str | Path, experiment: str, row_type, rows,
              formats: dict[str, str]) -> Path:
    """Write ``rows``, of the dataclass ``row_type``, already sorted by the
    caller, under a header row.

    The columns are ``experiment``, which reads ``experiment`` on every
    row, then the row type's other fields in order, then any column of
    ``formats`` that is no field, read as an attribute (``fp_rate``).  A
    cell is its value formatted by its column's entry of ``formats``, or
    ``str`` of it.  Newlines are pinned to '\\n' so identical inputs
    yield identical bytes on every platform.
    """
    names = [f.name for f in fields(row_type) if f.name != "experiment"]
    columns = names + [name for name in formats if name not in names]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["experiment", *columns])
        for row in rows:
            writer.writerow([experiment] + [
                format(getattr(row, name), formats.get(name, ""))
                for name in columns])
    return out
