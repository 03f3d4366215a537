"""Per-record object result set the columnar runtime container is pinned to.

:class:`ResultSet` is the list-of-:class:`~repro.experiments.records.\
RunRecord` container the runtime stored results in before the columnar
arenas became the one :class:`repro.experiments.ResultSet`.  It is kept
here unchanged as the equivalence oracle: ``tests/test_columnar.py``
checks on randomized records that the runtime container's ``where``,
``to_table``, ``metric``, aggregations and JSON form agree with it.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Iterator

import numpy as np

from repro.analysis.metrics import format_table
from repro.experiments.records import DEFAULT_TABLE_COLUMNS, RunRecord


class ResultSet:
    """Ordered collection of run records with export helpers.

    The per-record object form the runtime's columnar
    :class:`repro.experiments.ResultSet` is pinned to: same ``where`` /
    ``lookup`` / ``metric`` / ``to_table`` / ``to_json`` surface, one
    Python object per record.
    """

    def __init__(self, records: list[RunRecord] | None = None) -> None:
        self.records: list[RunRecord] = list(records or [])

    # ------------------------------------------------------------- protocol
    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        picked = self.records[index]
        return ResultSet(picked) if isinstance(index, slice) else picked

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.records == other.records

    def append(self, record: RunRecord) -> None:
        """Add one more record."""
        self.records.append(record)

    # ------------------------------------------------------------ selection
    def where(self, predicate: Callable[[RunRecord], bool] | None = None, **criteria) -> "ResultSet":
        """Records whose scenario matches the criteria (and predicate)."""
        picked = [
            r for r in self.records
            if r.scenario.matches(**criteria) and (predicate is None or predicate(r))
        ]
        return ResultSet(picked)

    def lookup(self, **criteria) -> RunRecord:
        """The single record matching the criteria; raises otherwise."""
        picked = self.where(**criteria)
        if len(picked) != 1:
            raise LookupError(
                f"expected exactly one record for {criteria}, found {len(picked)}"
            )
        return picked.records[0]

    def metric(self, name: str) -> np.ndarray:
        """Array of one metric (attribute/property name) across records."""
        return np.asarray([getattr(r, name) for r in self.records], dtype=float)

    # --------------------------------------------------------------- export
    def to_dicts(self, include_timing: bool = False) -> list[dict]:
        """List-of-dictionaries form."""
        return [r.to_dict(include_timing=include_timing) for r in self.records]

    def to_json(self, indent: int | None = None, include_timing: bool = False) -> str:
        """JSON form (stable across serial/parallel execution)."""
        return json.dumps(self.to_dicts(include_timing=include_timing), indent=indent)

    def save(self, path: str | pathlib.Path, include_timing: bool = False) -> pathlib.Path:
        """Write the result set to a JSON file and return its path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2, include_timing=include_timing), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ResultSet":
        """Load a result set previously written by :meth:`save`."""
        data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        return cls([RunRecord.from_dict(entry) for entry in data])

    def to_table(self, columns=DEFAULT_TABLE_COLUMNS) -> str:
        """Fixed-width text table of the result set.

        Columns are names from :data:`DEFAULT_TABLE_COLUMNS` or any record
        attribute; ``scenario`` renders the scenario's one-line summary.
        """
        renderers = {
            "scenario": lambda r: r.scenario.describe(),
            "packets": lambda r: str(r.num_packets),
            "per": lambda r: f"{r.packet_error_rate:.2f}",
            "coded_ber": lambda r: f"{r.coded_bit_error_rate:.3f}",
            "median_bps": lambda r: f"{r.median_bitrate_bps:.0f}",
            "detect": lambda r: f"{r.preamble_detection_rate:.1%}",
            "feedback_err": lambda r: f"{r.feedback_error_rate:.1%}",
            "elapsed_s": lambda r: f"{r.elapsed_s:.2f}",
        }
        rows = []
        for record in self.records:
            row = []
            for column in columns:
                if column in renderers:
                    row.append(renderers[column](record))
                else:
                    row.append(str(getattr(record, column)))
            rows.append(row)
        return format_table(list(columns), rows)

    @property
    def total_elapsed_s(self) -> float:
        """Sum of the per-record execution times."""
        return float(sum(r.elapsed_s for r in self.records))
