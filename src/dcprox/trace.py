"""Run traces: one row per accepted outer iteration, stored as columns.

``_TRACE_COLUMNS`` and ``_SUMMARY_COLUMNS`` are the one statement of the
trace and summary formats.  The loop, ``Trace.from_records`` and
``read_trace_csv`` append rows to ``_TraceBuffers``; both CSVs share one
chunked writer and one row reader.  ``audit_trace`` re-checks a trace.
"""

from __future__ import annotations

import csv
import operator
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration; the command line maps this to exit code 2."""


@dataclass
class TraceRecord:
    """One accepted outer iteration, as written to trace CSVs."""

    k: int
    F_value: float
    rel_error: float | None
    L_accepted: float
    t: float
    n_backtracks: int
    beta_used: float
    restarted: bool
    wall_clock_seconds: float
    descent_slack: float | None = None
    gate_passed: bool | None = None


@dataclass
class SummaryRow:
    """Aggregate of one (solver, tolerance) pair over the seed list.

    Means cover only the seeds whose run reached the tolerance; ``max_flag``
    marks rows where some seed exhausted the iteration cap first.
    """

    solver: str
    tol: float
    mean_iterations: float | None
    mean_seconds: float | None
    hit_rate: float
    max_flag: bool


def _int64(cell: str) -> int:
    value = int(cell)
    if not -2**63 <= value < 2**63:
        raise OverflowError("outside int64")
    return value


# Buffer typecode -> (numpy dtype, cell parser, what a cell must hold, the
# value a missing row holds); "s" is text, which no buffer holds.
_KINDS = {"q": (np.int64, _int64, "a 64-bit integer", None),
          "d": (np.float64, float, "a number", np.nan),
          "B": (np.bool_, {"0": False, "1": True}.__getitem__, "a flag, 0 or 1", False),
          "s": (None, str, "text", None)}

# (field, CSV column, buffer typecode, optional) in CSV order; an optional
# field's empty cell reads back as None.
_TRACE_COLUMNS = (("k", "k", "q", False), ("F_value", "F", "d", False),
                  ("rel_error", "rel_err", "d", True),
                  ("L_accepted", "L", "d", False), ("t", "t", "d", False),
                  ("n_backtracks", "backtracks", "q", False),
                  ("beta_used", "beta", "d", False),
                  ("restarted", "restarted", "B", False),
                  ("wall_clock_seconds", "seconds", "d", False),
                  ("descent_slack", "descent_slack", "d", True),
                  ("gate_passed", "gate_passed", "B", True))
_SUMMARY_COLUMNS = (("solver", "solver", "s", False), ("tol", "tol", "d", False),
                    ("mean_iterations", "mean_iterations", "d", True),
                    ("mean_seconds", "mean_seconds", "d", True),
                    ("hit_rate", "hit_rate", "d", False),
                    ("max_flag", "max_flag", "B", False))
_FIELDS = tuple(name for name, _, _, _ in _TRACE_COLUMNS)
# Optional field -> the value its column holds on a missing row.
_OPTIONAL = {name: _KINDS[code][3] for name, _, code, optional in _TRACE_COLUMNS
             if optional}
# Rows per block when records are built from the columns or written out.
_CHUNK = 1024


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array; an ``array.array`` buffer is
    viewed, not copied."""
    if isinstance(values, array):
        col = np.frombuffer(values, dtype)
    else:
        col = np.asarray(values, dtype).view()
    col.flags.writeable = False
    return col


class Trace(Sequence):
    """The accepted iterations of a run, one read-only numpy column per
    ``TraceRecord`` field.

    ``trace.F_value``, ``trace.k``, ... are the columns, named as the
    record fields.  The optional fields ``rel_error``, ``descent_slack`` and
    ``gate_passed`` have per-row masks in ``trace.missing``; a missing row
    holds NaN (``False`` for ``gate_passed``) in its column and reads back
    as None.  As a sequence of records, ``len``, indexing (negative indices
    too) and iteration build ``TraceRecord``s on access, a block of rows at
    a time; a slice is a ``Trace`` over views of the same columns.  Records
    built from the columns are fresh: editing one leaves the trace as it
    was.  Two traces, or a trace and a list of records, are equal when
    their records are.
    """

    __slots__ = _FIELDS + ("missing",)

    def __init__(self, columns: dict, missing: dict):
        """``columns`` maps every ``TraceRecord`` field to its values and
        ``missing`` every optional field to its bool mask, all of one
        length; ``array.array`` buffers are viewed without a copy."""
        for name, _, code, _ in _TRACE_COLUMNS:
            setattr(self, name, _column(columns[name], _KINDS[code][0]))
        self.missing = {name: _column(missing[name], np.bool_) for name in _OPTIONAL}
        if len({len(getattr(self, name)) for name in _FIELDS}
               | {len(mask) for mask in self.missing.values()}) > 1:
            raise ValueError("trace columns differ in length")

    @classmethod
    def from_records(cls, records) -> "Trace":
        """The trace holding ``records``, an iterable of ``TraceRecord``s."""
        return _TraceBuffers(map(operator.attrgetter(*_FIELDS), records)).trace()

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace({name: getattr(self, name)[index] for name in _FIELDS},
                         {name: mask[index] for name, mask in self.missing.items()})
        i = range(len(self))[index]  # bounds and negative indices as for a list
        return TraceRecord(*(None if name in self.missing and self.missing[name].item(i)
                             else getattr(self, name).item(i) for name in _FIELDS))

    def __iter__(self):
        n = len(self)
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            yield from map(TraceRecord, *(self._values(name, a, b) for name in _FIELDS))

    def _values(self, name: str, a: int, b: int) -> list:
        """Rows ``a:b`` of column ``name`` as Python values, None where missing."""
        values = getattr(self, name)[a:b]
        mask = self.missing.get(name)
        if mask is not None:
            mask = mask[a:b]
            if mask.all():
                return [None] * len(values)
            if mask.any():
                return [None if gone else v
                        for v, gone in zip(values.tolist(), mask.tolist())]
        return values.tolist()

    def __eq__(self, other):
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Trace({len(self)} records)"


class _TraceBuffers:
    """One growable buffer per field, and a missing-flag buffer per optional
    field, that a trace is appended to row by row."""

    def __init__(self, rows=()):
        self.values = {name: array(code) for name, _, code, _ in _TRACE_COLUMNS}
        self.missing = {name: array("B") for name in _OPTIONAL}
        self.extend(rows)

    def extend(self, rows) -> None:
        """Append each row, one value per field in column order, None where missing."""
        # (append a value, append a missing flag or None, the missing fill)
        adders = [(self.values[name].append,
                   name in _OPTIONAL and self.missing[name].append,
                   _OPTIONAL.get(name)) for name in _FIELDS]
        for row in rows:
            for (append, append_missing, fill), value in zip(adders, row):
                if append_missing:
                    append_missing(value is None)
                append(fill if value is None else value)

    def trace(self) -> Trace:
        """The buffers as a ``Trace``, without a copy.  An empty ``k`` counts
        1, 2, ...; an optional field with no flags is missing on every row if
        it has no values, else present on every row."""
        n = len(self.values["F_value"])
        columns = dict(self.values, k=self.values["k"] or np.arange(1, n + 1))
        missing = dict(self.missing)
        for name, fill in _OPTIONAL.items():
            if not missing[name]:  # zero-memory columns
                absent = not columns[name]
                columns[name] = np.broadcast_to(fill, n) if absent else columns[name]
                missing[name] = np.broadcast_to(absent, n)
        return Trace(columns, missing)


# --- CSV tables ---------------------------------------------------------------

def _write_csv(path, table, n: int, values) -> None:
    """``n`` rows under ``table``'s header, ``_CHUNK`` at a time, from
    ``values(field, lo, hi)``, a list with None (an empty cell) where missing."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for _, column, _, _ in table])
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            writer.writerows(zip(*(
                map({False: "0", True: "1"}.get, values(name, lo, hi)) if code == "B"
                else values(name, lo, hi) for name, _, code, _ in table)))


def _read_rows(path, table, what: str):
    """Each row of the CSV ``table`` at ``path``, parsed as ``read_trace_csv``
    describes, as a list with None for an empty optional cell."""
    cells = [(_KINDS[code][1], optional) for _, _, code, optional in table]
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != [column for _, column, _, _ in table]:
            raise ConfigError(f"unexpected {what} header: {found}")
        for row in reader:
            if len(row) != len(cells):
                raise ConfigError(f"{what} row {reader.line_num} has {len(row)} fields")
            values = []
            try:
                for (parse, optional), cell in zip(cells, row):
                    values.append(None if optional and cell == "" else parse(cell))
            except (ValueError, OverflowError, KeyError):
                _, column, code, _ = table[len(values)]
                raise ConfigError(
                    f"{what} line {reader.line_num}, column {column!r}: cannot read "
                    f"{row[len(values)]!r} as {_KINDS[code][2]}") from None
            yield values


def write_trace_csv(path, trace) -> None:
    """One row per record of the ``Trace``, one column per TraceRecord
    field; lossless.  Rows are formatted from the columns a block of rows at
    a time, so no record and no full-length list of cells is built.
    """
    _write_csv(path, _TRACE_COLUMNS, len(trace), trace._values)


def read_trace_csv(path) -> Trace:
    """Inverse of ``write_trace_csv``.

    Each row is parsed and appended to the trace's column buffers as it is
    read; no list of rows or records is held.  Any other header, a row of
    the wrong length and a cell that does not parse, a ``k`` or
    ``backtracks`` outside the int64 range among them, are ConfigErrors;
    the error for a cell names its 1-based line and its column.
    """
    return _TraceBuffers(_read_rows(path, _TRACE_COLUMNS, "trace")).trace()


def _write_summary_csv(path, rows) -> None:
    _write_csv(path, _SUMMARY_COLUMNS, len(rows),
               lambda name, lo, hi: [getattr(row, name) for row in rows[lo:hi]])


def read_summary_csv(path) -> list:
    """Inverse of ``summary.csv``, with the errors of ``read_trace_csv``."""
    return [SummaryRow(*row) for row in _read_rows(path, _SUMMARY_COLUMNS, "summary")]


# --- audits -------------------------------------------------------------------

def audit_trace(trace: Trace) -> list:
    """One ``(name, passed, problem)`` per property that every solver's
    trace has, in a fixed order; a NaN fails each audit that reads it."""
    F, beta = trace.F_value, trace.beta_used
    # the descent bound's round-off floor, scaled by the previous objective
    # (the first record, lacking one, uses its own); fmax, like max(1.0, .),
    # takes 1.0 over a NaN
    F_prev = np.concatenate((F[:1], F[:-1]))
    slack_floor = -1e-10 * np.fmax(1.0, np.abs(F_prev))
    rejected = ~(trace.gate_passed | trace.missing["gate_passed"])
    with np.errstate(all="ignore"):  # inf * 0 and overflow fail the audit quietly
        audits = [
            ("iteration-counter-consecutive",
             np.array_equal(trace.k, np.arange(1, len(trace) + 1)),
             "iteration counter not 1, 2, ..., n"),
            ("objective-finite", np.all(np.isfinite(F)),
             "non-finite objective value"),
            ("step-size-consistent",
             np.all(np.abs(trace.t * trace.L_accepted - 1.0) <= 1e-9),
             "step size inconsistent with accepted L"),
            ("backtrack-count-nonnegative", np.all(trace.n_backtracks >= 0),
             "negative backtrack count"),
            ("rejected-gate-zero-beta", np.all(beta[rejected] == 0.0),
             "nonzero extrapolation weight on a rejected gate"),
            ("restart-zero-beta", np.all(beta[1:][trace.restarted[:-1]] == 0.0),
             "nonzero extrapolation weight right after a restart"),
            ("descent-slack-floor",
             np.all((trace.descent_slack >= slack_floor)
                    | trace.missing["descent_slack"]),
             "descent slack below its round-off floor"),
            ("step-size-positive",
             np.all((trace.t > 0.0) & (trace.L_accepted > 0.0)),
             "nonpositive step size or accepted L"),
            # theta >= 1, and the contract family scales beta by delta in (0, 1)
            ("beta-nonnegative", np.all(beta >= 0.0),
             "negative extrapolation weight"),
            ("seconds-nondecreasing",
             np.all(np.diff(trace.wall_clock_seconds, prepend=0.0) >= 0.0),
             "wall-clock seconds negative or falling"),
            ("trace-nonempty", len(trace) > 0, "empty trace"),
        ]
    return [(name, bool(ok), problem) for name, ok, problem in audits]


# (name, what every summary row satisfies, problem): the invariants the
# summary writer keeps.
_ROW_AUDITS = (
    ("hit-rate-in-unit-interval", lambda r: 0.0 <= r.hit_rate <= 1.0,
     "hit rate outside [0, 1]"),
    ("max-flag-matches-hit-rate", lambda r: r.max_flag == (r.hit_rate < 1.0),
     "max_flag disagrees with the hit rate"),
    ("means-empty-iff-no-hits", lambda r: (r.mean_iterations is None)
     == (r.hit_rate == 0.0) == (r.mean_seconds is None),
     "means empty on a row with hits, or present on one without"),
    ("mean-seconds-nonnegative",
     lambda r: r.mean_seconds is None or r.mean_seconds >= 0.0, "negative mean seconds"))


def _audit_summary(rows) -> list:
    """``audit_trace`` for summary rows: per solver, first hits that do not
    fall and hit rates that do not rise as the tolerance tightens, then
    ``_ROW_AUDITS`` and no repeated (solver, tol) on every row."""
    monotone = []
    for solver in dict.fromkeys(r.solver for r in rows):
        group = sorted((r for r in rows if r.solver == solver),
                       key=lambda r: -r.tol)  # loosest first
        present = [r.mean_iterations for r in group if r.mean_iterations is not None]
        if any(b < a for a, b in zip(present, present[1:])):
            monotone.append(f"first-hit iterations decrease as {solver} "
                            "tolerance tightens")
        rates = [r.hit_rate for r in group]
        if any(b > a for a, b in zip(rates, rates[1:])):
            monotone.append(f"hit rate increases as {solver} tolerance tightens")
    results = [("first-hit-monotone", not monotone, "; ".join(monotone))]
    counts = Counter((r.solver, r.tol) for r in rows)
    unique = ("solver-tol-unique", lambda r: counts[r.solver, r.tol] == 1,
              "repeated (solver, tol) row")
    for name, ok, problem in (*_ROW_AUDITS, unique):
        bad = next((r for r in rows if not ok(r)), None)
        results.append((name, bad is None,
                        bad and f"{problem} ({bad.solver}, tol {bad.tol!r})"))
    return results
