"""Trip telemetry ingestion, filtering, vehicle-level aggregation, and
design-matrix assembly.

The trips CSV schema (comma-separated, UTF-8, ISO-8601 timestamps):

    vehicle_id,start_time,end_time,distance_km,duration_h,fuel_g,energy_wh,
    soc_start_pct,soc_end_pct,ambient_temp_c,engine_starts,trailer,
    drive_mode,odometer_km,max_speed_kmh,group

Either fuel_g or energy_wh may be empty, but not both.

Trips are held as columns: a :class:`TripTable` has one numpy array per
field, and no per-row object is built.

``ingest_trips`` reads the CSV with ``csv.reader`` in blocks of
``_BLOCK_ROWS`` rows, so only one block's cells are held as strings at a
time. A row with more cells than the header, or too few to reach every
required column, is rejected before any cell is read. The rest of the
block is transposed once. Each column type has one parser, a function of
one cell (``float``, ``int``, ``datetime.fromisoformat`` and two small
ones for blank-or-float and boolean cells). It is mapped over the whole
column, and only a column where it raises is parsed again cell by cell,
to find the rows that fail and the error text. The row checks run as
masks in a fixed order, and a rejected row keeps the reason of the first
check it fails.

``aggregate_to_vehicle`` numbers the vehicles in sorted id order and sums
each covariate with ``np.bincount``. That adds each vehicle's values one
at a time in trip order, as a Python ``sum`` over its trips does on
Python <= 3.11 (3.12 compensates float sums), so the covariates equal a
row-by-row loop's bit for bit there. Maxima and minima are taken with
``reduceat`` over the trips stably sorted by vehicle.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import compress, islice
from operator import attrgetter, itemgetter
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ContractError, ScalingError, SchemaError

__all__ = [
    "TripTable",
    "VehicleAggregate",
    "DesignMatrix",
    "COVARIATE_NAMES",
    "TRIPS_CSV_COLUMNS",
    "ingest_trips",
    "filter_trips",
    "aggregate_to_vehicle",
    "min_max_scale",
    "build_design",
]

TRIPS_CSV_COLUMNS = [
    "vehicle_id", "start_time", "end_time", "distance_km", "duration_h",
    "fuel_g", "energy_wh", "soc_start_pct", "soc_end_pct", "ambient_temp_c",
    "engine_starts", "trailer", "drive_mode", "odometer_km", "max_speed_kmh",
    "group",
]

COVARIATE_NAMES = [
    "share_high_soc_start",
    "share_low_soc_end",
    "trips_weekday",
    "trips_weekend",
    "avg_trip_distance",
    "max_trip_distance",
    "avg_trip_speed",
    "max_trip_speed",
    "share_hybrid_distance",
    "share_trailer_trips",
    "avg_engine_starts",
    "avg_ambient_temp",
    "min_ambient_temp",
    "max_ambient_temp",
]

HIGH_SOC_START = 80.0  # soc_start above this counts as a high-charge start
LOW_SOC_END = 21.0     # soc_end below this counts as a low-charge end
MIN_ODOMETER_KM = 100.0
MAX_AVG_SPEED_KMH = 200.0

DEFAULT_TIMEZONE = "Europe/Stockholm"

_BLOCK_ROWS = 8192  # rows converted at once; bounds the cells held as strings
_BOOLS = {**dict.fromkeys(("1", "true", "yes"), True),
          **dict.fromkeys(("0", "false", "no", ""), False)}
_UNIX_ORDINAL = datetime(1970, 1, 1).toordinal()
_UTC = timezone.utc


@dataclass(frozen=True, eq=False)
class TripTable:
    """Trips as columns: row i of every array is trip i.

    The fields are the trips CSV's columns plus the timestamps' UTC
    offsets. start_time/end_time hold the wall-clock time as written
    (datetime64[us]); start_utcoffset/end_utcoffset hold its offset
    (timedelta64[us], NaT for a naive stamp). fuel_g/energy_wh are NaN
    where the cell was empty. A slice, mask or index array gives a
    TripTable; an int raises TypeError, so a table is not iterated row
    by row.
    """

    vehicle_id: np.ndarray
    start_time: np.ndarray
    start_utcoffset: np.ndarray
    end_time: np.ndarray
    end_utcoffset: np.ndarray
    distance_km: np.ndarray
    duration_h: np.ndarray
    fuel_g: np.ndarray
    energy_wh: np.ndarray
    soc_start_pct: np.ndarray
    soc_end_pct: np.ndarray
    ambient_temp_c: np.ndarray
    engine_starts: np.ndarray
    trailer: np.ndarray
    drive_mode: np.ndarray
    odometer_km: np.ndarray
    max_speed_kmh: np.ndarray
    group: np.ndarray

    def __len__(self) -> int:
        return len(self.vehicle_id)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError("a TripTable has no row view: index it with a slice, "
                            "mask or index array")
        return TripTable(**{f.name: getattr(self, f.name)[key] for f in fields(self)})


@dataclass(frozen=True)
class VehicleAggregate:
    vehicle_id: str
    covariates: dict
    target: float
    group: str


def reject_non_finite(field: str, values, columns=None) -> None:
    """SchemaError at the first NaN or +-inf of a numeric array (None passes),
    naming the field (a 2-D array's column by its name in ``columns``) and
    the row index."""
    if values is None:
        return
    values = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, *col = map(int, bad[0])
        if col:
            j = col[0]
            field = (f"{field} covariate {columns[j]!r}" if j < len(columns or ())
                     else f"{field} column {j}")
        raise SchemaError(f"{field}: non-finite value {values[tuple(bad[0])]} at row {row}")


def reject_non_binary(field: str, values) -> None:
    """ContractError at the first value outside {0, 1}, naming the field, the
    value and the row; a float NaN or +-inf gets the non-finite error first."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        reject_non_finite(field, values)
    bad = np.flatnonzero(~np.isin(values, (0, 1)))
    if bad.size:
        raise ContractError(f"{field}: non-binary value {values[bad[0]].item()!r} at row {bad[0]}")


@dataclass
class DesignMatrix:
    """One study's rows: regressors ``X`` named by ``covariate_names``, a
    binary treatment ``t`` and an outcome ``y``. A propensity fit passes its
    scaled covariates as ``X``; the DID and RDD fits build their own
    regressors and name each column by its coefficient."""

    unit_ids: np.ndarray
    X: np.ndarray
    t: np.ndarray
    y: np.ndarray
    covariate_names: list[str]

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids)
        self.X = np.asarray(self.X, dtype=float)
        self.t = np.asarray(self.t)
        self.y = np.asarray(self.y, dtype=float)
        rows = {name: len(getattr(self, name)) for name in ("unit_ids", "X", "t", "y")}
        if len(set(rows.values())) > 1:
            raise ContractError(f"columns differ in length: {rows}")
        for i, name in enumerate(self.covariate_names):
            if name in self.covariate_names[:i]:
                raise ContractError(f"covariate_names: {name!r} appears more than once")
        reject_non_finite("X", self.X, self.covariate_names)
        reject_non_finite("y", self.y)
        reject_non_binary("t", self.t)
        self.t = self.t.astype(int)


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _optional_float(cell: str) -> float:
    return float(cell) if cell.strip() else np.nan


def _stamps(stamps) -> tuple[np.ndarray, np.ndarray]:
    """Wall-clock time (datetime64[us]) and UTC offset (timedelta64[us],
    NaT when naive) of each datetime."""
    n = len(stamps)
    seconds = (np.fromiter(map(datetime.toordinal, stamps), np.int64, n) - _UNIX_ORDINAL) * 86400
    for unit, scale in (("hour", 3600), ("minute", 60), ("second", 1)):
        seconds += np.fromiter(map(attrgetter(unit), stamps), np.int64, n) * scale
    micros = np.fromiter(map(attrgetter("microsecond"), stamps), np.int64, n)
    wall = (seconds * 1_000_000 + micros).view("datetime64[us]")
    offsets = list(map(datetime.utcoffset, stamps))
    if offsets.count(None) == n:
        return wall, np.full(n, np.timedelta64("NaT", "us"))
    return wall, np.array(offsets, dtype="timedelta64[us]")


def _utc(wall: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The instants of wall-clock times; a naive one is taken as it stands."""
    return wall - np.where(np.isnat(offset), np.timedelta64(0, "us"), offset)


class _Block:
    """Rows of the header's length as columns, and the reason of the first
    check each row fails."""

    def __init__(self, rows: list[list[str]], header: list[str]):
        self.n = len(rows)
        # a repeated header name takes its last column, as in csv.DictReader
        self.cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
        self.reasons: dict[int, str] = {}

    def fail(self, mask, reason: str) -> None:
        """Reject the rows in `mask` that no earlier check rejected."""
        for i in np.flatnonzero(mask).tolist():
            self.reasons.setdefault(i, reason)

    def convert(self, name, cell=float, fill=np.nan, dtype=float):
        """Column `name` parsed by `cell`, one call per cell mapped over the
        column. Only if that raises is `cell` run again cell by cell: a cell
        it raises on, or whose value `dtype` cannot hold, rejects its row
        with the error's text and takes `fill`."""
        cells = self.cells[name]
        try:
            return np.fromiter(map(cell, cells), dtype, self.n)
        except (ValueError, OverflowError):
            pass
        out = np.full(self.n, fill, dtype)
        for i, c in enumerate(cells):
            try:
                out[i] = cell(c)
            except ValueError as exc:
                self.reasons.setdefault(i, str(exc))
            except OverflowError:
                self.reasons.setdefault(i, f"integer beyond the int64 range: {c!r}")
        return out

    def optional_floats(self, name) -> tuple[np.ndarray, np.ndarray]:
        """Column `name` as floats, NaN where the cell is blank, and the mask
        of the cells that are not blank."""
        given = np.fromiter(map(bool, map(str.strip, self.cells[name])), bool, self.n)
        return self.convert(name, _optional_float), given

    def stamps(self, name) -> tuple[np.ndarray, np.ndarray]:
        return _stamps(self.convert(name, datetime.fromisoformat,
                                    datetime(1970, 1, 1), object).tolist())

    def texts(self, name, strip=True) -> np.ndarray:
        # interned: a column repeats few distinct values, and the table
        # then holds each of them once
        cells = map(str.strip, self.cells[name]) if strip else self.cells[name]
        return np.fromiter(map(sys.intern, cells), object, self.n)


def _parse_rows(rows: list[list[str]], header: list[str]) -> tuple[dict, dict[int, str]]:
    """Run the row checks over rows of the header's length, in order.

    Returns the accepted rows' columns, keyed by TripTable field, and the
    reason each rejected row (by index) fails.
    """
    b = _Block(rows, header)
    start, start_offset = b.stamps("start_time")
    end, end_offset = b.stamps("end_time")
    b.fail(np.isnat(start_offset) != np.isnat(end_offset),
           "can't compare offset-naive and offset-aware datetimes")
    span_us = (_utc(end, end_offset) - _utc(start, start_offset)).astype(np.int64)
    b.fail(span_us <= 0, "end_time must be after start_time")
    duration = b.convert("duration_h")
    b.fail(duration <= 0, "duration_h must be > 0")
    b.fail(np.abs(span_us / 1e6 - duration * 3600.0) > 1.0,
           "duration_h inconsistent with timestamps (> 1 s off)")
    fuel, has_fuel = b.optional_floats("fuel_g")
    energy, has_energy = b.optional_floats("energy_wh")
    b.fail(~has_fuel & ~has_energy, "one of fuel_g / energy_wh is required")
    soc_start = b.convert("soc_start_pct")
    soc_end = b.convert("soc_end_pct")
    b.fail(~((0 <= soc_start) & (soc_start <= 100) & (0 <= soc_end) & (soc_end <= 100)),
           "state of charge must be in [0, 100]")
    distance = b.convert("distance_km")
    odometer = b.convert("odometer_km")
    max_speed = b.convert("max_speed_kmh")
    engine_starts = b.convert("engine_starts", int, 0, np.int64)
    for name, value in (("distance_km", distance), ("odometer_km", odometer),
                        ("max_speed_kmh", max_speed), ("engine_starts", engine_starts)):
        b.fail(value < 0, f"negative value in a non-negative field: {name}")
    for name, value in (("fuel_g", fuel), ("energy_wh", energy)):
        b.fail(value < 0, f"negative fuel/energy: {name}")
    ambient_temp = b.convert("ambient_temp_c")
    trailer = b.convert("trailer", _parse_bool, False, bool)
    # after every other check, so a row those reject keeps its reason
    for name, value, given in (
        ("distance_km", distance, True),
        ("duration_h", duration, True),
        ("odometer_km", odometer, True),
        ("max_speed_kmh", max_speed, True),
        ("ambient_temp_c", ambient_temp, True),
        ("fuel_g", fuel, has_fuel),
        ("energy_wh", energy, has_energy),
    ):
        b.fail(given & ~np.isfinite(value), f"{name} is not finite")
    columns = {
        "vehicle_id": b.texts("vehicle_id", strip=False),
        "start_time": start,
        "start_utcoffset": start_offset,
        "end_time": end,
        "end_utcoffset": end_offset,
        "distance_km": distance,
        "duration_h": duration,
        "fuel_g": fuel,
        "energy_wh": energy,
        "soc_start_pct": soc_start,
        "soc_end_pct": soc_end,
        "ambient_temp_c": ambient_temp,
        "engine_starts": engine_starts,
        "trailer": trailer,
        "drive_mode": b.texts("drive_mode"),
        "odometer_km": odometer,
        "max_speed_kmh": max_speed,
        "group": b.texts("group"),
    }
    keep = np.ones(b.n, bool)
    keep[list(b.reasons)] = False
    return {name: values[keep] for name, values in columns.items()}, b.reasons


def _blocks(reader):
    """The non-blank rows in lists of _BLOCK_ROWS; the last list is shorter,
    possibly empty."""
    rows = filter(None, reader)  # csv.reader gives [] for a blank line
    while True:
        block = list(islice(rows, _BLOCK_ROWS))
        yield block
        if len(block) < _BLOCK_ROWS:
            return


def _shape_reject(line: int, row: list[str], header: list[str]) -> dict:
    """The reject entry of a row with more cells than the header, or too few
    to reach every required column."""
    width = len(header)
    if len(row) > width:
        reason = f"extra cells beyond the header: {row[width:]!r}"
    else:
        reason = f"missing value: {header[len(row)]}"
    return {"line": line, "reason": reason,
            "row": dict(zip(header, row + [None] * (width - len(row))))}


def ingest_trips(source) -> tuple[TripTable, list[dict]]:
    """Read a trips CSV into a :class:`TripTable`.

    Malformed rows are not dropped silently: they are returned in a
    rejects report of {line, reason, row} entries, in line order. ``line``
    counts the header as 1 and skips blank lines; ``row`` holds the cells
    keyed by header, None for a cell a short row lacks. A row with more
    cells than the header is rejected. A missing required column raises
    :class:`SchemaError`.
    """
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, newline="", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in TRIPS_CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required columns: {missing}")
        width = len(header)
        # a row may lack the cells of unused trailing columns; as in
        # csv.DictReader, a repeated header name takes its last column
        index = {name: i for i, name in enumerate(header)}
        need = 1 + max(index[c] for c in TRIPS_CSV_COLUMNS)
        parts, rejects, line = [], [], 2
        for block in _blocks(reader):
            lines = range(line, line + len(block))
            line += len(block)
            if list(map(len, block)).count(width) != len(block):
                fits = [need <= len(row) <= width for row in block]
                rejects += [_shape_reject(ln, row, header)
                            for ln, row, ok in zip(lines, block, fits) if not ok]
                lines = list(compress(lines, fits))
                block = [row + [None] * (width - len(row)) for row in compress(block, fits)]
            columns, reasons = _parse_rows(block, header)
            parts.append(columns)
            rejects += [{"line": lines[i], "reason": reason, "row": dict(zip(header, block[i]))}
                        for i, reason in reasons.items()]
        rejects.sort(key=itemgetter("line"))
        table = TripTable(**{f.name: np.concatenate([p[f.name] for p in parts])
                             for f in fields(TripTable)})
        return table, rejects
    finally:
        if close:
            fh.close()


def filter_trips(trips: TripTable) -> tuple[TripTable, list[tuple[str, str]]]:
    """Apply the study filters: near-new vehicles and implausible speeds.

    Boundary values (odometer exactly 100 km, average speed exactly
    200 km/h) are kept: the rules are strict inequalities. Discarded trips
    come back as (vehicle_id, reason) in trip order.
    """
    new_vehicle = trips.odometer_km < MIN_ODOMETER_KM
    speed = ~new_vehicle & (trips.distance_km / trips.duration_h > MAX_AVG_SPEED_KMH)
    dropped = new_vehicle | speed
    discarded = [(trips.vehicle_id[i], "new_vehicle" if new_vehicle[i] else "speed")
                 for i in np.flatnonzero(dropped).tolist()]
    return trips[~dropped], discarded


def aggregate_to_vehicle(
    trips: TripTable, target_spec: str = "fuel_per_km"
) -> tuple[list[VehicleAggregate], list[dict]]:
    """Collapse kept trips to one row per vehicle with the 14 covariates.

    ``target_spec`` selects the target: total fuel (or energy) over total
    distance. Vehicles with zero total distance cannot have a target and
    are excluded with a report entry. Output is sorted by vehicle_id.
    Weekdays are counted in ``DEFAULT_TIMEZONE`` for stamps with a UTC
    offset and as written for naive ones.
    """
    if target_spec not in ("fuel_per_km", "energy_per_km"):
        raise ValueError(f"unknown target_spec: {target_spec!r}")
    tz = ZoneInfo(DEFAULT_TIMEZONE)
    # np.unique(vehicle_id, return_inverse=True), by a dict: sorting every
    # id of an object array compares them in Python, ~7x slower
    ids = trips.vehicle_id.tolist()
    vehicles = sorted(set(ids))
    position = {vid: j for j, vid in enumerate(vehicles)}
    inv = np.fromiter(map(position.__getitem__, ids), np.intp, len(ids))
    k = len(vehicles)
    n = np.bincount(inv, minlength=k)
    order = np.argsort(inv, kind="stable")  # each vehicle's trips together, in trip order
    first = np.cumsum(n) - n  # where each vehicle's trips start in `order`

    def total(values):
        return np.bincount(inv, weights=values, minlength=k)

    def count(mask):
        return np.bincount(inv[mask], minlength=k)

    def extreme(ufunc, values):
        return ufunc.reduceat(values[order], first)

    group = trips.group[order[first]]
    mixed_groups = count(trips.group != group[inv]) > 0

    days = trips.start_time.astype("datetime64[D]").astype(np.int64)
    weekday = (days + 3) % 7  # day 0, 1970-01-01, was a Thursday
    aware = np.flatnonzero(~np.isnat(trips.start_utcoffset))
    if aware.size:  # a naive stamp is taken as local time, so its weekday stands
        utc = (trips.start_time[aware] - trips.start_utcoffset[aware]).tolist()
        weekday[aware] = [t.replace(tzinfo=_UTC).astimezone(tz).weekday() for t in utc]
    weekdays = count(weekday < 5)

    distance = total(trips.distance_km)
    spent = trips.fuel_g if target_spec == "fuel_per_km" else trips.energy_wh
    with np.errstate(divide="ignore", invalid="ignore"):  # zero distance: excluded below
        covariates = np.column_stack([
            count(trips.soc_start_pct > HIGH_SOC_START) / n,
            count(trips.soc_end_pct < LOW_SOC_END) / n,
            weekdays.astype(float),
            (n - weekdays).astype(float),
            distance / n,
            extreme(np.maximum, trips.distance_km),
            distance / total(trips.duration_h),
            extreme(np.maximum, trips.max_speed_kmh),
            total(np.where(trips.drive_mode == "hybrid", trips.distance_km, 0.0)) / distance,
            count(trips.trailer) / n,
            total(trips.engine_starts) / n,
            total(trips.ambient_temp_c) / n,
            extreme(np.minimum, trips.ambient_temp_c),
            extreme(np.maximum, trips.ambient_temp_c),
        ]).tolist()
        target = (total(np.where(np.isnan(spent), 0.0, spent)) / distance).tolist()

    aggregates, excluded = [], []
    for j, vid in enumerate(vehicles):
        if distance[j] == 0:
            excluded.append({"vehicle_id": vid, "reason": "zero_total_distance"})
            continue
        if mixed_groups[j]:
            groups = sorted(set(trips.group[inv == j]))
            raise SchemaError(f"vehicle {vid} has inconsistent group labels: {groups}")
        aggregates.append(VehicleAggregate(
            vehicle_id=vid,
            covariates=dict(zip(COVARIATE_NAMES, covariates[j])),
            target=target[j],
            group=group[j],
        ))
    return aggregates, excluded


def min_max_scale(matrix, names=None) -> np.ndarray:
    """Scale each column to [0, 1]; constant columns are an error."""
    X = np.atleast_2d(np.asarray(matrix, dtype=float))
    mins = X.min(axis=0)
    maxs = X.max(axis=0)
    constant = np.where(maxs <= mins)[0]
    if constant.size:
        labels = [names[i] if names else str(i) for i in constant]
        raise ScalingError(f"constant column(s) cannot be scaled: {labels}")
    return (X - mins) / (maxs - mins)


def build_design(aggregates, covariate_names=None) -> DesignMatrix:
    """Assemble a scaled design matrix from vehicle aggregates.

    Row order follows the input; treatment comes from the group label
    ("treatment" vs "control", anything else is a contract error).
    """
    if covariate_names is None:
        covariate_names = COVARIATE_NAMES
    missing = [
        c for agg in aggregates for c in covariate_names if c not in agg.covariates
    ]
    if missing:
        raise ContractError(f"missing covariates: {sorted(set(missing))}")
    bad = {a.group for a in aggregates} - {"control", "treatment"}
    if bad:
        raise ContractError(f"unknown group labels: {sorted(bad)}")
    X = np.array(
        [[agg.covariates[c] for c in covariate_names] for agg in aggregates],
        dtype=float,
    )
    if X.size:
        X = min_max_scale(X, covariate_names)
    return DesignMatrix(
        unit_ids=np.array([a.vehicle_id for a in aggregates]),
        X=X,
        t=np.array([1 if a.group == "treatment" else 0 for a in aggregates]),
        y=np.array([a.target for a in aggregates], dtype=float),
        covariate_names=list(covariate_names),
    )
