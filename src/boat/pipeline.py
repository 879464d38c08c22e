"""Trip telemetry ingestion, filtering, vehicle-level aggregation, and
design-matrix assembly.

The trips CSV schema (comma-separated, UTF-8, ISO-8601 timestamps):

    vehicle_id,start_time,end_time,distance_km,duration_h,fuel_g,energy_wh,
    soc_start_pct,soc_end_pct,ambient_temp_c,engine_starts,trailer,
    drive_mode,odometer_km,max_speed_kmh,group

Either fuel_g or energy_wh may be empty, but not both.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ContractError, ScalingError, SchemaError

__all__ = [
    "TripRecord",
    "VehicleAggregate",
    "DesignMatrix",
    "COVARIATE_NAMES",
    "TRIPS_CSV_COLUMNS",
    "ingest_trips",
    "filter_trips",
    "aggregate_to_vehicle",
    "min_max_scale",
    "min_max_unscale",
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


@dataclass(frozen=True)
class TripRecord:
    vehicle_id: str
    start_time: datetime
    end_time: datetime
    distance_km: float
    duration_h: float
    fuel_g: float | None
    energy_wh: float | None
    soc_start_pct: float
    soc_end_pct: float
    ambient_temp_c: float
    engine_starts: int
    trailer: bool
    drive_mode: str
    odometer_km: float
    max_speed_kmh: float
    group: str


@dataclass(frozen=True)
class VehicleAggregate:
    vehicle_id: str
    covariates: dict
    target: float
    group: str


@dataclass
class DesignMatrix:
    """Scaled covariates plus the role columns of one study."""

    unit_ids: np.ndarray
    X: np.ndarray
    t: np.ndarray
    y: np.ndarray
    covariate_names: list[str]
    scaling_meta: list[tuple[float, float]] | None = None
    tau: np.ndarray | None = None
    assignment: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids)
        self.X = np.asarray(self.X, dtype=float)
        self.t = np.asarray(self.t)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isin(self.t, (0, 1))):
            raise ContractError("treatment column must be binary")
        self.t = self.t.astype(int)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no", ""):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_trip(row: dict) -> TripRecord:
    start = datetime.fromisoformat(row["start_time"])
    end = datetime.fromisoformat(row["end_time"])
    if end <= start:
        raise ValueError("end_time must be after start_time")
    duration_h = float(row["duration_h"])
    if duration_h <= 0:
        raise ValueError("duration_h must be > 0")
    if abs((end - start).total_seconds() - duration_h * 3600.0) > 1.0:
        raise ValueError("duration_h inconsistent with timestamps (> 1 s off)")
    fuel = float(row["fuel_g"]) if row["fuel_g"].strip() else None
    energy = float(row["energy_wh"]) if row["energy_wh"].strip() else None
    if fuel is None and energy is None:
        raise ValueError("one of fuel_g / energy_wh is required")
    soc_start = float(row["soc_start_pct"])
    soc_end = float(row["soc_end_pct"])
    if not (0 <= soc_start <= 100 and 0 <= soc_end <= 100):
        raise ValueError("state of charge must be in [0, 100]")
    distance = float(row["distance_km"])
    odometer = float(row["odometer_km"])
    max_speed = float(row["max_speed_kmh"])
    engine_starts = int(row["engine_starts"])
    for name, value in (
        ("distance_km", distance),
        ("odometer_km", odometer),
        ("max_speed_kmh", max_speed),
        ("engine_starts", engine_starts),
    ):
        if value < 0:
            raise ValueError(f"negative value in a non-negative field: {name}")
    for name, value in (("fuel_g", fuel), ("energy_wh", energy)):
        if value is not None and value < 0:
            raise ValueError(f"negative fuel/energy: {name}")
    ambient_temp = float(row["ambient_temp_c"])
    trailer = _parse_bool(row["trailer"])
    # after every other check, so a row those reject keeps its reason
    for name, value in (
        ("distance_km", distance),
        ("duration_h", duration_h),
        ("odometer_km", odometer),
        ("max_speed_kmh", max_speed),
        ("ambient_temp_c", ambient_temp),
        ("fuel_g", fuel),
        ("energy_wh", energy),
    ):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is not finite")
    return TripRecord(
        vehicle_id=row["vehicle_id"],
        start_time=start,
        end_time=end,
        distance_km=distance,
        duration_h=duration_h,
        fuel_g=fuel,
        energy_wh=energy,
        soc_start_pct=soc_start,
        soc_end_pct=soc_end,
        ambient_temp_c=ambient_temp,
        engine_starts=engine_starts,
        trailer=trailer,
        drive_mode=row["drive_mode"].strip(),
        odometer_km=odometer,
        max_speed_kmh=max_speed,
        group=row["group"].strip(),
    )


def ingest_trips(source) -> tuple[list[TripRecord], list[dict]]:
    """Read a trips CSV into typed records.

    Malformed rows are not dropped silently: they are returned in a
    rejects report of {line, reason, row} entries. A missing required
    column raises :class:`SchemaError`.
    """
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, newline="", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in TRIPS_CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required columns: {missing}")
        trips, rejects = [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                trips.append(_parse_trip(row))
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append({"line": lineno, "reason": str(exc), "row": dict(row)})
            except AttributeError:
                # a short row: csv.DictReader fills the cells it lacks with None
                missing = next((k for k, v in row.items() if v is None), None)
                if missing is None:
                    raise
                rejects.append({"line": lineno, "reason": f"missing value: {missing}",
                                "row": dict(row)})
        return trips, rejects
    finally:
        if close:
            fh.close()


def filter_trips(trips) -> tuple[list[TripRecord], list[tuple[TripRecord, str]]]:
    """Apply the study filters: near-new vehicles and implausible speeds.

    Boundary values (odometer exactly 100 km, average speed exactly
    200 km/h) are kept: the rules are strict inequalities.
    """
    kept, discarded = [], []
    for trip in trips:
        if trip.odometer_km < MIN_ODOMETER_KM:
            discarded.append((trip, "new_vehicle"))
        elif trip.distance_km / trip.duration_h > MAX_AVG_SPEED_KMH:
            discarded.append((trip, "speed"))
        else:
            kept.append(trip)
    return kept, discarded


def aggregate_to_vehicle(
    trips,
    target_spec: str = "fuel_per_km",
    timezone: str = DEFAULT_TIMEZONE,
) -> tuple[list[VehicleAggregate], list[dict]]:
    """Collapse kept trips to one row per vehicle with the 14 covariates.

    ``target_spec`` selects the target: total fuel (or energy) over total
    distance. Vehicles with zero total distance cannot have a target and
    are excluded with a report entry. Output is sorted by vehicle_id.
    """
    if target_spec not in ("fuel_per_km", "energy_per_km"):
        raise ValueError(f"unknown target_spec: {target_spec!r}")
    tz = ZoneInfo(timezone)
    by_vehicle: dict[str, list[TripRecord]] = {}
    for trip in trips:
        by_vehicle.setdefault(trip.vehicle_id, []).append(trip)

    aggregates, excluded = [], []
    for vid in sorted(by_vehicle):
        vtrips = by_vehicle[vid]
        n = len(vtrips)
        total_distance = sum(t.distance_km for t in vtrips)
        if total_distance == 0:
            excluded.append({"vehicle_id": vid, "reason": "zero_total_distance"})
            continue
        groups = {t.group for t in vtrips}
        if len(groups) != 1:
            raise SchemaError(f"vehicle {vid} has inconsistent group labels: {groups}")
        total_duration = sum(t.duration_h for t in vtrips)
        weekday = sum(
            1 for t in vtrips
            if _localize(t.start_time, tz).weekday() < 5
        )
        covariates = {
            "share_high_soc_start": sum(t.soc_start_pct > HIGH_SOC_START for t in vtrips) / n,
            "share_low_soc_end": sum(t.soc_end_pct < LOW_SOC_END for t in vtrips) / n,
            "trips_weekday": float(weekday),
            "trips_weekend": float(n - weekday),
            "avg_trip_distance": total_distance / n,
            "max_trip_distance": max(t.distance_km for t in vtrips),
            "avg_trip_speed": total_distance / total_duration,
            "max_trip_speed": max(t.max_speed_kmh for t in vtrips),
            "share_hybrid_distance": (
                sum(t.distance_km for t in vtrips if t.drive_mode == "hybrid")
                / total_distance
            ),
            "share_trailer_trips": sum(t.trailer for t in vtrips) / n,
            "avg_engine_starts": sum(t.engine_starts for t in vtrips) / n,
            "avg_ambient_temp": sum(t.ambient_temp_c for t in vtrips) / n,
            "min_ambient_temp": min(t.ambient_temp_c for t in vtrips),
            "max_ambient_temp": max(t.ambient_temp_c for t in vtrips),
        }
        if target_spec == "fuel_per_km":
            total = sum(t.fuel_g or 0.0 for t in vtrips)
        else:
            total = sum(t.energy_wh or 0.0 for t in vtrips)
        aggregates.append(
            VehicleAggregate(
                vehicle_id=vid,
                covariates=covariates,
                target=total / total_distance,
                group=next(iter(groups)),
            )
        )
    return aggregates, excluded


def _localize(ts: datetime, tz) -> datetime:
    if ts.tzinfo is None:
        return ts.replace(tzinfo=tz)
    return ts.astimezone(tz)


def min_max_scale(matrix, names=None) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Scale each column to [0, 1]; constant columns are an error."""
    X = np.atleast_2d(np.asarray(matrix, dtype=float))
    mins = X.min(axis=0)
    maxs = X.max(axis=0)
    constant = np.where(maxs <= mins)[0]
    if constant.size:
        labels = [names[i] if names else str(i) for i in constant]
        raise ScalingError(f"constant column(s) cannot be scaled: {labels}")
    scaled = (X - mins) / (maxs - mins)
    return scaled, list(zip(mins.tolist(), maxs.tolist()))


def min_max_unscale(scaled, meta) -> np.ndarray:
    X = np.atleast_2d(np.asarray(scaled, dtype=float))
    mins = np.array([m for m, _ in meta])
    maxs = np.array([m for _, m in meta])
    return X * (maxs - mins) + mins


def build_design(aggregates, covariate_names=None, scale=True) -> DesignMatrix:
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
    meta = None
    if scale and X.size:
        X, meta = min_max_scale(X, covariate_names)
    return DesignMatrix(
        unit_ids=np.array([a.vehicle_id for a in aggregates]),
        X=X,
        t=np.array([1 if a.group == "treatment" else 0 for a in aggregates]),
        y=np.array([a.target for a in aggregates], dtype=float),
        covariate_names=list(covariate_names),
        scaling_meta=meta,
    )
