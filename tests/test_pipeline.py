import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boat import pipeline
from boat.errors import ContractError, ScalingError, SchemaError
from boat.pipeline import (
    DesignMatrix,
    COVARIATE_NAMES,
    TRIPS_CSV_COLUMNS,
    VehicleAggregate,
    aggregate_to_vehicle,
    build_design,
    filter_trips,
    ingest_trips,
    min_max_scale,
)

HEADER = ",".join(TRIPS_CSV_COLUMNS)

# one vehicle, five valid trips, all quantities chosen for hand arithmetic:
# three weekday trips (Mon/Tue/Wed) and two weekend trips (Sat/Sun)
FIVE_TRIPS = [
    "v1,2024-03-04T08:00:00,2024-03-04T09:00:00,50,1.0,4000,,90,15,10,2,0,hybrid,1000,100,treatment",
    "v1,2024-03-05T08:00:00,2024-03-05T08:30:00,30,0.5,2400,,70,50,20,1,1,electric,1050,120,treatment",
    "v1,2024-03-06T10:00:00,2024-03-06T12:00:00,80,2.0,5600,,85,30,-5,3,0,hybrid,1080,140,treatment",
    "v1,2024-03-09T09:00:00,2024-03-09T10:00:00,40,1.0,3000,,60,20,0,2,0,electric,1160,90,treatment",
    "v1,2024-03-10T14:00:00,2024-03-10T15:30:00,60,1.5,4500,,95,40,15,1,1,hybrid,1200,110,treatment",
]

EXPECTED_V1 = {
    "share_high_soc_start": 3 / 5,
    "share_low_soc_end": 2 / 5,
    "trips_weekday": 3.0,
    "trips_weekend": 2.0,
    "avg_trip_distance": 52.0,
    "max_trip_distance": 80.0,
    "avg_trip_speed": 260.0 / 6.0,
    "max_trip_speed": 140.0,
    "share_hybrid_distance": 190.0 / 260.0,
    "share_trailer_trips": 2 / 5,
    "avg_engine_starts": 1.8,
    "avg_ambient_temp": 8.0,
    "min_ambient_temp": -5.0,
    "max_ambient_temp": 20.0,
}


def csv_source(rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def trips_from(rows):
    trips, rejects = ingest_trips(csv_source(rows))
    assert rejects == []
    return trips


@dataclass(frozen=True)
class TripRecord:
    """One trip as a row: what the reference reader builds, and what
    trip_rows makes of each row of a TripTable."""

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


def trip_rows(table):
    """Every row of a TripTable as a TripRecord: None for an empty fuel_g or
    energy_wh cell, and an aware datetime where the stamp had an offset."""
    records = []
    for i in range(len(table)):
        row = {f.name: getattr(table, f.name).item(i) for f in fields(TripRecord)}
        for name in ("fuel_g", "energy_wh"):
            if row[name] != row[name]:  # NaN: the cell was empty
                row[name] = None
        for name in ("start", "end"):
            offset = getattr(table, f"{name}_utcoffset").item(i)
            if offset is not None:
                row[f"{name}_time"] = row[f"{name}_time"].replace(tzinfo=timezone(offset))
        records.append(TripRecord(**row))
    return records


class TestIngest:
    def test_valid_rows_parse(self):
        trips = trips_from(FIVE_TRIPS)
        assert len(trips) == 5
        first, second = trip_rows(trips)[:2]
        assert first.vehicle_id == "v1"
        assert first.fuel_g == 4000.0
        assert first.energy_wh is None
        assert second.trailer is True

    def test_missing_column_is_schema_error(self):
        bad_header = ",".join(c for c in TRIPS_CSV_COLUMNS if c != "soc_end_pct")
        with pytest.raises(SchemaError):
            ingest_trips(io.StringIO(bad_header + "\n"))

    def test_malformed_rows_reported_not_dropped_silently(self):
        rows = [
            FIVE_TRIPS[0],
            # end before start
            "v2,2024-03-04T09:00:00,2024-03-04T08:00:00,10,1.0,100,,50,40,5,1,0,hybrid,500,80,control",
            # duration inconsistent with timestamps
            "v2,2024-03-04T08:00:00,2024-03-04T09:00:00,10,2.0,100,,50,40,5,1,0,hybrid,500,80,control",
            # soc out of range
            "v2,2024-03-04T08:00:00,2024-03-04T09:00:00,10,1.0,100,,150,40,5,1,0,hybrid,500,80,control",
            # neither fuel nor energy
            "v2,2024-03-04T08:00:00,2024-03-04T09:00:00,10,1.0,,,50,40,5,1,0,hybrid,500,80,control",
        ]
        trips, rejects = ingest_trips(csv_source(rows))
        assert len(trips) == 1
        assert len(rejects) == 4
        assert [r["line"] for r in rejects] == [3, 4, 5, 6]
        assert all("reason" in r and "row" in r for r in rejects)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column",
        ["distance_km", "duration_h", "odometer_km", "max_speed_kmh",
         "ambient_temp_c", "fuel_g", "energy_wh"],
    )
    def test_non_finite_value_rejected_naming_column(self, column, value):
        cells = FIVE_TRIPS[0].split(",")
        cells[TRIPS_CSV_COLUMNS.index(column)] = value
        trips, rejects = ingest_trips(csv_source([FIVE_TRIPS[1], ",".join(cells)]))
        assert len(trips) == 1
        assert [r["line"] for r in rejects] == [3]
        assert column in rejects[0]["reason"]

    def test_inf_distance_rejected_at_ingestion_not_as_speed(self):
        cells = FIVE_TRIPS[0].split(",")
        cells[TRIPS_CSV_COLUMNS.index("distance_km")] = "inf"
        trips, rejects = ingest_trips(csv_source([",".join(cells)]))
        assert len(trips) == 0
        assert rejects[0]["reason"] == "distance_km is not finite"

    def test_earlier_check_keeps_its_reason_over_non_finite(self):
        # soc out of range and a nan distance: the soc check comes first
        cells = FIVE_TRIPS[0].split(",")
        cells[TRIPS_CSV_COLUMNS.index("soc_start_pct")] = "150"
        cells[TRIPS_CSV_COLUMNS.index("distance_km")] = "nan"
        _, rejects = ingest_trips(csv_source([",".join(cells)]))
        assert rejects[0]["reason"] == "state of charge must be in [0, 100]"

    def test_short_row_rejected_naming_its_first_missing_column(self):
        # the last cell (group) left off; the valid row after it still parses
        short = FIVE_TRIPS[0].rsplit(",", 1)[0]
        trips, rejects = ingest_trips(csv_source([short, FIVE_TRIPS[1]]))
        assert trips.vehicle_id.tolist() == [FIVE_TRIPS[1].split(",")[0]]
        assert [(r["line"], r["reason"]) for r in rejects] == [(2, "missing value: group")]

    def test_long_row_rejected_naming_its_extra_cells(self):
        trips, rejects = ingest_trips(csv_source([FIVE_TRIPS[0] + ",7,8", FIVE_TRIPS[1]]))
        assert trips.distance_km.tolist() == [30.0]
        assert [(r["line"], r["reason"]) for r in rejects] == [
            (2, "extra cells beyond the header: ['7', '8']")]
        assert rejects[0]["row"] == dict(zip(TRIPS_CSV_COLUMNS, FIVE_TRIPS[0].split(",")))

    def test_row_may_lack_only_unused_trailing_cells(self):
        # the header's extra "notes" column is not required
        source = io.StringIO(f"{HEADER},notes\n{FIVE_TRIPS[0]}\n{FIVE_TRIPS[1]},late\n")
        trips, rejects = ingest_trips(source)
        assert len(trips) == 2 and rejects == []

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1], ids=["above", "below"])
    def test_engine_starts_beyond_int64_rejected(self, value):
        cells = FIVE_TRIPS[0].split(",")
        cells[TRIPS_CSV_COLUMNS.index("engine_starts")] = str(value)
        _, rejects = ingest_trips(csv_source([",".join(cells)]))
        assert rejects[0]["reason"] == f"integer beyond the int64 range: '{value}'"

    def test_duration_within_one_second_tolerated(self):
        row = "v1,2024-03-04T08:00:00,2024-03-04T09:00:00,50,1.0002,4000,,90,15,10,2,0,hybrid,1000,100,treatment"
        trips, rejects = ingest_trips(csv_source([row]))
        assert len(trips) == 1 and rejects == []


class TestTripTable:
    def test_int_index_raises_and_others_give_tables(self):
        trips = trips_from(FIVE_TRIPS)
        for key in (0, -1, 5, np.int64(2)):
            with pytest.raises(TypeError):
                trips[key]
        with pytest.raises(TypeError):  # iteration falls back to int indexing
            list(trips)
        rows = trip_rows(trips)
        assert trip_rows(trips[::-2]) == [rows[4], rows[2], rows[0]]
        assert trip_rows(trips[trips.distance_km > 50]) == [rows[2], rows[4]]
        assert trip_rows(trips[np.array([3, 0])]) == [rows[3], rows[0]]
        assert trips[np.array([3, 0])].distance_km.tolist() == [40.0, 50.0]

    def test_offset_stamps_round_trip(self):
        row = (FIVE_TRIPS[0].replace("T08:00:00", "T09:30:00+01:30")
               .replace("T09:00:00", "T09:00:00+00:00"))
        (trip,) = trip_rows(trips_from([row]))
        assert trip.start_time == datetime.fromisoformat("2024-03-04T09:30:00+01:30")
        assert trip.start_time.utcoffset() == timedelta(hours=1, minutes=30)
        assert trip.end_time.utcoffset() == timedelta(0)


class TestFilter:
    def make(self, odometer, distance, duration):
        row = (
            f"v1,2024-03-04T08:00:00,2024-03-04T09:00:00,{distance},{duration},"
            f"100,,50,40,5,1,0,hybrid,{odometer},80,control"
        )
        return trips_from([row])

    def test_new_vehicle_dropped(self):
        kept, discarded = filter_trips(self.make(99.9, 50, 1.0))
        assert len(kept) == 0
        assert discarded == [("v1", "new_vehicle")]

    def test_odometer_boundary_kept(self):
        kept, discarded = filter_trips(self.make(100.0, 50, 1.0))
        assert len(kept) == 1 and discarded == []

    def test_speed_dropped(self):
        kept, discarded = filter_trips(self.make(500, 201, 1.0))
        assert len(kept) == 0
        assert discarded == [("v1", "speed")]

    def test_speed_boundary_kept(self):
        kept, discarded = filter_trips(self.make(500, 200, 1.0))
        assert len(kept) == 1 and discarded == []


class TestAggregate:
    def test_hand_computed_covariates(self):
        aggs, excluded = aggregate_to_vehicle(trips_from(FIVE_TRIPS))
        assert excluded == []
        (agg,) = aggs
        assert agg.vehicle_id == "v1"
        assert agg.group == "treatment"
        assert set(agg.covariates) == set(COVARIATE_NAMES)
        for name, expected in EXPECTED_V1.items():
            assert agg.covariates[name] == pytest.approx(expected, abs=1e-12), name
        assert agg.target == pytest.approx(75.0, abs=1e-12)

    def test_trip_order_invariance(self):
        trips = trips_from(FIVE_TRIPS)
        a, _ = aggregate_to_vehicle(trips)
        b, _ = aggregate_to_vehicle(trips[::-1])
        assert a[0].covariates == pytest.approx(b[0].covariates)
        assert a[0].target == b[0].target

    def test_timezone_shifts_weekday_classification(self, monkeypatch):
        # Friday 23:30 UTC is already Saturday in Stockholm (UTC+1)
        row = (
            "v1,2024-03-08T23:30:00+00:00,2024-03-09T00:30:00+00:00,50,1.0,"
            "100,,50,40,5,1,0,hybrid,1000,80,control"
        )
        aggs_sthlm, _ = aggregate_to_vehicle(trips_from([row]))
        monkeypatch.setattr(pipeline, "DEFAULT_TIMEZONE", "UTC")
        aggs_utc, _ = aggregate_to_vehicle(trips_from([row]))
        assert aggs_sthlm[0].covariates["trips_weekend"] == 1.0
        assert aggs_utc[0].covariates["trips_weekday"] == 1.0

    def test_energy_target(self):
        row = (
            "v1,2024-03-04T08:00:00,2024-03-04T09:00:00,50,1.0,"
            ",12500,50,40,5,1,0,electric,1000,80,control"
        )
        aggs, _ = aggregate_to_vehicle(trips_from([row]), target_spec="energy_per_km")
        assert aggs[0].target == pytest.approx(250.0)

    def test_zero_distance_vehicle_excluded_with_report(self):
        row = (
            "v9,2024-03-04T08:00:00,2024-03-04T09:00:00,0,1.0,"
            "100,,50,40,5,1,0,hybrid,1000,0,control"
        )
        aggs, excluded = aggregate_to_vehicle(trips_from([row]))
        assert aggs == []
        assert excluded == [{"vehicle_id": "v9", "reason": "zero_total_distance"}]

    def test_inconsistent_group_label(self):
        rows = [
            FIVE_TRIPS[0],
            FIVE_TRIPS[1].replace("treatment", "control"),
        ]
        with pytest.raises(SchemaError):
            aggregate_to_vehicle(trips_from(rows))

    def test_inconsistent_group_message_ignores_string_hashing(self):
        script = "\n".join([
            "import io, sys",
            "from boat.errors import SchemaError",
            "from boat.pipeline import aggregate_to_vehicle, ingest_trips",
            "trips, _ = ingest_trips(io.StringIO(sys.stdin.read()))",
            "try:",
            "    aggregate_to_vehicle(trips)",
            "except SchemaError as exc:",
            "    print(exc)",
        ])
        text = csv_source([FIVE_TRIPS[0], FIVE_TRIPS[1].replace("treatment", "control")])
        src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
        messages = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            run = subprocess.run([sys.executable, "-c", script], input=text.getvalue(),
                                 env=env, capture_output=True, text=True, check=True)
            messages.add(run.stdout.strip())
        assert messages == {"vehicle v1 has inconsistent group labels: ['control', 'treatment']"}

    def test_sorted_by_vehicle_id(self):
        rows = [
            FIVE_TRIPS[0].replace("v1", "vB"),
            FIVE_TRIPS[1].replace("v1", "vA"),
        ]
        aggs, _ = aggregate_to_vehicle(trips_from(rows))
        assert [a.vehicle_id for a in aggs] == ["vA", "vB"]

    def test_bad_target_spec(self):
        with pytest.raises(ValueError):
            aggregate_to_vehicle([], target_spec="liters_per_mile")


class TestScaling:
    def test_unit_interval_bounds(self):
        rng = np.random.default_rng(0)
        X = rng.normal(10, 5, (30, 4))
        scaled = min_max_scale(X)
        assert scaled.shape == X.shape
        assert scaled.min() == 0.0 and scaled.max() == 1.0
        assert np.all(scaled >= 0) and np.all(scaled <= 1)

    def test_hand_values(self):
        scaled = min_max_scale(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(scaled[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_rejected(self):
        with pytest.raises(ScalingError):
            min_max_scale(np.array([[1.0, 2.0], [1.0, 3.0]]), names=["a", "b"])


class TestBuildDesign:
    def control_rows(self):
        return [
            r.replace("v1", "v2").replace("treatment", "control").replace(",90,", ",40,")
            for r in FIVE_TRIPS
        ]

    def test_shapes_and_roles(self):
        aggs, _ = aggregate_to_vehicle(trips_from(FIVE_TRIPS + self.control_rows()))
        # drop covariates that are constant across the two vehicles
        varying = [
            c for c in COVARIATE_NAMES
            if aggs[0].covariates[c] != aggs[1].covariates[c]
        ]
        dm = build_design(aggs, covariate_names=varying)
        assert dm.X.shape == (2, len(varying))
        np.testing.assert_array_equal(sorted(dm.t.tolist()), [0, 1])
        # two vehicles: each scaled column holds one 0 and one 1
        np.testing.assert_array_equal(np.sort(dm.X, axis=0), [[0.0] * len(varying),
                                                              [1.0] * len(varying)])
        assert list(dm.unit_ids) == ["v1", "v2"]

    def test_scaled_covariate_and_raw_target(self):
        # one vehicle's columns are all constant, so a second one spans the scale
        (agg,), _ = aggregate_to_vehicle(trips_from(FIVE_TRIPS))
        assert agg.covariates["avg_trip_distance"] == pytest.approx(52.0)
        other = VehicleAggregate("v2", {**agg.covariates, "avg_trip_distance": 26.0}, 60.0,
                                 "control")
        dm = build_design([agg, other], covariate_names=["avg_trip_distance"])
        assert dm.X[:, 0].tolist() == [1.0, 0.0]
        assert dm.y[0] == pytest.approx(75.0)

    def test_unknown_group_rejected(self):
        rows = [FIVE_TRIPS[0].replace("treatment", "pilot")]
        aggs, _ = aggregate_to_vehicle(trips_from(rows))
        with pytest.raises(ContractError):
            build_design(aggs)

    def test_binary_treatment_enforced(self):
        from boat.pipeline import DesignMatrix

        with pytest.raises(ContractError, match=r"^t: non-binary value 2 at row 1$"):
            DesignMatrix(
                unit_ids=np.arange(3), X=np.zeros((3, 1)), t=np.array([0, 2, 1]),
                y=np.zeros(3), covariate_names=["x"],
            )


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "inf", "-inf"])


class TestDesignMatrixBoundary:
    def columns(self):
        return dict(unit_ids=np.arange(4), X=np.zeros((4, 2)), t=np.array([0.0, 1.0, 0.0, 1.0]),
                    y=np.zeros(4), covariate_names=["a", "b"])

    @NON_FINITE
    @pytest.mark.parametrize("field, label", [("X", "X covariate 'b'"), ("y", "y"), ("t", "t")])
    def test_non_finite_rejected_naming_field_and_row(self, field, label, value):
        columns = self.columns()
        columns[field][(2, 1) if field == "X" else 2] = value
        columns[field][3] = value  # a later bad row is not the one named
        with pytest.raises(SchemaError) as err:
            DesignMatrix(**columns)
        assert str(err.value) == f"{label}: non-finite value {value} at row 2"

    def test_unnamed_column_named_by_index(self):
        columns = self.columns()
        columns["X"][1, 1], columns["covariate_names"] = np.nan, ["a"]
        with pytest.raises(SchemaError, match=r"^X column 1: non-finite value nan at row 1$"):
            DesignMatrix(**columns)

    def test_row_counts_must_agree(self):
        for field in ("unit_ids", "X", "t", "y"):
            columns = self.columns()
            columns[field] = columns[field][:3]
            lengths = {name: 3 if name == field else 4 for name in ("unit_ids", "X", "t", "y")}
            with pytest.raises(ContractError) as err:
                DesignMatrix(**columns)
            assert str(err.value) == f"columns differ in length: {lengths}"
        # no rows at all: build_design's X is then 1-D of size 0
        dm = build_design([])
        assert dm.X.shape == (0,) and len(dm.unit_ids) == len(dm.t) == len(dm.y) == 0

    def test_repeated_covariate_name_rejected(self):
        columns = self.columns()
        columns["X"], columns["covariate_names"] = np.zeros((4, 3)), ["a", "b", "a"]
        with pytest.raises(ContractError, match=r"^covariate_names: 'a' appears more than once$"):
            DesignMatrix(**columns)


# --------------------------------------------------------------------------
# Reference: the row-by-row reader and aggregator that the columnar ones
# replaced, kept as oracles. The reader differs from the old one only in its
# first two checks: a row with more cells than the header, and a row lacking
# a required cell, are rejected before any cell is read.


def _reference_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no", ""):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _reference_parse_trip(row):
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
    trailer = _reference_bool(row["trailer"])
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


def reference_ingest(fh):
    reader = csv.DictReader(fh)
    trips, rejects = [], []
    for lineno, row in enumerate(reader, start=2):
        extra = row.pop(None, None)
        missing = next((k for k, v in row.items() if v is None), None)
        if extra is not None:
            reason = f"extra cells beyond the header: {extra!r}"
        elif any(row[c] is None for c in TRIPS_CSV_COLUMNS):
            reason = f"missing value: {missing}"
        else:
            try:
                trips.append(_reference_parse_trip(row))
                continue
            except (ValueError, TypeError) as exc:
                reason = str(exc)
        rejects.append({"line": lineno, "reason": reason, "row": row})
    return trips, rejects


def _reference_localize(ts, tz):
    if ts.tzinfo is None:
        return ts.replace(tzinfo=tz)
    return ts.astimezone(tz)


def reference_aggregate(trips, target_spec="fuel_per_km", timezone="Europe/Stockholm"):
    tz = ZoneInfo(timezone)
    by_vehicle = {}
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
        groups = sorted({t.group for t in vtrips})
        if len(groups) != 1:
            raise SchemaError(f"vehicle {vid} has inconsistent group labels: {groups}")
        total_duration = sum(t.duration_h for t in vtrips)
        weekday = sum(1 for t in vtrips if _reference_localize(t.start_time, tz).weekday() < 5)
        covariates = {
            "share_high_soc_start": sum(t.soc_start_pct > 80.0 for t in vtrips) / n,
            "share_low_soc_end": sum(t.soc_end_pct < 21.0 for t in vtrips) / n,
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
        aggregates.append(VehicleAggregate(vehicle_id=vid, covariates=covariates,
                                           target=total / total_distance,
                                           group=next(iter(groups))))
    return aggregates, excluded


# --------------------------------------------------------------------------
# Generated trip files: mostly valid rows, with cells swapped for bad values,
# timestamps swapped or off, offset stamps among naive ones, and short, long
# and blank rows.

BASE_TIME = datetime(2024, 3, 4, 8, 0)  # a Monday
ZONES = {"": None, "+00:00": timezone.utc, "+01:00": timezone(timedelta(hours=1)),
         "-05:30": timezone(timedelta(hours=-5, minutes=-30))}
BAD_CELLS = ["", " ", "nan", "inf", "-inf", "n/a", "-3", "-0.0", "150", "2.5", "7",
             " 12 ", "yes", "2024-03-04T07:00:00", "2024-03-09T23:30:00Z",
             "2024-03-04T09:00:00+02:00", "2024-13-01"]


@st.composite
def trip_lines(draw):
    vid = draw(st.sampled_from(["a", "b", "c", " a"]))
    # late and early hours, so that zones move some stamps across midnight
    start = BASE_TIME.replace(hour=draw(st.sampled_from([0, 2, 8, 13, 20, 23]))) + timedelta(
        days=draw(st.integers(-3, 20)), minutes=draw(st.integers(0, 59)))
    start = start.replace(tzinfo=ZONES[draw(st.sampled_from(sorted(ZONES)))])
    # a whole number of quarter hours is exact in binary, so the span can be
    # off by exactly the 1 s tolerance
    duration_h = draw(st.integers(1, 40)) / 4
    end = start + timedelta(seconds=duration_h * 3600
                            + draw(st.sampled_from([0, 0, 0, 0.5, 1, -1, 1.5, -7])))
    if start.tzinfo is not None:
        end = end.astimezone(ZONES[draw(st.sampled_from(sorted(ZONES)[1:]))])
    stamps = [start.isoformat(), end.isoformat()]
    if draw(st.integers(0, 9)) == 0:
        stamps.reverse()
    number = st.floats(0, 500, allow_nan=False).map(lambda x: repr(round(x, 3)))
    fuel, energy = draw(st.sampled_from([("f", ""), ("", "e"), ("f", "e"), ("", "")]))
    cells = [
        vid, *stamps, draw(st.sampled_from(["0", "0.0"]) | number), repr(duration_h),
        draw(number) if fuel else fuel, draw(number) if energy else energy,
        draw(st.floats(0, 100).map(repr)), draw(st.floats(0, 100).map(repr)),
        draw(st.floats(-30, 40).map(lambda x: repr(round(x, 1)))),
        str(draw(st.integers(0, 6))),
        draw(st.sampled_from(["0", "1", "yes", "no", " TRUE ", "false", ""])),
        draw(st.sampled_from(["hybrid", "electric", " hybrid "])), draw(number), draw(number),
        {"a": "treatment", " a": "treatment"}.get(vid, "control"),
    ]
    for at, value in draw(st.lists(st.tuples(st.integers(0, 15), st.sampled_from(BAD_CELLS)),
                                   max_size=2)):
        cells[at] = value
    shape = draw(st.sampled_from(["whole"] * 12 + ["short", "long", "blank"]))
    if shape == "short":
        cells = cells[: draw(st.integers(1, 15))]
    elif shape == "long":
        cells += draw(st.lists(st.sampled_from(["7", "", "x"]), min_size=1, max_size=2))
    elif shape == "blank":
        cells = []
    return ",".join(cells)


def _stamped(trips):
    # TripRecord equality compares aware stamps by instant; the offset must match too
    return [(t, t.start_time.utcoffset(), t.end_time.utcoffset()) for t in trips]


def _aggregate_outcome(aggregate, trips, **kwargs):
    try:
        aggs, excluded = aggregate(trips, **kwargs)
    except SchemaError as exc:
        return str(exc), None
    return [(a.vehicle_id, a.group, a.covariates, a.target) for a in aggs], excluded


def assert_matches_reference(text, zone="Europe/Stockholm", **aggregate_kwargs):
    table, rejects = ingest_trips(io.StringIO(text))
    trips, expected_rejects = reference_ingest(io.StringIO(text))
    assert rejects == expected_rejects
    assert _stamped(trip_rows(table)) == _stamped(trips)
    with mock.patch.object(pipeline, "DEFAULT_TIMEZONE", zone):
        got = _aggregate_outcome(aggregate_to_vehicle, table, **aggregate_kwargs)
    want = _aggregate_outcome(reference_aggregate, trips, timezone=zone, **aggregate_kwargs)
    if want[1] is None:
        assert got == want
        return
    assert got[1] == want[1]
    assert [a[:2] for a in got[0]] == [a[:2] for a in want[0]]
    for (*_, cov, target), (*_, want_cov, want_target) in zip(got[0], want[0]):
        assert cov == pytest.approx(want_cov, rel=1e-12)
        assert target == pytest.approx(want_target, rel=1e-12)


# One violation of each row check: (column, value) edits to FIVE_TRIPS[0].
VIOLATIONS = [
    [("start_time", "2024-03-04 8h")],
    [("end_time", "2024-13-04T09:00:00")],
    [("start_time", "2024-03-04T08:00:00+00:00")],
    [("end_time", "2024-03-04T08:00:00")],  # equal to start_time
    [("duration_h", "n/a")],
    [("duration_h", "-1")],
    [("duration_h", "2.5")],
    [("fuel_g", "x")],
    [("energy_wh", "-0.5e-3")],
    [("fuel_g", " "), ("energy_wh", "")],
    [("soc_start_pct", "lots")],
    [("soc_end_pct", "100.5")],
    [("distance_km", "-2")],
    [("odometer_km", "")],
    [("max_speed_kmh", "-inf")],
    [("engine_starts", "2.0")],
    [("engine_starts", "-1")],
    [("fuel_g", "-1")],
    [("ambient_temp_c", "warm")],
    [("trailer", "maybe")],
    [("distance_km", "inf")],
    [("duration_h", "nan")],
    [("ambient_temp_c", "-inf")],
    [("energy_wh", "nan")],
]


class TestMatchesReference:
    @pytest.mark.parametrize("first", range(len(VIOLATIONS)))
    def test_first_failed_check_names_the_reason(self, first):
        # every ordered pair of violations in one row: the check order decides
        for second in VIOLATIONS:
            cells = FIVE_TRIPS[0].split(",")
            for column, value in VIOLATIONS[first] + second:
                cells[TRIPS_CSV_COLUMNS.index(column)] = value
            assert_matches_reference(f"{HEADER}\n{','.join(cells)}\n")

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(trip_lines(), max_size=30),
           block_rows=st.sampled_from([1, 2, 3, 8192]),
           target_spec=st.sampled_from(["fuel_per_km", "energy_per_km"]),
           zone=st.sampled_from(["Europe/Stockholm", "UTC", "America/New_York"]))
    def test_generated_files(self, lines, block_rows, target_spec, zone):
        # small blocks put rows of every kind across block boundaries
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            assert_matches_reference("\n".join([HEADER, *lines]) + "\n",
                                     target_spec=target_spec, zone=zone)

    def test_file_longer_than_one_block(self):
        block = pipeline._BLOCK_ROWS
        rows = [FIVE_TRIPS[i % 5].replace("v1", f"v{i % 7}") for i in range(block + 8)]
        bad = FIVE_TRIPS[0].split(",")
        bad[TRIPS_CSV_COLUMNS.index("distance_km")] = "n/a"
        # a blank line is not a row, so the short row ends the first block
        # and the row with one offset stamp starts the second
        rows[block - 3] = ",".join(bad)
        rows[block - 2] = FIVE_TRIPS[1] + ",7"
        rows[block - 1] = ""
        rows[block] = FIVE_TRIPS[2].rsplit(",", 3)[0]
        rows[block + 1] = FIVE_TRIPS[3].replace("T09:00:00", "T09:00:00+01:00")
        text = "\n".join([HEADER, *rows]) + "\n"
        assert_matches_reference(text)
        table, rejects = ingest_trips(io.StringIO(text))
        assert len(table) == len(rows) - 5
        assert [r["line"] for r in rejects] == [block - 1, block, block + 1, block + 2]
