import io

import numpy as np
import pytest

from boat.errors import ContractError, ScalingError, SchemaError
from boat.pipeline import (
    COVARIATE_NAMES,
    TRIPS_CSV_COLUMNS,
    aggregate_to_vehicle,
    build_design,
    filter_trips,
    ingest_trips,
    min_max_scale,
    min_max_unscale,
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


class TestIngest:
    def test_valid_rows_parse(self):
        trips = trips_from(FIVE_TRIPS)
        assert len(trips) == 5
        assert trips[0].vehicle_id == "v1"
        assert trips[0].fuel_g == 4000.0
        assert trips[0].energy_wh is None
        assert trips[1].trailer is True

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
        assert trips == []
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
        assert [t.vehicle_id for t in trips] == [FIVE_TRIPS[1].split(",")[0]]
        assert [(r["line"], r["reason"]) for r in rejects] == [(2, "missing value: group")]

    def test_duration_within_one_second_tolerated(self):
        row = "v1,2024-03-04T08:00:00,2024-03-04T09:00:00,50,1.0002,4000,,90,15,10,2,0,hybrid,1000,100,treatment"
        trips, rejects = ingest_trips(csv_source([row]))
        assert len(trips) == 1 and rejects == []


class TestFilter:
    def make(self, odometer, distance, duration):
        row = (
            f"v1,2024-03-04T08:00:00,2024-03-04T09:00:00,{distance},{duration},"
            f"100,,50,40,5,1,0,hybrid,{odometer},80,control"
        )
        return trips_from([row])

    def test_new_vehicle_dropped(self):
        kept, discarded = filter_trips(self.make(99.9, 50, 1.0))
        assert kept == []
        assert discarded[0][1] == "new_vehicle"

    def test_odometer_boundary_kept(self):
        kept, discarded = filter_trips(self.make(100.0, 50, 1.0))
        assert len(kept) == 1 and discarded == []

    def test_speed_dropped(self):
        kept, discarded = filter_trips(self.make(500, 201, 1.0))
        assert kept == []
        assert discarded[0][1] == "speed"

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

    def test_timezone_shifts_weekday_classification(self):
        # Friday 23:30 UTC is already Saturday in Stockholm (UTC+1)
        row = (
            "v1,2024-03-08T23:30:00+00:00,2024-03-09T00:30:00+00:00,50,1.0,"
            "100,,50,40,5,1,0,hybrid,1000,80,control"
        )
        aggs_sthlm, _ = aggregate_to_vehicle(trips_from([row]))
        aggs_utc, _ = aggregate_to_vehicle(trips_from([row]), timezone="UTC")
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
        scaled, meta = min_max_scale(X)
        assert scaled.min() == 0.0 and scaled.max() == 1.0
        assert np.all(scaled >= 0) and np.all(scaled <= 1)
        assert len(meta) == 4

    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-100, 100, (20, 3))
        scaled, meta = min_max_scale(X)
        back = min_max_unscale(scaled, meta)
        np.testing.assert_allclose(back, X, rtol=1e-12, atol=1e-12)

    def test_hand_values(self):
        scaled, meta = min_max_scale(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(scaled[:, 0], [0.0, 0.5, 1.0])
        assert meta == [(2.0, 6.0)]

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
        assert dm.scaling_meta is not None
        assert list(dm.unit_ids) == ["v1", "v2"]

    def test_unscaled_passthrough(self):
        aggs, _ = aggregate_to_vehicle(trips_from(FIVE_TRIPS))
        dm = build_design(aggs, scale=False)
        assert dm.scaling_meta is None
        j = COVARIATE_NAMES.index("avg_trip_distance")
        assert dm.X[0, j] == pytest.approx(52.0)
        assert dm.y[0] == pytest.approx(75.0)

    def test_unknown_group_rejected(self):
        rows = [FIVE_TRIPS[0].replace("treatment", "pilot")]
        aggs, _ = aggregate_to_vehicle(trips_from(rows))
        with pytest.raises(ContractError):
            build_design(aggs, scale=False)

    def test_binary_treatment_enforced(self):
        from boat.pipeline import DesignMatrix

        with pytest.raises(ContractError):
            DesignMatrix(
                unit_ids=np.arange(2), X=np.zeros((2, 1)), t=np.array([0, 2]),
                y=np.zeros(2), covariate_names=["x"],
            )
