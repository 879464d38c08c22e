"""Trip telemetry to design matrix, end to end.

Builds a tiny trips CSV in memory, runs it through ingestion, filtering,
vehicle-level aggregation, and min-max scaling, and prints the resulting
design matrix.
"""

import io

from boat.pipeline import (
    TRIPS_CSV_COLUMNS,
    aggregate_to_vehicle,
    build_design,
    filter_trips,
    ingest_trips,
)

rows = [
    # vehicle A, two weekday commutes
    "a,2024-03-04T08:00:00,2024-03-04T09:00:00,45,1.0,3600,,85,30,8,2,0,hybrid,12000,110,treatment",
    "a,2024-03-05T08:00:00,2024-03-05T09:30:00,60,1.5,4200,,90,18,6,1,0,hybrid,12100,120,treatment",
    # vehicle B, one weekend trip with a trailer
    "b,2024-03-09T10:00:00,2024-03-09T12:00:00,110,2.0,9800,,75,40,12,3,1,combustion,45000,130,control",
    "b,2024-03-06T07:30:00,2024-03-06T08:00:00,20,0.5,1900,,60,45,10,1,0,electric,45200,90,control",
    # near-new vehicle: filtered out
    "c,2024-03-04T08:00:00,2024-03-04T08:30:00,25,0.5,2000,,95,70,5,1,0,hybrid,40,100,control",
    # malformed row: duration disagrees with the timestamps
    "d,2024-03-04T08:00:00,2024-03-04T09:00:00,30,2.5,2500,,80,50,7,1,0,hybrid,9000,105,control",
]
csv_text = ",".join(TRIPS_CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"

trips, rejects = ingest_trips(io.StringIO(csv_text))
print(f"ingested {len(trips)} trips, rejected {len(rejects)}:")
for r in rejects:
    print(f"  line {r['line']}: {r['reason']}")

kept, discarded = filter_trips(trips)
print(f"\nkept {len(kept)} after filtering, dropped {len(discarded)}:")
for vehicle_id, reason in discarded:
    print(f"  vehicle {vehicle_id}: {reason}")

aggregates, excluded = aggregate_to_vehicle(kept, target_spec="fuel_per_km")
print(f"\n{len(aggregates)} vehicle aggregates (targets in g fuel per km):")
for agg in aggregates:
    print(f"  {agg.vehicle_id} ({agg.group}): target {agg.target:.1f}")

# scaling needs columns that vary; keep the ones that do here
varying = [
    c for c in aggregates[0].covariates
    if len({a.covariates[c] for a in aggregates}) > 1
]
design = build_design(aggregates, covariate_names=varying)
print(f"\ndesign matrix: {design.X.shape[0]} rows x {design.X.shape[1]} covariates")
print(f"treatment column: {design.t.tolist()}")
print(f"scaled covariate ranges: min {design.X.min():.2f}, max {design.X.max():.2f}")
