"""Run the six report queries over the integrated sample dataset."""

import json
from pathlib import Path

from resilink import (
    AdapterConfig,
    CivilDate,
    Dataset,
    GazetteerRef,
    GeoPoint,
    OverrideTable,
    SourceFormat,
    integrate,
    load_gazetteer,
    normalize_records,
    parse_dataset,
)
from resilink.analytics import (
    DEFAULT_MONTHS,
    IntegratedDataset,
    ShelterRecord,
    monthly_event_counts,
    uc1_event_points,
    uc2_monthly_keyword_series,
    uc3_multilingual_city_report,
    uc4_monthly_timeline,
    uc5_ratio_series,
    uc6_shelter_gap,
)
from resilink.gazetteer import enrich_events

ROOT = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

config = json.loads((ROOT / "pipeline" / "config.json").read_text())
index = load_gazetteer(
    ROOT / "gazetteer" / "places.tsv",
    ROOT / "gazetteer" / "alt_names.tsv",
    ROOT / "gazetteer" / "postal.tsv",
)
overrides = OverrideTable.from_json((ROOT / "pipeline" / "overrides.json").read_bytes())


def load(name, dataset, fmt):
    cfg = AdapterConfig.from_dict(config["adapters"][dataset.value])
    records = parse_dataset((ROOT / "pipeline" / name).read_bytes(), dataset, fmt, cfg)
    events, _ = normalize_records(records, cfg)
    enriched, _ = enrich_events(index, overrides, events)
    return enriched


eor = load("eor.json", Dataset.EOR, SourceFormat.JSON)
ch = load("ch.csv", Dataset.CH, SourceFormat.CSV)
dataset = IntegratedDataset.from_events(eor + ch, integrate(eor, ch).aggregates)

print("UC1 - damage points in Kherson, 2022-10-01 .. 2023-02-28 (inclusive):")
points = uc1_event_points(
    dataset, GazetteerRef(706448), CivilDate(2022, 10, 1), CivilDate(2023, 2, 28)
)
for p in points:
    print("  ", p.wkt)

print("\nUC2 - monthly events mentioning 'school' (zero-filled):")
for b in uc2_monthly_keyword_series(dataset, "school", DEFAULT_MONTHS):
    print(f"  {b.month_year}  {b.count}")

print("\nUC3 - most-hit cities with labels in en/uk/nl/fr:")
for row in uc3_multilingual_city_report(dataset, ["en", "uk", "nl", "fr"], top_n=5):
    print(f"  {row.occurrences:3d}  {dict(row.names)}")

print("\nUC4 - top regions per month (end-exclusive windows):")
for month, rows in uc4_monthly_timeline(dataset, ["2022-03", "2022-04", "2022-11"], 3):
    print(f"  {month}: " + ", ".join(f"{r.region}={r.occurrences}" for r in rows))

print("\nUC5 - deaths-to-attacks ratio joined with external counts (proof of concept):")
attacks = monthly_event_counts(dataset, ["2022-03", "2022-04"])
for row in uc5_ratio_series(attacks, {"2022-03": 4, "2022-04": 2}):
    print(f"  {row.month_year}: attacks={row.attacks} deaths={row.deaths} ratio={row.ratio}")

print("\nUC6 - events without a shelter within 1 km:")
shelters = [ShelterRecord(point=GeoPoint(49.9935, 36.2304), name="central")]
collection, grid = uc6_shelter_gap(dataset, shelters, radius_km=1.0)
print(f"  uncovered events: {len(collection['features'])}")
print(f"  density grid cells: {len(grid)}; counts sum = {sum(c.count for c in grid)}")
