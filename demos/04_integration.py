"""Detect cross-dataset duplicates in the bundled sample and mint aggregates.

The sample plants five true duplicate pairs (shared-link, area and keyword
rules) plus two near-misses; the matcher must find exactly those.
"""

import json
from pathlib import Path

from resilink import (
    AdapterConfig,
    Dataset,
    OverrideTable,
    SourceFormat,
    integrate,
    load_gazetteer,
    normalize_records,
    parse_dataset,
    similarity,
)
from resilink.gazetteer import enrich_events

ROOT = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

config = json.loads((ROOT / "pipeline" / "config.json").read_text())
index = load_gazetteer(
    ROOT / "gazetteer" / "places.tsv",
    ROOT / "gazetteer" / "alt_names.tsv",
    ROOT / "gazetteer" / "postal.tsv",
)
overrides = OverrideTable.from_json((ROOT / "pipeline" / "overrides.json").read_text())


def load(name, dataset, fmt):
    cfg = AdapterConfig.from_dict(config["adapters"][dataset.value])
    records = parse_dataset((ROOT / "pipeline" / name).read_bytes(), dataset, fmt, cfg)
    events, _ = normalize_records(records, cfg)
    enriched, _ = enrich_events(index, overrides, events)
    return enriched


eor = load("eor.json", Dataset.EOR, SourceFormat.JSON)
ch = load("ch.csv", Dataset.CH, SourceFormat.CSV)

print("string similarity example:", similarity("abcd", "bcde"))

result = integrate(eor, ch)
c = result.counts
print(f"\n|A|={c.a}  |B|={c.b}  identical={c.identical}  "
      f"near-distinct={c.near_distinct}  integrated={c.integrated}")
print(f"arithmetic: {c.a} + {c.b} - {c.identical} = {c.a + c.b - c.identical}\n")

print("a_id,b_id,verdict,rule,distance_km,similarity")
for p in result.pairs:
    print(f"{p.a},{p.b},{p.verdict.value},{p.rule.value},{p.distance_km:.6f},{p.similarity:.6f}")
print()

pair_aggregates = [a for a in result.aggregates if len(a.members) == 2]
print("a pair aggregate and its primary source:")
agg = pair_aggregates[0]
print(" ", agg.iri)
print("  members:", agg.members)
print("  primary:", agg.primary)
