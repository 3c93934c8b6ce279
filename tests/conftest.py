from __future__ import annotations

import json
from pathlib import Path

import pytest

from resilink import gazetteer, ingest, integration
from resilink.model import Dataset

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def gaz_index() -> gazetteer.GazetteerIndex:
    gaz = FIXTURES / "gazetteer"
    return gazetteer.load_gazetteer(
        gaz / "places.tsv", gaz / "alt_names.tsv", gaz / "postal.tsv"
    )


@pytest.fixture(scope="session")
def overrides() -> gazetteer.OverrideTable:
    return gazetteer.OverrideTable.from_json(
        (FIXTURES / "pipeline" / "overrides.json").read_bytes()
    )


@pytest.fixture(scope="session")
def adapter_configs() -> dict[Dataset, ingest.AdapterConfig]:
    raw = json.loads((FIXTURES / "pipeline" / "config.json").read_text())
    return {Dataset(k): ingest.AdapterConfig.from_dict(v) for k, v in raw["adapters"].items()}


@pytest.fixture(scope="session")
def normalized_events(adapter_configs):
    """The planted-duplicate fixture parsed into events (pre-enrichment)."""
    pipe = FIXTURES / "pipeline"
    eor_raw = ingest.parse_dataset(
        (pipe / "eor.json").read_bytes(), Dataset.EOR, ingest.SourceFormat.JSON,
        adapter_configs[Dataset.EOR],
    )
    ch_raw = ingest.parse_dataset(
        (pipe / "ch.csv").read_bytes(), Dataset.CH, ingest.SourceFormat.CSV,
        adapter_configs[Dataset.CH],
    )
    eor_events, eor_rejected = ingest.normalize_records(eor_raw, adapter_configs[Dataset.EOR])
    ch_events, ch_rejected = ingest.normalize_records(ch_raw, adapter_configs[Dataset.CH])
    assert not eor_rejected and not ch_rejected
    return eor_events, ch_events


@pytest.fixture(scope="session")
def enriched_events(normalized_events, gaz_index, overrides):
    eor_events, ch_events = normalized_events
    eor, _ = gazetteer.enrich_events(gaz_index, overrides, eor_events)
    ch, _ = gazetteer.enrich_events(gaz_index, overrides, ch_events)
    return eor, ch


@pytest.fixture(scope="session")
def integrated(enriched_events) -> integration.IntegrationResult:
    eor, ch = enriched_events
    return integration.integrate(eor, ch)
