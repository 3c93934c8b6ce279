"""resilink: a pipeline toolkit for geo-annotated damage-event datasets.

Converts heterogeneous source datasets into a unified event model, enriches
events with gazetteer-derived geospatial and multilingual information,
emits the result as RDF, detects and merges identical events across
datasets, and produces analytical reports over the integrated set.
"""

from .model import (
    AggregateEvent,
    CivilDate,
    Dataset,
    Event,
    EventKey,
    GazetteerRef,
    GeoPoint,
    ResilinkError,
    events_from_json,
    events_to_json,
    parse_civil_date,
    validate_point,
)
from .ingest import (
    AdapterConfig,
    RawEventRecord,
    SourceFormat,
    clean_location_string,
    normalize_record,
    normalize_records,
    parse_dataset,
    split_location_parts,
)
from .gazetteer import (
    EnrichmentConfig,
    GazetteerEntry,
    GazetteerIndex,
    OverrideTable,
    PostalCodeEntry,
    alternate_names_for,
    enrich_event,
    enrich_events,
    haversine_km,
    load_gazetteer,
    lookup_city_by_name,
    postal_code_for,
    resolve_override,
    reverse_geocode,
)
from .rdf import (
    RdfFormat,
    emit_aggregate_triples,
    emit_event_triples,
    event_iri,
    parse_ntriples,
    serialize_bytes,
)
from .integration import (
    IntegrationResult,
    MatchConfig,
    MatchPair,
    MatchRule,
    Verdict,
    candidate_pairs,
    choose_primary,
    classify_pair,
    integrate,
    shares_link,
    similarity,
)
from .analytics import (
    IntegratedDataset,
    MonthBucket,
    RegionRank,
    ReportSettings,
    ShelterRecord,
    WktPoint,
    uc1_event_points,
    uc2_monthly_keyword_series,
    uc3_multilingual_city_report,
    uc4_top_regions,
    uc5_ratio_series,
    uc6_shelter_gap,
)

__version__ = "0.1.0"
