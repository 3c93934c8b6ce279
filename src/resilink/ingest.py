"""Parsers for the source dataset files plus record normalization.

The two upstream projects publish flat JSON/CSV records whose field names
differ per dataset; an :class:`AdapterConfig` maps canonical field names to
source field names so the rest of the pipeline never sees source schemas.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .model import (
    Dataset,
    Event,
    EventKey,
    InputFormatError,
    ResilinkError,
    content_event_id,
    csv_rows,
    json_document,
    parse_civil_date,
    validate_point,
)

CANONICAL_FIELDS = (
    "id",
    "date",
    "lat",
    "lon",
    "description",
    "country",
    "city",
    "province",
    "url",
    "violence_level",
)
MANDATORY_FIELDS = ("date", "lat", "lon")


class MissingMandatoryFieldError(ResilinkError):
    def __init__(self, field_name: str, record_index: int):
        self.field_name = field_name
        self.record_index = record_index
        super().__init__(
            f"record {record_index} lacks mandatory field {field_name!r}"
        )


class RecordError(ResilinkError):
    """A single record could not be normalized; carries its file position."""

    def __init__(self, record_index: int, message: str):
        self.record_index = record_index
        super().__init__(f"record {record_index}: {message}")


class SourceFormat(str, Enum):
    JSON = "json"
    CSV = "csv"


@dataclass(frozen=True)
class AdapterConfig:
    """Canonical-name -> source-field-name mapping for one dataset."""

    field_map: Mapping[str, str]

    def __post_init__(self):
        unknown = set(self.field_map) - set(CANONICAL_FIELDS)
        if unknown:
            raise ValueError(f"unknown canonical field names: {sorted(unknown)}")
        missing = [f for f in MANDATORY_FIELDS if f not in self.field_map]
        if missing:
            raise ValueError(f"adapter must map mandatory fields: {missing}")
        object.__setattr__(self, "field_map", dict(self.field_map))

    @classmethod
    def from_dict(cls, d: Mapping[str, str]) -> AdapterConfig:
        return cls(field_map=dict(d))


@dataclass(frozen=True)
class RawEventRecord:
    """One source entry with its values kept verbatim (no cleaning here)."""

    dataset: Dataset
    index: int
    fields: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "fields", dict(self.fields))


def _stringify(value) -> str | None:
    """Render a JSON value the way it appeared, minus container syntax.

    Lists become whitespace-joined tokens (used for multi-URL fields);
    null maps to an absent field.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, list):
        parts = [_stringify(v) for v in value]
        return " ".join(p for p in parts if p)
    return json.dumps(value, ensure_ascii=False)


def _parse_json_records(data: bytes) -> list[dict]:
    parsed = json_document(data, "source JSON", list)
    for i, obj in enumerate(parsed):
        if not isinstance(obj, dict):
            raise ValueError(f"entry {i} is not a JSON object")
    return parsed


def _parse_csv_records(data: bytes) -> list[dict]:
    """RFC 4180 rows, read by model.csv_rows, under a mandatory header row of the same width."""
    rows = csv_rows(data)
    _, header = next(rows, (1, []))
    if all(not h.strip() for h in header):
        raise InputFormatError(1, "missing CSV header row")
    records = []
    for line, row in rows:
        if len(row) != len(header):
            raise InputFormatError(line, f"row has {len(row)} columns, header has {len(header)}")
        records.append(dict(zip(header, row)))
    return records


def parse_dataset(
    data: bytes, dataset: Dataset, fmt: SourceFormat, cfg: AdapterConfig
) -> list[RawEventRecord]:
    """Parse a source file's bytes into raw records, in file order.

    Every record must carry the mapped mandatory fields (date, lat, lon);
    a record missing one aborts the parse, since that points at a broken
    adapter mapping rather than one dirty row.
    """
    if fmt is SourceFormat.JSON:
        objs = _parse_json_records(data)
    elif fmt is SourceFormat.CSV:
        objs = _parse_csv_records(data)
    else:
        raise ValueError(f"unsupported format: {fmt!r}")

    records = []
    for i, obj in enumerate(objs):
        fields = {str(k): s for k, v in obj.items() if (s := _stringify(v)) is not None}
        for canonical in MANDATORY_FIELDS:
            src = cfg.field_map[canonical]
            if not fields.get(src, "").strip():
                raise MissingMandatoryFieldError(canonical, i)
        records.append(RawEventRecord(dataset=dataset, index=i, fields=fields))
    return records


def clean_location_string(s: str) -> str:
    """Strip CR/LF and outer whitespace; collapse internal runs to one space."""
    return " ".join(s.split())


def split_location_parts(s: str) -> list[str]:
    """Split a cleaned location string on commas into trimmed parts.

    A trailing " region"/" Region" word is dropped from each part and empty
    parts are discarded. Mis-ordered inputs ("Kyiv region, Donetsk") keep
    both parts; coordinate-based enrichment arbitrates downstream.
    """
    parts = []
    for chunk in s.split(","):
        p = chunk.strip()
        if p.lower().endswith(" region"):
            p = p[: -len(" region")].rstrip()
        if p:
            parts.append(p)
    return parts


# JSON string escapes can decode to a lone surrogate; no output could encode it
_SURROGATE = re.compile("[\ud800-\udfff]")


def normalize_record(raw: RawEventRecord, cfg: AdapterConfig) -> Event:
    """Turn one raw record into an Event with cleaned strings and parsed values.

    The violence level (when mapped and present) is appended to comments;
    place strings are cleaned and kept as ``*_name`` fields for the
    enrichment stage. Raises RecordError carrying the record index.
    """

    def _get(canonical: str) -> str | None:
        src = cfg.field_map.get(canonical)
        if src is None:
            return None
        value = raw.fields.get(src)
        if value is None or not value.strip():
            return None
        if _SURROGATE.search(value):
            raise RecordError(raw.index, f"field {src!r} holds a lone surrogate")
        return value

    raw_date, raw_lat, raw_lon = _get("date"), _get("lat"), _get("lon")
    for canonical, value in (("date", raw_date), ("lat", raw_lat), ("lon", raw_lon)):
        if value is None:
            raise RecordError(raw.index, f"mandatory field {canonical!r} is missing")
    try:
        date = parse_civil_date(raw_date)
        point = validate_point(float(raw_lat), float(raw_lon))
    except (ResilinkError, ValueError) as exc:
        raise RecordError(raw.index, str(exc)) from exc

    description = _get("description")
    description = description.strip() if description else None
    raw_country = _get("country")
    country_name = clean_location_string(raw_country) if raw_country else None

    city_name = province_name = None
    raw_city = _get("city")
    if raw_city:
        parts = split_location_parts(clean_location_string(raw_city))
        if parts:
            city_name = parts[0]
            if len(parts) > 1:
                province_name = parts[1]
    raw_province = _get("province")
    if raw_province:
        parts = split_location_parts(clean_location_string(raw_province))
        if parts:
            province_name = parts[0]

    raw_url = _get("url")
    urls = tuple(raw_url.split()) if raw_url else ()

    comments = []
    violence = _get("violence_level")
    if violence:
        comments.append(f"violence_level: {clean_location_string(violence)}")

    event_id = _get("id")
    event_id = event_id.strip() if event_id else content_event_id(raw.dataset, date, point, description)

    try:
        return Event(
            id=event_id,
            dataset=raw.dataset,
            date=date,
            point=point,
            description=description,
            country_name=country_name,
            city_name=city_name,
            province_name=province_name,
            source_urls=urls,
            comments=tuple(comments),
        )
    except ValueError as exc:
        raise RecordError(raw.index, str(exc)) from exc


def normalize_records(
    records: list[RawEventRecord], cfg: AdapterConfig
) -> tuple[list[Event], list[RecordError]]:
    """Tolerant normalization: bad records are collected, not fatal.

    A record whose (dataset, id) an earlier record already took is
    rejected. Count preservation holds: len(events) + len(rejected) ==
    len(records).
    """
    events: list[Event] = []
    rejected: list[RecordError] = []
    seen: set[EventKey] = set()
    for raw in records:
        try:
            ev = normalize_record(raw, cfg)
            if ev.key in seen:
                raise RecordError(raw.index, f"duplicate {ev.dataset.value} event id: {ev.id!r}")
            seen.add(ev.key)
            events.append(ev)
        except RecordError as exc:
            # Kept without the tracebacks of the error and of what it chains: their
            # frames reach this one, which holds every record and event in a cycle.
            cause = exc
            while cause is not None:
                cause = cause.with_traceback(None).__context__
            rejected.append(exc)
    return events, rejected
