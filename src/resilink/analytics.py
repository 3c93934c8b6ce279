"""Report queries over the integrated event set.

Every query reads only the aggregates' primary sources, so results are
stable across a serialize/reload round trip of the dataset. All functions
are read-only and may run concurrently.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .gazetteer import PointSet
from .model import (
    AggregateEvent,
    CivilDate,
    Event,
    EventKey,
    GazetteerRef,
    GeoPoint,
    InputFormatError,
    ResilinkError,
    csv_rows,
    events_by_key,
    is_language_code,
    validate_point,
)
from .rdf import (
    GEOSPARQL_NS,
    WKT_DATATYPE,
    StatementRow,
    event_iri,
    events_from_rows,
    format_decimal,
    render_literal,
)

logger = logging.getLogger(__name__)

DEFAULT_MONTHS = (
    "2022-02", "2022-03", "2022-04", "2022-05", "2022-06",
    "2022-07", "2022-08", "2022-09", "2022-10", "2022-11",
    "2022-12", "2023-01", "2023-02", "2023-03", "2023-04",
)

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


@dataclass(frozen=True)
class MonthBucket:
    month_year: str
    count: int

    def __post_init__(self):
        _check_month(self.month_year)
        if self.count < 0:
            raise ValueError("count must be non-negative")


@dataclass(frozen=True)
class WktPoint:
    """A `POINT(lng lat)` literal; longitude always precedes latitude."""

    wkt: str
    point: GeoPoint


@dataclass(frozen=True)
class RegionRank:
    region: str
    occurrences: int

    def __post_init__(self):
        if self.occurrences <= 0:
            raise ValueError("occurrences must be positive")


@dataclass(frozen=True)
class ShelterRecord:
    point: GeoPoint
    name: str | None = None


@dataclass(frozen=True)
class CityNamesRow:
    names: Mapping[str, str]
    occurrences: int

    def __post_init__(self):
        object.__setattr__(self, "names", MappingProxyType(dict(self.names)))


@dataclass(frozen=True)
class RatioRow:
    month_year: str
    attacks: int
    deaths: int
    ratio: float | None


@dataclass(frozen=True)
class GridCell:
    cell_lat: float
    cell_lon: float
    count: int


@dataclass(frozen=True)
class IntegratedDataset:
    """Aggregates plus the source events they point at."""

    aggregates: tuple[AggregateEvent, ...]
    events: Mapping[EventKey, Event]

    def __post_init__(self):
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "events", MappingProxyType(dict(self.events)))
        for agg in self.aggregates:
            for member in agg.members:
                if member not in self.events:
                    raise ValueError(f"aggregate member has no event: {event_iri(*member)}")

    def primary_events(self) -> list[tuple[AggregateEvent, Event]]:
        return [(agg, self.events[agg.primary]) for agg in self.aggregates]

    @classmethod
    def from_events(cls, events: Iterable[Event], aggregates: Iterable[AggregateEvent]) -> IntegratedDataset:
        return cls(aggregates=tuple(aggregates), events=events_by_key(events))

    @classmethod
    def from_triples(cls, rows: Iterable[StatementRow]) -> IntegratedDataset:
        """The dataset in the statement rows of an integrated .nt (see rdf.parse_ntriples)."""
        events, aggregates = events_from_rows(rows)
        return cls(aggregates=tuple(aggregates), events=events)


def _check_month(month: str) -> None:
    """Raise ValueError unless month is a "YYYY-MM" string."""
    m = _MONTH_RE.fullmatch(month)
    if m is None or not 1 <= int(m.group(2)) <= 12:
        raise ValueError(f"not a YYYY-MM month: {month!r}")


def check_months(months: Sequence[str]) -> None:
    """The one month-list rule: at least one month, each a valid YYYY-MM, none repeated."""
    if not months:
        raise ValueError("months must be non-empty")
    seen = set()
    for month in months:
        _check_month(month)
        if month in seen:
            raise ValueError(f"month listed twice: {month!r}")
        seen.add(month)


@dataclass(frozen=True)
class ReportSettings:
    """Report defaults: the uc2/uc5 month list and the uc6 radius and grid cell size."""

    months: tuple[str, ...] = DEFAULT_MONTHS
    uc6_radius_km: float = 1.0
    grid_deg: float = 0.005

    def __post_init__(self):
        check_months(self.months)
        if not self.uc6_radius_km > 0:  # also rejects NaN
            raise ValueError(f"uc6_radius_km must be positive: {self.uc6_radius_km!r}")
        if not 0 < self.grid_deg < math.inf:
            raise ValueError(f"grid_deg must be positive and finite: {self.grid_deg!r}")


def _uc1_selection(
    dataset: IntegratedDataset, city: GazetteerRef | None, start: CivilDate, end: CivilDate
) -> list[tuple[AggregateEvent, Event, str]]:
    """Primary events within [start, end] (and the city, if given) with their WKT."""
    if start > end:
        raise ValueError("start must not be after end")
    out = []
    for agg, ev in dataset.primary_events():
        if not start <= ev.date <= end:
            continue
        if city is not None and (ev.city is None or ev.city.geoname_id != city.geoname_id):
            continue
        wkt = f"POINT({format_decimal(ev.point.longitude)} {format_decimal(ev.point.latitude)})"
        out.append((agg, ev, wkt))
    return out


def uc1_event_points(
    dataset: IntegratedDataset,
    city: GazetteerRef | None,
    start: CivilDate,
    end: CivilDate,
) -> list[WktPoint]:
    """WKT points of primary events within [start, end], both ends inclusive."""
    return [
        WktPoint(wkt=wkt, point=ev.point)
        for _, ev, wkt in _uc1_selection(dataset, city, start, end)
    ]


def uc1_wkt_triples(
    dataset: IntegratedDataset,
    city: GazetteerRef | None,
    start: CivilDate,
    end: CivilDate,
) -> list[str]:
    """The uc1 selection as wktLiteral N-Triples lines on the aggregate nodes."""
    return [
        f"<{agg.iri}> <{GEOSPARQL_NS}asWKT> {render_literal(wkt, datatype=WKT_DATATYPE)} ."
        for agg, _, wkt in _uc1_selection(dataset, city, start, end)
    ]


def _point_collection(items: Iterable[tuple[GeoPoint, dict]]) -> dict:
    """GeoJSON FeatureCollection with one Point feature per (point, properties) item."""
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [p.longitude, p.latitude]},
                "properties": properties,
            }
            for p, properties in items
        ],
    }


def points_feature_collection(points: Sequence[WktPoint]) -> dict:
    """GeoJSON FeatureCollection for a list of report points."""
    return _point_collection((p.point, {"wkt": p.wkt}) for p in points)


def _literal_fields(ev: Event) -> list[str]:
    values = []
    if ev.description is not None:
        values.append(ev.description)
    values.extend(ev.comments)
    values.extend(ev.city_labels.values())
    if ev.province is not None and ev.province.preferred_name:
        values.append(ev.province.preferred_name)
    if ev.postal_code is not None:
        values.append(ev.postal_code)
    return values


def uc2_monthly_keyword_series(
    dataset: IntegratedDataset, keyword: str, months: Sequence[str] = DEFAULT_MONTHS
) -> list[MonthBucket]:
    """Distinct aggregates per month whose primary mentions the keyword.

    The keyword is matched case-insensitively as a substring of any literal
    field of the primary event (description, comments, labels, region,
    postal code). Months with no matches report 0, so the output length
    always equals the requested month list length.
    """
    if not keyword.strip():
        raise ValueError(f"keyword must not be blank: {keyword!r}")
    needle = keyword.lower()
    return _month_tally(
        (ev for _, ev in dataset.primary_events()
         if any(needle in text.lower() for text in _literal_fields(ev))),
        months,
    )


def monthly_event_counts(
    dataset: IntegratedDataset, months: Sequence[str] = DEFAULT_MONTHS
) -> list[MonthBucket]:
    """Total aggregates per month (the attack series used by uc5)."""
    return _month_tally((ev for _, ev in dataset.primary_events()), months)


def _month_tally(events: Iterable[Event], months: Sequence[str]) -> list[MonthBucket]:
    """Events per month, one bucket for each of months in its order, 0 when none."""
    check_months(months)
    counts = Counter(ev.date.isoformat()[:7] for ev in events)
    return [MonthBucket(m, counts[m]) for m in months]


def uc3_multilingual_city_report(
    dataset: IntegratedDataset, langs: Sequence[str], top_n: int
) -> list[CityNamesRow]:
    """Most-hit cities with one label per requested language.

    An event contributes only when its city labels cover every requested
    language; rows group by the name tuple, sort by count descending
    (ties: name order) and truncate to top_n.
    """
    if not langs:
        raise ValueError("langs must be non-empty")
    if not all(map(is_language_code, langs)):
        raise ValueError(f"language codes must be two lowercase letters: {','.join(langs)!r}")
    if len(set(langs)) != len(langs):
        raise ValueError(f"language code listed twice: {','.join(langs)!r}")
    counts = Counter(
        tuple(ev.city_labels[lang] for lang in langs) for _, ev in dataset.primary_events()
        if all(lang in ev.city_labels for lang in langs)
    )
    return [
        CityNamesRow(names=dict(zip(langs, names)), occurrences=n)
        for names, n in _ranked(counts, top_n)
    ]


def _ranked(counts: Counter, n: int) -> list[tuple]:
    """The n (key, count) pairs with the highest counts, by count descending (ties: key order)."""
    if n < 1:
        raise ValueError(f"top must be at least 1: {n}")
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def _top_regions(events: Iterable[Event], n: int) -> list[RegionRank]:
    """The n regions with the most events, by count descending (ties: name order)."""
    counts = Counter(
        ev.province.preferred_name for ev in events
        if ev.province is not None and ev.province.preferred_name
    )
    return [RegionRank(region, occurrences) for region, occurrences in _ranked(counts, n)]


def uc4_top_regions(
    dataset: IntegratedDataset, start: CivilDate, end: CivilDate, n: int
) -> list[RegionRank]:
    """Top regions by event count within [start, end); the end is exclusive."""
    if not start < end:
        raise ValueError("start must be before end")
    return _top_regions((ev for _, ev in dataset.primary_events() if start <= ev.date < end), n)


def uc4_monthly_timeline(
    dataset: IntegratedDataset, months: Sequence[str], n: int
) -> list[tuple[str, list[RegionRank]]]:
    """uc4 month by month; an event counts in the month of its date, as in uc2."""
    check_months(months)
    by_month: dict[str, list[Event]] = {month: [] for month in months}
    for _, ev in dataset.primary_events():
        month = ev.date.isoformat()[:7]
        if month in by_month:
            by_month[month].append(ev)
    return [(month, _top_regions(events, n)) for month, events in by_month.items()]


def _csv_rows(data: bytes, header: list[str], expected: str) -> Iterator[tuple[int, list[str]]]:
    """(line, row) of each non-blank row under the checked header, numbered by model.csv_rows."""
    rows = csv_rows(data)
    _, first = next(rows, (1, []))
    if [h.strip() for h in first] != header:
        raise InputFormatError(1, f"expected the header '{','.join(header)}'")
    for line, row in rows:
        if len(row) != len(header):
            raise InputFormatError(line, f"expected {expected}")
        yield line, row


def read_deaths_csv(data: bytes) -> dict[str, int]:
    """The death counts by month of the external `month,deaths` CSV used by uc5."""
    out = {}
    for i, row in _csv_rows(data, ["month", "deaths"], "'YYYY-MM,integer'"):
        month = row[0].strip()
        try:
            _check_month(month)
        except ValueError as exc:
            raise InputFormatError(i, str(exc)) from exc
        try:
            deaths = int(row[1])
        except ValueError as exc:
            raise InputFormatError(i, f"bad death count {row[1]!r}") from exc
        if deaths < 0:
            raise InputFormatError(i, f"negative death count {deaths}")
        if month in out:
            raise InputFormatError(i, f"month {month} listed twice")
        out[month] = deaths
    return out


def uc5_ratio_series(attacks: Sequence[MonthBucket], deaths_by_month: Mapping[str, int]) -> list[RatioRow]:
    """Join the attack series with external death counts on month.

    Months present in the external data but absent from the attack series
    are dropped with a warning; a zero-attack month reports no ratio. This
    is a proof-of-concept join over unvalidated external data; the uc5
    report marks it as such in its first line.
    """
    attack_months = {b.month_year for b in attacks}
    for month in sorted(set(deaths_by_month) - attack_months):
        logger.warning("deaths month %s absent from attack series; dropped", month)
    rows = []
    for bucket in attacks:
        if bucket.month_year not in deaths_by_month:
            continue
        deaths = deaths_by_month[bucket.month_year]
        ratio = deaths / bucket.count if bucket.count > 0 else None
        rows.append(RatioRow(bucket.month_year, bucket.count, deaths, ratio))
    return rows


def load_shelters(data: bytes) -> list[ShelterRecord]:
    """The shelter records of a `name,lat,lon` CSV with a header row."""
    shelters = []
    for i, row in _csv_rows(data, ["name", "lat", "lon"], "3 columns"):
        try:
            point = validate_point(float(row[1]), float(row[2]))
        except (ValueError, ResilinkError) as exc:
            raise InputFormatError(i, str(exc)) from exc
        shelters.append(ShelterRecord(point=point, name=row[0].strip() or None))
    return shelters


def uc6_shelter_gap(
    dataset: IntegratedDataset,
    shelters: Sequence[ShelterRecord],
    radius_km: float = ReportSettings.uc6_radius_km,
    grid_deg: float = ReportSettings.grid_deg,
) -> tuple[dict, list[GridCell]]:
    """Uncovered events (no shelter within radius_km) plus a density grid.

    Returns the uncovered events as a GeoJSON FeatureCollection and the
    grid as cells of grid_deg x grid_deg degrees counting uncovered events;
    the cell coordinates are the cell's south-west corner.
    """
    ReportSettings(uc6_radius_km=radius_km, grid_deg=grid_deg)  # the same rules as the config's
    targets = PointSet([s.point for s in shelters])
    uncovered = []
    for _, ev in dataset.primary_events():
        if targets.nearest(ev.point, radius_km) is None:
            uncovered.append(ev)

    collection = _point_collection(
        (ev.point, {"event": event_iri(ev.dataset, ev.id), "date": ev.date.isoformat()})
        for ev in uncovered
    )
    cells = Counter(
        (math.floor(ev.point.latitude / grid_deg), math.floor(ev.point.longitude / grid_deg))
        for ev in uncovered
    )
    grid = [
        GridCell(cell_lat=ki * grid_deg, cell_lon=kj * grid_deg, count=n)
        for (ki, kj), n in sorted(cells.items())
    ]
    return collection, grid
