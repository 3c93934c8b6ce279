"""Offline gazetteer: resolve names and coordinates to stable place ids.

The index is loaded from three tab-separated files (a place file, an
alternate-names file, a postal-code file; the column layouts are given in
the loader docstrings) and is read-only afterwards, so one index can be
shared by any number of worker threads. One load holds each distinct value
of the repeated code columns (feature code, country code, admin1 code,
alternate-name language, postal country code) as a single string object,
shared by every row that carries it, and an ASCII name equal to the name
is the name's own object.

Every nearest-neighbour query goes through ``PointSet``: candidates are the
targets whose unit-vector dot with the query is within ``NEAREST_DOT_EPS``
of the largest, and ``haversine_km`` over them in index order keeps the
first strict minimum. A dot is ``1 - 2h`` for haversine's ``h``, and both
carry an absolute float error of a few 1e-16, so a target no farther than
the top-dot one has a dot within ~1e-15 of the top, well inside 1e-12:
results equal a linear haversine scan bit for bit. ``PointSet.nearest``
also applies the search radius: it answers only a target no farther than
``max_km``, so reverse geocoding, the postal lookup and uc6's shelter
coverage each pass their radius and never compare a distance themselves.

The radius bounds the work too. A great-circle distance is at least
``R * |lat_t - lat_q|`` (latitudes in radians), so every target within
``max_km`` has a latitude within ``w = max_km / R`` of the query's, and
``BAND_MARGIN_RAD`` widens that band for float error. ``PointSet`` keeps
its targets sorted by ``z = sin(latitude)``, so the band is one slice,
from ``sin(lat_q - w)`` to ``sin(lat_q + w)``; an end beyond a pole takes
every target on that side. The dot and haversine rule above runs on the
slice alone, in ascending original index. The answer is the full scan's:
the scan's answer, when within ``max_km``, is in the slice, and so is
every target no farther than it; when the scan's answer is beyond
``max_km``, no target in the slice is within it either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .ingest import clean_location_string
from .model import (
    Event,
    GazetteerRef,
    GeoPoint,
    InputFormatError,
    OutOfRangeError,
    ResilinkError,
    is_language_code,
    json_document,
    parse_file,
)

EARTH_RADIUS_KM = 6371.0


class UnknownGeonameIdError(ResilinkError):
    def __init__(self, geoname_id: int):
        self.geoname_id = geoname_id
        super().__init__(f"geoname id not in index: {geoname_id}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km on a sphere of radius 6371 km."""
    phi1 = math.radians(a.latitude)
    phi2 = math.radians(b.latitude)
    dphi = math.radians(b.latitude - a.latitude)
    dlam = math.radians(b.longitude - a.longitude)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True, slots=True)
class GazetteerEntry:
    """One gazetteer place record (populated place or administrative unit)."""

    geoname_id: int
    name: str
    ascii_name: str
    alternate_names: tuple[tuple[str, str], ...]  # (language code, name); "" = untagged alias
    point: GeoPoint
    feature_class: str  # "P" populated place, "A" administrative
    feature_code: str
    country_code: str
    admin1_code: str


@dataclass(frozen=True, slots=True)
class PostalCodeEntry:
    country_code: str
    postal_code: str
    place_name: str
    point: GeoPoint

    def __post_init__(self):
        if not self.postal_code:
            raise ValueError("postal_code must be non-empty")


@dataclass(frozen=True, slots=True)
class OverrideTable:
    """Manual corrections: misspelled/variant name -> canonical geoname id."""

    mapping: Mapping[str, int]

    def __post_init__(self):
        for v in self.mapping.values():
            if type(v) is not int or v < 1:  # a JSON integer: no boolean, fraction or string
                raise ValueError(f"override table values must be geoname ids: {v!r}")
        object.__setattr__(self, "mapping", {clean_location_string(k): v for k, v in self.mapping.items()})

    @classmethod
    def from_json(cls, text: str) -> OverrideTable:
        """The table in an override file's JSON text: one object of name -> geoname id."""
        return cls(mapping=json_document(text, "override table JSON", dict))


EMPTY_OVERRIDES = OverrideTable(mapping={})


def resolve_override(table: OverrideTable, name: str) -> int | None:
    """Exact-match override lookup after whitespace cleaning."""
    return table.mapping.get(clean_location_string(name))


NEAREST_DOT_EPS = 1e-12
# Float error in the band's ends is a few 1e-16, in radians and in z. Even
# at a pole, where z = sin(latitude) is flattest, a margin m moves an end by
# 1 - cos(m) = 5e-15 in z, dozens of float steps; 1e-7 rad is 0.64 m.
BAND_MARGIN_RAD = 1e-7


class PointSet:
    """Fixed targets answering exact nearest-neighbour queries.

    The targets are held sorted by z = sin(latitude), which is monotonic
    in latitude, so the targets within a latitude band are one slice.
    """

    def __init__(self, points: Sequence[GeoPoint]):
        import numpy as np  # imported here so commands without nearest-neighbour queries skip it

        self._points = list(points)
        lat = np.radians([p.latitude for p in self._points])
        lon = np.radians([p.longitude for p in self._points])
        self._order = np.argsort(np.sin(lat), kind="stable")  # sorted position -> original index
        lat, lon = lat[self._order], lon[self._order]
        self._xyz = np.stack((np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)))

    def nearest(self, p: GeoPoint, max_km: float) -> tuple[int, float] | None:
        """Index and haversine km of the nearest target within max_km; ties keep the lowest index."""
        if not max_km > 0:  # also rejects NaN
            raise ValueError("max_km must be positive")
        import numpy as np

        phi, lam = math.radians(p.latitude), math.radians(p.longitude)
        w = max_km / EARTH_RADIUS_KM + BAND_MARGIN_RAD
        z = self._xyz[2]
        lo = 0 if phi - w <= -math.pi / 2 else z.searchsorted(math.sin(phi - w), "left")
        hi = len(z) if phi + w >= math.pi / 2 else z.searchsorted(math.sin(phi + w), "right")
        if lo >= hi:
            return None
        q = np.array((math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)))
        dots = q @ self._xyz[:, lo:hi]
        candidates = self._order[lo:hi][dots >= dots.max() - NEAREST_DOT_EPS]
        best = None
        for i in sorted(candidates.tolist()):
            d = haversine_km(p, self._points[i])
            if best is None or d < best[1]:
                best = (i, d)
        return best if best[1] <= max_km else None


def _name_index(entries: Iterable[GazetteerEntry]) -> dict[str, list[GazetteerEntry]]:
    """Lowercased name, ASCII name and alias -> the entries carrying it, in load order."""
    index: dict[str, list[GazetteerEntry]] = {}
    for e in entries:
        names = (e.name, e.ascii_name, *(a[1] for a in e.alternate_names))
        for k in dict.fromkeys(n.lower() for n in names):
            if k:
                index.setdefault(k, []).append(e)
    return index


class GazetteerIndex:
    """Immutable lookup structure over place, alternate-name and postal data."""

    def __init__(self, entries: Iterable[GazetteerEntry], postal: Iterable[PostalCodeEntry]):
        self._entries: dict[int, GazetteerEntry] = {}
        for e in entries:
            if e.geoname_id in self._entries:
                raise ValueError(f"duplicate geoname id: {e.geoname_id}")
            self._entries[e.geoname_id] = e
        self._places = [e for e in self._entries.values() if e.feature_class == "P"]
        admin = [e for e in self._entries.values() if e.feature_class == "A"]
        self._admin1 = {
            (e.country_code, e.admin1_code): e for e in admin if e.feature_code == "ADM1"
        }
        self._countries = {e.country_code: e for e in admin if e.feature_code == "PCLI"}
        self._names = _name_index(self._places)
        self._country_names = _name_index(self._countries.values())
        self._postal = list(postal)
        self._place_targets = PointSet([e.point for e in self._places])
        self._postal_targets = PointSet([p.point for p in self._postal])

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def postal_entries(self) -> list[PostalCodeEntry]:
        return list(self._postal)

    @property
    def place_entries(self) -> list[GazetteerEntry]:
        return list(self._places)

    def entry(self, geoname_id: int) -> GazetteerEntry | None:
        return self._entries.get(geoname_id)

    def entries_named(self, name: str) -> list[GazetteerEntry]:
        """Populated places matching a name/alias, case-insensitively."""
        return list(self._names.get(name.lower(), ()))

    def country_named(self, name: str) -> GazetteerEntry | None:
        matches = self._country_names.get(name.lower(), ())
        return matches[0] if len(matches) == 1 else None

    def admin1_of(self, entry: GazetteerEntry) -> GazetteerEntry | None:
        return self._admin1.get((entry.country_code, entry.admin1_code))

    def country_of(self, country_code: str) -> GazetteerEntry | None:
        return self._countries.get(country_code)

    def nearest_place(self, p: GeoPoint, max_km: float) -> tuple[GazetteerEntry, float] | None:
        """Nearest populated place within max_km; ties keep the first loaded."""
        found = self._place_targets.nearest(p, max_km)
        return (self._places[found[0]], found[1]) if found else None

    def nearest_postal(self, p: GeoPoint, max_km: float) -> tuple[PostalCodeEntry, float] | None:
        found = self._postal_targets.nearest(p, max_km)
        return (self._postal[found[0]], found[1]) if found else None


def _rows(text: str, ncols: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each non-blank line, which must have ncols columns.

    Lines end at LF only, with a CR before it dropped: a name may hold U+2028,
    U+0085, a form feed or another character that str.splitlines breaks at.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != ncols:
            raise InputFormatError(lineno, f"expected {ncols} columns, got {len(cols)}")
        yield lineno, cols


def _number(lineno: int, text: str, kind: type, what: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise InputFormatError(lineno, f"bad {what}: {text!r}") from exc


def _point(lineno: int, lat: str, lon: str) -> GeoPoint:
    """The GeoPoint of a row's latitude and longitude columns."""
    lat_deg = _number(lineno, lat, float, "latitude")
    lon_deg = _number(lineno, lon, float, "longitude")
    try:
        return GeoPoint(lat_deg, lon_deg)
    except OutOfRangeError as exc:
        raise InputFormatError(lineno, str(exc)) from exc


def _places(text: str, shared: dict[str, str]) -> dict[int, tuple]:
    """geonameid -> the GazetteerEntry fields after it, alternate names still a list."""
    places: dict[int, tuple] = {}
    one = shared.setdefault
    for lineno, cols in _rows(text, 10):
        gid = _number(lineno, cols[0], int, "geonameid")
        feature_class = cols[6].strip()
        if feature_class not in ("P", "A"):
            continue
        point = _point(lineno, cols[4], cols[5])
        if gid in places:
            raise InputFormatError(lineno, f"duplicate geonameid {gid}")
        aliases = [("", a.strip()) for a in cols[3].split(",") if a.strip()]
        name, ascii_name = cols[1].strip(), cols[2].strip()
        feature_code, country_code, admin1_code = cols[7].strip(), cols[8].strip(), cols[9].strip()
        places[gid] = (name, name if ascii_name == name else ascii_name, aliases, point,
                       feature_class, one(feature_code, feature_code),
                       one(country_code, country_code), one(admin1_code, admin1_code))
    return places


def _add_alternate_names(places: dict[int, tuple], text: str, shared: dict[str, str]) -> None:
    for lineno, cols in _rows(text, 4):
        gid = _number(lineno, cols[1], int, "geonameid")
        if gid in places:
            lang = cols[2].strip()
            places[gid][2].append((shared.setdefault(lang, lang), cols[3].strip()))


def _postal_codes(text: str, shared: dict[str, str]) -> list[PostalCodeEntry]:
    postal = []
    for lineno, cols in _rows(text, 5):
        if not cols[1].strip():
            raise InputFormatError(lineno, "empty postal code")
        point = _point(lineno, cols[3], cols[4])
        country = cols[0].strip()
        postal.append(PostalCodeEntry(shared.setdefault(country, country), cols[1].strip(),
                                      cols[2].strip(), point))
    return postal


def load_gazetteer(place_file: str | Path, alt_names_file: str | Path, postal_file: str | Path) -> GazetteerIndex:
    """Load the three tab-separated gazetteer files into an index.

    Place file columns: geonameid, name, asciiname, alternatenames
    (comma-joined), latitude, longitude, feature_class, feature_code,
    country_code, admin1_code. Rows whose feature class is neither P nor A
    are skipped. Alternate-names file columns: alternateNameId, geonameid,
    isolanguage, alternate_name (rows for unknown ids are ignored). Postal
    file columns: country_code, postal_code, place_name, latitude,
    longitude. Blank lines are allowed everywhere. Lines end at LF or CRLF
    only, so a name may hold any other character, U+2028 included.
    """
    shared: dict[str, str] = {}  # each code read by this load -> its one string object
    places = parse_file(place_file, lambda text: _places(text, shared))
    parse_file(alt_names_file, lambda text: _add_alternate_names(places, text, shared))
    postal = parse_file(postal_file, lambda text: _postal_codes(text, shared))
    return GazetteerIndex(
        (
            GazetteerEntry(gid, name, ascii_name, tuple(aliases), *rest)
            for gid, (name, ascii_name, aliases, *rest) in places.items()
        ),
        postal,
    )


def _ref_for(entry: GazetteerEntry) -> GazetteerRef:
    return GazetteerRef(entry.geoname_id, entry.name)


def lookup_city_by_name(
    index: GazetteerIndex, name: str, hint: GeoPoint | None = None
) -> GazetteerRef | None:
    """Resolve a cleaned city name against populated-place entries.

    Matches name, ascii name and alternate names case-insensitively. An
    ambiguous name resolves to the entry nearest the hint point, or to
    nothing when no hint is given.
    """
    matches = index.entries_named(name)
    if not matches:
        return None
    if len(matches) == 1:
        return _ref_for(matches[0])
    if hint is None:
        return None
    best = min(matches, key=lambda e: (haversine_km(hint, e.point), e.geoname_id))
    return _ref_for(best)


def reverse_geocode(index: GazetteerIndex, p: GeoPoint, max_km: float) -> GazetteerRef | None:
    """Nearest populated place within max_km of p, or nothing."""
    found = index.nearest_place(p, max_km)
    return _ref_for(found[0]) if found else None


def postal_code_for(index: GazetteerIndex, p: GeoPoint, max_km: float) -> str | None:
    """Postal code of the nearest postal centroid within max_km, or nothing."""
    found = index.nearest_postal(p, max_km)
    return found[0].postal_code if found else None


def alternate_names_for(
    index: GazetteerIndex, geoname_id: int, langs: set[str] | frozenset[str]
) -> dict[str, str]:
    """One name per requested language, when the index has it."""
    if not langs:
        raise ValueError("langs must be non-empty")
    entry = index.entry(geoname_id)
    if entry is None:
        raise UnknownGeonameIdError(geoname_id)
    out: dict[str, str] = {}
    for lang, name in entry.alternate_names:
        if lang in langs and lang not in out:
            out[lang] = name
    return out


@dataclass(frozen=True, slots=True)
class EnrichmentConfig:
    languages: tuple[str, ...] = ("en", "uk", "nl", "fr")
    reverse_max_km: float = 30.0
    postal_max_km: float = 15.0

    def __post_init__(self):
        if not (self.reverse_max_km > 0 and self.postal_max_km > 0):  # also rejects NaN
            raise ValueError("search radii must be positive")
        if not self.languages:
            raise ValueError("languages must be non-empty")
        if not all(map(is_language_code, self.languages)):
            codes = ",".join(self.languages)
            raise ValueError(f"language codes must be two lowercase letters: {codes!r}")


REVERSE_GEOCODED_NOTE = "provenance: city resolved by reverse geocoding"


def _override(index: GazetteerIndex, overrides: OverrideTable, name: str | None) -> GazetteerRef | None:
    """The override for a place name, under the index's name for it when indexed."""
    gid = resolve_override(overrides, name) if name else None
    if gid is None:
        return None
    e = index.entry(gid)
    return GazetteerRef(gid, e.name if e else name)


def enrich_event(
    index: GazetteerIndex,
    overrides: OverrideTable,
    ev: Event,
    cfg: EnrichmentConfig = EnrichmentConfig(),
) -> Event:
    """Fill country/city/province refs, postal code and city labels.

    Resolution precedence per field: override table, then name lookup with
    the event point as hint, then reverse geocoding from the point. Fields
    already resolved to a ref are never overwritten, which also makes the
    whole function idempotent. When a city *string* was present but only
    reverse geocoding resolved it (villages, neighborhoods, free-form
    names), a provenance note is appended to the comments.
    """
    city_ref = ev.city
    notes: list[str] = []
    reverse_scanned = False

    if city_ref is None:
        city_ref = _override(index, overrides, ev.city_name)
        if city_ref is None and ev.city_name:
            city_ref = lookup_city_by_name(index, ev.city_name, hint=ev.point)
        if city_ref is None:
            reverse_scanned = True
            city_ref = reverse_geocode(index, ev.point, cfg.reverse_max_km)
            if city_ref is not None and ev.city_name:
                notes.append(REVERSE_GEOCODED_NOTE)
    city_entry = index.entry(city_ref.geoname_id) if city_ref else None

    province_ref = ev.province
    if province_ref is None:
        province_ref = _override(index, overrides, ev.province_name)
        if province_ref is None and city_entry is not None and (adm := index.admin1_of(city_entry)):
            province_ref = _ref_for(adm)

    country_ref = ev.country
    if country_ref is None:
        country_ref = _override(index, overrides, ev.country_name)
        if country_ref is None and ev.country_name and (e := index.country_named(ev.country_name)):
            country_ref = _ref_for(e)
        if country_ref is None:
            anchor = city_entry
            # a reverse scan that found nothing would find nothing again
            if anchor is None and not reverse_scanned:
                near = index.nearest_place(ev.point, cfg.reverse_max_km)
                anchor = near[0] if near else None
            country_entry = index.country_of(anchor.country_code) if anchor is not None else None
            if country_entry is not None:
                country_ref = _ref_for(country_entry)

    postal = ev.postal_code
    if postal is None:
        postal = postal_code_for(index, ev.point, cfg.postal_max_km)

    labels = dict(ev.city_labels)
    if city_entry is not None:
        fetched = alternate_names_for(index, city_entry.geoname_id, set(cfg.languages))
        for lang, name in fetched.items():
            labels.setdefault(lang, name)

    return replace(
        ev,
        country=country_ref,
        city=city_ref,
        province=province_ref,
        country_name=None if country_ref is not None else ev.country_name,
        city_name=None if city_ref is not None else ev.city_name,
        province_name=None if province_ref is not None else ev.province_name,
        postal_code=postal,
        city_labels=labels,
        comments=ev.comments + tuple(notes),
    )


_STAT_FIELDS = ("country", "city", "province", "postal_code", "labels")


@dataclass
class EnrichmentStats:
    total: int = 0
    resolved: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_STAT_FIELDS, 0))
    unresolved: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_STAT_FIELDS, 0))


def enrich_events(
    index: GazetteerIndex,
    overrides: OverrideTable,
    events: Iterable[Event],
    cfg: EnrichmentConfig = EnrichmentConfig(),
) -> tuple[list[Event], EnrichmentStats]:
    """Enrich a batch and count which fields resolved. Best-effort per event."""
    stats = EnrichmentStats()
    out = []
    for ev in events:
        enriched = enrich_event(index, overrides, ev, cfg)
        stats.total += 1
        values = (enriched.country, enriched.city, enriched.province, enriched.postal_code,
                  enriched.city_labels or None)
        for fname, value in zip(_STAT_FIELDS, values):
            (stats.resolved if value is not None else stats.unresolved)[fname] += 1
        out.append(enriched)
    return out, stats
