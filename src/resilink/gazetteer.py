"""Offline gazetteer: resolve names and coordinates to stable place ids.

The index is loaded from three tab-separated files (a place file, an
alternate-names file, a postal-code file; the column layouts are given in
the loader docstrings) and is read-only afterwards, so one index can be
shared by any number of worker threads.

Every nearest-neighbour query goes through ``PointSet``: candidates are the
targets whose unit-vector dot with the query is within ``NEAREST_DOT_EPS``
of the largest, and ``haversine_km`` over them in index order keeps the
first strict minimum. A dot is ``1 - 2h`` for haversine's ``h``, and both
carry an absolute float error of a few 1e-16, so a target no farther than
the top-dot one has a dot within ~1e-15 of the top, well inside 1e-12:
results equal a linear haversine scan bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .ingest import clean_location_string
from .model import Event, GazetteerRef, GeoPoint, ResilinkError

EARTH_RADIUS_KM = 6371.0


class GazetteerFormatError(ResilinkError):
    def __init__(self, path: str | Path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PostalCodeEntry:
    country_code: str
    postal_code: str
    place_name: str
    point: GeoPoint

    def __post_init__(self):
        if not self.postal_code:
            raise ValueError("postal_code must be non-empty")


@dataclass(frozen=True)
class OverrideTable:
    """Manual corrections: misspelled/variant name -> canonical geoname id."""

    mapping: Mapping[str, int]

    def __post_init__(self):
        try:
            cleaned = {clean_location_string(k): int(v) for k, v in self.mapping.items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"override table values must be geoname ids: {exc}") from exc
        object.__setattr__(self, "mapping", cleaned)

    @classmethod
    def from_json(cls, text: str | bytes) -> OverrideTable:
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("override table JSON is nested too deeply") from exc
        if not isinstance(data, dict):
            raise ValueError("override table must be a JSON object of name -> geoname id")
        return cls(mapping=data)


EMPTY_OVERRIDES = OverrideTable(mapping={})


def resolve_override(table: OverrideTable, name: str) -> int | None:
    """Exact-match override lookup after whitespace cleaning."""
    return table.mapping.get(clean_location_string(name))


NEAREST_DOT_EPS = 1e-12


class PointSet:
    """Fixed targets answering exact nearest-neighbour queries."""

    def __init__(self, points: Sequence[GeoPoint]):
        import numpy as np  # imported here so commands without nearest-neighbour queries skip it

        self._points = list(points)
        lat = np.radians([p.latitude for p in self._points])
        lon = np.radians([p.longitude for p in self._points])
        self._xyz = np.stack((np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)))

    def nearest(self, p: GeoPoint) -> tuple[int, float] | None:
        """Index and haversine km of the nearest target; ties keep the lowest index."""
        if not self._points:
            return None
        import numpy as np

        phi, lam = math.radians(p.latitude), math.radians(p.longitude)
        q = np.array((math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)))
        dots = q @ self._xyz
        best = None
        for i in np.flatnonzero(dots >= dots.max() - NEAREST_DOT_EPS).tolist():
            d = haversine_km(p, self._points[i])
            if best is None or d < best[1]:
                best = (i, d)
        return best


class GazetteerIndex:
    """Immutable lookup structure over place, alternate-name and postal data."""

    def __init__(self, entries: Iterable[GazetteerEntry], postal: Iterable[PostalCodeEntry]):
        self._entries: dict[int, GazetteerEntry] = {}
        for e in entries:
            if e.geoname_id in self._entries:
                raise ValueError(f"duplicate geoname id: {e.geoname_id}")
            self._entries[e.geoname_id] = e
        self._places = [e for e in self._entries.values() if e.feature_class == "P"]
        self._admin1 = {
            (e.country_code, e.admin1_code): e
            for e in self._entries.values()
            if e.feature_class == "A" and e.feature_code == "ADM1"
        }
        self._countries = {
            e.country_code: e
            for e in self._entries.values()
            if e.feature_class == "A" and e.feature_code == "PCLI"
        }
        self._names: dict[str, list[GazetteerEntry]] = {}
        for e in self._places:
            seen = set()
            for n in (e.name, e.ascii_name, *(a[1] for a in e.alternate_names)):
                k = n.lower()
                if k and k not in seen:
                    seen.add(k)
                    self._names.setdefault(k, []).append(e)
        self._country_names: dict[str, list[GazetteerEntry]] = {}
        for e in self._countries.values():
            seen = set()
            for n in (e.name, e.ascii_name, *(a[1] for a in e.alternate_names)):
                k = n.lower()
                if k and k not in seen:
                    seen.add(k)
                    self._country_names.setdefault(k, []).append(e)
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
        found = self._place_targets.nearest(p)
        if found is None or found[1] > max_km:
            return None
        return self._places[found[0]], found[1]

    def nearest_postal(self, p: GeoPoint, max_km: float) -> tuple[PostalCodeEntry, float] | None:
        found = self._postal_targets.nearest(p)
        if found is None or found[1] > max_km:
            return None
        return self._postal[found[0]], found[1]


def _split_columns(path: Path, lineno: int, line: str, expected: int) -> list[str]:
    cols = line.split("\t")
    if len(cols) != expected:
        raise GazetteerFormatError(path, lineno, f"expected {expected} columns, got {len(cols)}")
    return cols


def _parse_float(path: Path, lineno: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise GazetteerFormatError(path, lineno, f"bad {what}: {text!r}") from exc


def load_gazetteer(place_file: str | Path, alt_names_file: str | Path, postal_file: str | Path) -> GazetteerIndex:
    """Load the three tab-separated gazetteer files into an index.

    Place file columns: geonameid, name, asciiname, alternatenames
    (comma-joined), latitude, longitude, feature_class, feature_code,
    country_code, admin1_code. Rows whose feature class is neither P nor A
    are skipped. Alternate-names file columns: alternateNameId, geonameid,
    isolanguage, alternate_name (rows for unknown ids are ignored). Postal
    file columns: country_code, postal_code, place_name, latitude,
    longitude. Blank lines are allowed everywhere.
    """
    place_file, alt_names_file, postal_file = Path(place_file), Path(alt_names_file), Path(postal_file)

    raw_places: dict[int, dict] = {}
    order: list[int] = []
    for lineno, line in enumerate(place_file.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        cols = _split_columns(place_file, lineno, line, 10)
        try:
            gid = int(cols[0])
        except ValueError as exc:
            raise GazetteerFormatError(place_file, lineno, f"bad geonameid: {cols[0]!r}") from exc
        feature_class = cols[6].strip()
        if feature_class not in ("P", "A"):
            continue
        lat = _parse_float(place_file, lineno, cols[4], "latitude")
        lon = _parse_float(place_file, lineno, cols[5], "longitude")
        aliases = tuple(("", a.strip()) for a in cols[3].split(",") if a.strip())
        if gid in raw_places:
            raise GazetteerFormatError(place_file, lineno, f"duplicate geonameid {gid}")
        raw_places[gid] = {
            "geoname_id": gid,
            "name": cols[1].strip(),
            "ascii_name": cols[2].strip(),
            "alternate_names": list(aliases),
            "point": GeoPoint(lat, lon),
            "feature_class": feature_class,
            "feature_code": cols[7].strip(),
            "country_code": cols[8].strip(),
            "admin1_code": cols[9].strip(),
        }
        order.append(gid)

    for lineno, line in enumerate(alt_names_file.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        cols = _split_columns(alt_names_file, lineno, line, 4)
        try:
            gid = int(cols[1])
        except ValueError as exc:
            raise GazetteerFormatError(alt_names_file, lineno, f"bad geonameid: {cols[1]!r}") from exc
        if gid not in raw_places:
            continue
        raw_places[gid]["alternate_names"].append((cols[2].strip(), cols[3].strip()))

    postal_entries = []
    for lineno, line in enumerate(postal_file.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        cols = _split_columns(postal_file, lineno, line, 5)
        if not cols[1].strip():
            raise GazetteerFormatError(postal_file, lineno, "empty postal code")
        lat = _parse_float(postal_file, lineno, cols[3], "latitude")
        lon = _parse_float(postal_file, lineno, cols[4], "longitude")
        postal_entries.append(
            PostalCodeEntry(
                country_code=cols[0].strip(),
                postal_code=cols[1].strip(),
                place_name=cols[2].strip(),
                point=GeoPoint(lat, lon),
            )
        )

    entries = []
    for gid in order:
        raw = raw_places[gid]
        raw["alternate_names"] = tuple(raw["alternate_names"])
        entries.append(GazetteerEntry(**raw))
    return GazetteerIndex(entries, postal_entries)


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
    if max_km <= 0:
        raise ValueError("max_km must be positive")
    found = index.nearest_place(p, max_km)
    return _ref_for(found[0]) if found else None


def postal_code_for(index: GazetteerIndex, p: GeoPoint, max_km: float) -> str | None:
    """Postal code of the nearest postal centroid within max_km, or nothing."""
    if max_km <= 0:
        raise ValueError("max_km must be positive")
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


@dataclass(frozen=True)
class EnrichmentConfig:
    languages: tuple[str, ...] = ("en", "uk", "nl", "fr")
    reverse_max_km: float = 30.0
    postal_max_km: float = 15.0

    def __post_init__(self):
        if not (self.reverse_max_km > 0 and self.postal_max_km > 0):  # also rejects NaN
            raise ValueError("search radii must be positive")


REVERSE_GEOCODED_NOTE = "provenance: city resolved by reverse geocoding"


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
    city_entry = index.entry(city_ref.geoname_id) if city_ref else None
    notes: list[str] = []
    reverse_scanned = False

    if city_ref is None:
        if ev.city_name:
            gid = resolve_override(overrides, ev.city_name)
            if gid is not None:
                e = index.entry(gid)
                city_ref = GazetteerRef(gid, e.name if e else ev.city_name)
                city_entry = e
            else:
                found = lookup_city_by_name(index, ev.city_name, hint=ev.point)
                if found is not None:
                    city_ref = found
                    city_entry = index.entry(found.geoname_id)
        if city_ref is None:
            reverse_scanned = True
            found = reverse_geocode(index, ev.point, cfg.reverse_max_km)
            if found is not None:
                city_ref = found
                city_entry = index.entry(found.geoname_id)
                if ev.city_name and REVERSE_GEOCODED_NOTE not in ev.comments:
                    notes.append(REVERSE_GEOCODED_NOTE)

    province_ref = ev.province
    if province_ref is None:
        if ev.province_name:
            gid = resolve_override(overrides, ev.province_name)
            if gid is not None:
                e = index.entry(gid)
                province_ref = GazetteerRef(gid, e.name if e else ev.province_name)
        if province_ref is None and city_entry is not None:
            adm = index.admin1_of(city_entry)
            if adm is not None:
                province_ref = _ref_for(adm)

    country_ref = ev.country
    if country_ref is None:
        if ev.country_name:
            gid = resolve_override(overrides, ev.country_name)
            if gid is not None:
                e = index.entry(gid)
                country_ref = GazetteerRef(gid, e.name if e else ev.country_name)
            else:
                e = index.country_named(ev.country_name)
                if e is not None:
                    country_ref = _ref_for(e)
        if country_ref is None:
            anchor = city_entry
            # a reverse scan that found nothing would find nothing again
            if anchor is None and not reverse_scanned:
                near = index.nearest_place(ev.point, cfg.reverse_max_km)
                anchor = near[0] if near else None
            if anchor is not None:
                country_entry = index.country_of(anchor.country_code)
                if country_entry is not None:
                    country_ref = _ref_for(country_entry)

    postal = ev.postal_code
    if postal is None:
        postal = postal_code_for(index, ev.point, cfg.postal_max_km)

    labels = dict(ev.city_labels)
    if city_ref is not None and index.entry(city_ref.geoname_id) is not None:
        fetched = alternate_names_for(index, city_ref.geoname_id, set(cfg.languages))
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


@dataclass
class EnrichmentStats:
    total: int = 0
    resolved: dict[str, int] | None = None
    unresolved: dict[str, int] | None = None

    def __post_init__(self):
        fields = ("country", "city", "province", "postal_code", "labels")
        if self.resolved is None:
            self.resolved = {f: 0 for f in fields}
        if self.unresolved is None:
            self.unresolved = {f: 0 for f in fields}


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
        for fname, value in (
            ("country", enriched.country),
            ("city", enriched.city),
            ("province", enriched.province),
            ("postal_code", enriched.postal_code),
            ("labels", enriched.city_labels or None),
        ):
            bucket = stats.resolved if value is not None else stats.unresolved
            bucket[fname] += 1
        out.append(enriched)
    return out, stats
