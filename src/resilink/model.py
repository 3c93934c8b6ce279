"""Shared domain types for the damage-event pipeline.

Everything defined here is immutable after construction and safe to share
across concurrent workers. The canonical normalized-event JSON produced by
:func:`events_to_json` is the hand-off format between pipeline stages
(ingest -> enrich -> convert/integrate); its key set is part of the public
contract and is documented in the README.

Every stage and the GeoNames client read an input's bytes through one reader
per format, which decodes them with :func:`decode_utf8`. Two are here:
:func:`csv_rows` for CSV and :func:`json_document` for JSON.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import itertools
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Iterable, Iterator, Mapping
from urllib.parse import urlsplit


class ResilinkError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(ResilinkError):
    """A data error at a line of an input file."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# The longest wait, a timeout or a pause between requests, that the program accepts:
# time.sleep() and socket timeouts overflow on far larger values.
MAX_WAIT_S = 3600.0


def decode_utf8(data: bytes, line: int = 1) -> str:
    """The text of UTF-8 bytes that start at the given line of their file.

    Invalid UTF-8 is an error at that line plus the LFs before the bad byte.
    On line 1, one leading byte order mark (U+FEFF) is dropped; elsewhere it is text.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(data.count(b"\n", 0, exc.start) + line, "invalid UTF-8") from exc
    return text.removeprefix("\ufeff") if line == 1 else text


def json_document(data: bytes, what: str, top: type[list] | type[dict]) -> list | dict:
    """The JSON value of UTF-8 bytes, which must be an array (top is list) or an object (top is dict).

    The bytes are decoded by decode_utf8. A syntax error is json's own JSONDecodeError,
    with its line and column; nesting too deep for the parser, a name given twice
    in one object and a value of another type are ValueErrors that name what the
    document is.
    """
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            name = next(n for n, count in Counter(n for n, _ in pairs).items() if count > 1)
            raise ValueError(f"{what} gives the name {name!r} twice in one object")
        return obj

    try:
        value = json.loads(decode_utf8(data), object_pairs_hook=unique)
    except RecursionError as exc:
        raise ValueError(f"{what} is nested too deeply") from exc
    if not isinstance(value, top):
        raise ValueError(f"{what} must be a JSON {'array' if top is list else 'object'}")
    return value


def csv_rows(data: bytes) -> Iterator[tuple[int, list[str]]]:
    """(line, row) of the first row of CSV bytes, blank or not, then of each non-blank row.

    Lines end at LF, CRLF or a lone CR, as the csv module's do, and are decoded one by one,
    so invalid UTF-8, a csv error and a row are all named by the reader's count of lines.
    """
    reader = csv.reader(
        decode_utf8(line, n) for n, line in enumerate(data.splitlines(keepends=True), 1)
    )
    try:
        for row in reader:
            if row or reader.line_num == 1:
                yield reader.line_num, row
    except csv.Error as exc:
        raise InputFormatError(reader.line_num, str(exc)) from exc


@contextlib.contextmanager
def input_file(path: str | Path) -> Iterator[BinaryIO]:
    """The file at path, open for binary reading; a data error in the block gets the path in front."""
    try:
        with open(path, "rb") as fp:
            yield fp
    except (ResilinkError, ValueError) as exc:
        raise ResilinkError(f"{path}: {exc}") from exc


def parse_file(path: str | Path, parse):
    """parse(the bytes of the file at path), with the path in front of a data error's message.

    The bytes go to parse alone, to decode, so they are freed as soon as parse lets go of them.
    """
    with input_file(path) as fp:
        return parse(fp.read())


class OutOfRangeError(ResilinkError):
    """A coordinate axis fell outside its legal interval."""

    def __init__(self, axis: str, value: float):
        self.axis = axis
        self.value = value
        super().__init__(f"{axis} out of range: {value!r}")


class MalformedDateError(ResilinkError):
    """Input text is not an ISO-8601 date or date-time."""


class InvalidDateError(ResilinkError):
    """Input parses as a date but does not exist in the Gregorian calendar."""


class Dataset(str, Enum):
    """The two supported source datasets."""

    EOR = "eor"
    CH = "ch"


# (dataset, local id) uniquely identifies an event across the merged corpus;
# local ids are only unique within one dataset.
EventKey = tuple[Dataset, str]


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (-90.0 <= self.latitude <= 90.0):
            raise OutOfRangeError("latitude", self.latitude)
        if not (-180.0 <= self.longitude <= 180.0):
            raise OutOfRangeError("longitude", self.longitude)


def validate_point(lat: float, lon: float) -> GeoPoint:
    """Build a GeoPoint, rejecting out-of-range values.

    Raises OutOfRangeError naming the offending axis. Boundaries are
    inclusive: (-90, 180) is valid.
    """
    return GeoPoint(float(lat), float(lon))


# A calendar day with no time-of-day component; its month bucket is
# ``isoformat()[:7]``, since ``strftime("%Y-%m")`` leaves years below 1000 unpadded.
CivilDate = datetime.date


_ISO_DATE_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})"
    r"(?:[T ]\d{2}:\d{2}(?::\d{2}(?:\.\d+)?)?(?:Z|[+-]\d{2}:?(?:\d{2})?)?)?$"
)


def parse_civil_date(s: str) -> CivilDate:
    """Parse an ISO-8601 date or date-time, keeping only the calendar day.

    Any time-of-day component (including 00:00:00 and timezone designators)
    is discarded; source timestamps are frequently defaulted to midnight, so
    the day is the only trustworthy part.
    """
    m = _ISO_DATE_RE.match(s.strip())
    if m is None:
        raise MalformedDateError(f"not an ISO-8601 date: {s!r}")
    year, month, day = map(int, m.groups())
    try:
        return CivilDate(year, month, day)
    except ValueError as exc:
        raise InvalidDateError(f"not a real calendar date: {year}-{month}-{day}") from exc


_GEONAMES_IRI_RE = re.compile(r"http://sws\.geonames\.org/([0-9]+)/")


@dataclass(frozen=True, slots=True)
class GazetteerRef:
    """A resolved place: a stable gazetteer id plus its preferred name."""

    geoname_id: int
    preferred_name: str = ""

    def __post_init__(self):
        if self.geoname_id <= 0:
            raise ValueError(f"geoname_id must be positive: {self.geoname_id}")

    @property
    def iri(self) -> str:
        return f"http://sws.geonames.org/{self.geoname_id}/"

    @classmethod
    def from_iri(cls, iri: str, preferred_name: str = "") -> GazetteerRef:
        m = _GEONAMES_IRI_RE.fullmatch(iri)
        if m is None:
            raise ValueError(f"not a GeoNames IRI: {iri!r}")
        return cls(int(m.group(1)), preferred_name)


# The one IRI grammar: absolute, with a body that fits an N-Triples IRIREF
# (https://www.w3.org/TR/n-triples/). rdf.py percent-encodes source URLs
# into it and holds each IRI it reads to it.
IRI_BODY = r'[^<>"{}|^`\\\x00-\x20]*'
ABSOLUTE_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:" + IRI_BODY)


def check_iri(value: str) -> None:
    if ABSOLUTE_IRI_RE.fullmatch(value) is None:
        raise ValueError(f"IRI must be absolute and N-Triples-safe: {value!r}")


_LANG_RE = re.compile(r"[a-z]{2}")


def is_language_code(text: str) -> bool:
    """Whether text is a language code as city labels are keyed: two lowercase letters."""
    return _LANG_RE.fullmatch(text) is not None


def _is_absolute_url(u: str) -> bool:
    # urlsplit strips leading C0 controls and spaces and deletes tabs and
    # newlines before it looks for the scheme; a URL is taken only when the
    # string as given holds "://" and the netloc right after the scheme.
    parts = urlsplit(u)
    return bool(parts.scheme) and bool(parts.netloc) and u[len(parts.scheme):].startswith("://" + parts.netloc)


@dataclass(frozen=True, slots=True)
class Event:
    """One normalized damage-event record.

    ``date`` and ``point`` are always present after normalization. The
    ``country``/``city``/``province`` refs are filled by enrichment; until
    then the corresponding ``*_name`` fields may carry cleaned source
    strings for name-based resolution. ``comments`` holds non-generic
    source fields such as the violence level.
    """

    id: str
    dataset: Dataset
    date: CivilDate
    point: GeoPoint
    description: str | None = None
    country: GazetteerRef | None = None
    city: GazetteerRef | None = None
    province: GazetteerRef | None = None
    country_name: str | None = None
    city_name: str | None = None
    province_name: str | None = None
    postal_code: str | None = None
    source_urls: tuple[str, ...] = ()
    comments: tuple[str, ...] = ()
    city_labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("event id must be non-empty")
        # each URL and comment once, in first-seen order, as the .nt's triple set holds them
        object.__setattr__(self, "source_urls", tuple(dict.fromkeys(self.source_urls)))
        object.__setattr__(self, "comments", tuple(dict.fromkeys(self.comments)))
        for c in self.comments:
            if not c:
                raise ValueError("comments must not contain empty strings")
        for u in self.source_urls:
            if not _is_absolute_url(u):
                raise ValueError(f"source URL is not absolute: {u!r}")
        for lang in self.city_labels:
            if not is_language_code(lang):
                raise ValueError(f"label language must be two lowercase letters: {lang!r}")
        object.__setattr__(self, "city_labels", MappingProxyType(dict(self.city_labels)))

    @property
    def key(self) -> EventKey:
        return (self.dataset, self.id)


def events_by_key(events: Iterable[Event]) -> dict[EventKey, Event]:
    """The events by (dataset, id); two events with one key are an error."""
    by_key: dict[EventKey, Event] = {}
    for ev in events:
        if by_key.setdefault(ev.key, ev) is not ev:
            raise ValueError(f"duplicate {ev.dataset.value} event id: {ev.id!r}")
    return by_key


def content_event_id(
    dataset: Dataset, date: CivilDate, point: GeoPoint, description: str | None
) -> str:
    """Deterministic fallback id for source records without a stable native id."""
    payload = "|".join(
        (dataset.value, date.isoformat(), repr(point.latitude), repr(point.longitude), description or "")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class AggregateEvent:
    """A minted event node grouping 1 or 2 matched source events.

    ``primary`` designates the member with richer information; every
    aggregate carries one, including singletons.
    """

    iri: str
    members: tuple[EventKey, ...]
    primary: EventKey

    def __post_init__(self):
        check_iri(self.iri)
        object.__setattr__(self, "members", tuple(self.members))
        if not 1 <= len(self.members) <= 2:
            raise ValueError("aggregate must have 1 or 2 members")
        if self.primary not in self.members:
            raise ValueError("primary must be one of the members")
        if len(self.members) == 2 and self.members[0][0] == self.members[1][0]:
            raise ValueError("paired members must come from distinct datasets")


# ---------------------------------------------------------------------------
# Canonical normalized-event JSON

def event_to_dict(ev: Event) -> dict:
    """Render one event as a canonical JSON object (optional fields omitted)."""
    d: dict = {
        "id": ev.id,
        "dataset": ev.dataset.value,
        "date": ev.date.isoformat(),
    }
    if ev.description is not None:
        d["description"] = ev.description
    d["lat"] = ev.point.latitude
    d["lon"] = ev.point.longitude
    for name, ref, raw in (
        ("country", ev.country, ev.country_name),
        ("city", ev.city, ev.city_name),
        ("province", ev.province, ev.province_name),
    ):
        if ref is not None:
            d[f"{name}_geoname_id"] = ref.geoname_id
            if ref.preferred_name:
                d[f"{name}_name"] = ref.preferred_name
        elif raw is not None:
            d[f"{name}_name"] = raw
    if ev.postal_code is not None:
        d["postal_code"] = ev.postal_code
    if ev.source_urls:
        d["source_urls"] = list(ev.source_urls)
    if ev.comments:
        d["comments"] = list(ev.comments)
    if ev.city_labels:
        d["city_labels"] = dict(sorted(ev.city_labels.items()))
    return d


# The JSON type of each canonical key, as (what it must be, test); the README lists them too.
# Only JSON values reach the tests, so type() is exact and keeps true and false out of numbers;
# an integer beyond the float range is not a number either, as float() cannot take it.
_STRING = ("a string", lambda v: type(v) is str)
_NUMBER = ("a number", lambda v: type(v) is float or type(v) is int and abs(v) <= sys.float_info.max)
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
_GEONAME_ID = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_PLACES = ("country", "city", "province")
_KEY_TYPES = {
    "id": _STRING, "dataset": _STRING, "date": _STRING, "lat": _NUMBER, "lon": _NUMBER,
    "description": _STRING, "postal_code": _STRING, "source_urls": _STRINGS, "comments": _STRINGS,
    "city_labels": ("an object of strings",
                    lambda v: type(v) is dict and all(type(s) is str for s in v.values())),
    **{f"{place}_geoname_id": _GEONAME_ID for place in _PLACES},
    **{f"{place}_name": _STRING for place in _PLACES},
}
_REQUIRED_KEYS = ("id", "dataset", "date", "lat", "lon")


def event_from_dict(d: Mapping) -> Event:
    """Inverse of :func:`event_to_dict`. Unknown keys are ignored.

    Each canonical key must hold its JSON type; an optional key may also be
    null, which reads as absent. A ValueError names the key at fault.
    """
    if not isinstance(d, Mapping):
        raise ValueError("not a JSON object")
    for key, (what, fits) in _KEY_TYPES.items():
        value = d.get(key)
        if value is None and key in _REQUIRED_KEYS:
            raise ValueError(f"{key!r} is missing" if key not in d else f"{key!r} must be {what}")
        if value is not None and not fits(value):
            raise ValueError(f"{key!r} must be {what}")

    def _ref(name: str) -> tuple[GazetteerRef | None, str | None]:
        gid = d.get(f"{name}_geoname_id")
        raw = d.get(f"{name}_name")
        if gid is not None:
            return GazetteerRef(gid, raw or ""), None
        return None, raw

    country, country_name = _ref("country")
    city, city_name = _ref("city")
    province, province_name = _ref("province")
    return Event(
        id=d["id"],
        dataset=Dataset(d["dataset"]),
        date=parse_civil_date(d["date"]),
        point=validate_point(d["lat"], d["lon"]),
        description=d.get("description"),
        country=country,
        city=city,
        province=province,
        country_name=country_name,
        city_name=city_name,
        province_name=province_name,
        postal_code=d.get("postal_code"),
        source_urls=tuple(d.get("source_urls") or ()),
        comments=tuple(d.get("comments") or ()),
        city_labels=d.get("city_labels") or {},
    )


_EVENTS_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)


def events_to_json(events: Iterable[Event]) -> str:
    """The events as a canonical JSON array (the stage hand-off file, less its final newline).

    The text is json.dumps(..., ensure_ascii=False, indent=2) of the event
    dicts. The indented encoder yields a few small strings per value; they
    are joined a batch at a time, so no list of them all is held.
    """
    chunks = _EVENTS_ENCODER.iterencode([event_to_dict(e) for e in events])
    batches = []
    while batch := list(itertools.islice(chunks, 4096)):
        batches.append("".join(batch))
    return "".join(batches)


def events_from_json(data: bytes) -> list[Event]:
    events = []
    for i, obj in enumerate(json_document(data, "canonical event JSON", list)):
        try:
            events.append(event_from_dict(obj))
        except (ResilinkError, ValueError) as exc:
            raise ValueError(f"canonical event JSON entry {i}: {exc}") from exc
    return events
