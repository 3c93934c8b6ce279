"""The event-to-triple mapping, serialization, and the N-Triples reader.

The triple mapping (canonical event field -> predicate, object kind,
datatype/language, cardinality) is documented in docs/rdf-mapping.md; the
constants below are the single source of truth for the namespaces it uses.

A triple is written as its N-Triples line and read back as a statement
row. Serialization is byte-deterministic: lines are de-duplicated and
sorted before writing, so identical triple sets always produce identical
files.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import operator
import re
from enum import Enum
from typing import Iterable, Iterator, Sequence
from urllib.parse import quote, unquote

from .model import (
    ABSOLUTE_IRI_RE,
    IRI_BODY,
    AggregateEvent,
    Dataset,
    Event,
    EventKey,
    GazetteerRef,
    InputFormatError,
    ResilinkError,
    check_iri,
    decode_utf8,
    parse_civil_date,
    validate_point,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SDO_NS = "https://schema.org/"
DCT_NS = "http://purl.org/dc/terms/"
SEM_NS = "http://semanticweb.cs.vu.nl/2009/11/sem/"
GEOSPARQL_NS = "http://www.opengis.net/ont/geosparql#"
ONTOLOGY_NS = "https://linked4resilience.eu/ontology/"
EVENT_NS = "https://linked4resilience.eu/event/"

PREFIXES = {
    "dct": DCT_NS,
    "geo": GEOSPARQL_NS,
    "l4r": ONTOLOGY_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "sdo": SDO_NS,
    "sem": SEM_NS,
    "xsd": XSD_NS,
}

WKT_DATATYPE = GEOSPARQL_NS + "wktLiteral"

# The ASCII characters an IRI body forbids, as %XX (RFC 3987 section 3.1).
_IRI_BODY_RE = re.compile(IRI_BODY)
_IRI_PERCENT_ENCODE = {c: f"%{c:02X}" for c in range(0x80) if not _IRI_BODY_RE.fullmatch(chr(c))}

# The N-Triples LANGTAG, which the reader parses.
_LANGUAGE_TAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"


_LITERAL_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04X}" for c in range(0x20)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def render_literal(value: str, language: str | None = None, datatype: str | None = None) -> str:
    """The one term renderer: a literal in its N-Triples form, escaped, then tagged or typed."""
    text = f'"{value.translate(_LITERAL_ESCAPES)}"'
    if language:
        return f"{text}@{language}"
    if datatype:
        return f"{text}^^<{datatype}>"
    return text


def event_iri(dataset: Dataset, event_id: str) -> str:
    """Deterministic event IRI; the local id is percent-encoded."""
    if not event_id:
        raise ValueError("event id must be non-empty")
    return f"{EVENT_NS}{dataset.value}/{quote(event_id, safe='')}"


_EVENT_IRI_RE = re.compile(
    re.escape(EVENT_NS) + r"(eor|ch)/([^/]+)$"
)


def parse_event_iri(iri: str) -> EventKey:
    m = _EVENT_IRI_RE.match(iri)
    if m is None:
        raise ValueError(f"not an event IRI: {iri!r}")
    return (Dataset(m.group(1)), unquote(m.group(2)))


def aggregate_iri(member_iris: Sequence[str]) -> str:
    """Aggregate IRI minted from the hex digest of the sorted member IRIs."""
    digest = hashlib.sha256("\n".join(sorted(member_iris)).encode("utf-8")).hexdigest()
    return f"{EVENT_NS}aggregate/{digest}"


def format_decimal(x: float) -> str:
    """Decimal lexical form with at most 7 fraction digits, zeros trimmed."""
    if x == 0.0:
        x = 0.0  # normalizes -0.0
    text = f"{x:.7f}".rstrip("0").rstrip(".")
    return text if text else "0"


# Every IRI the emitters write is safe by construction, so no line is
# checked again here: event_iri percent-encodes the id, Event requires
# absolute source URLs, which _IRI_PERCENT_ENCODE then encodes,
# GazetteerRef.iri is built from an integer, AggregateEvent checks its IRI,
# and the vocabulary comes from the namespace constants. City-label
# languages pass model.is_language_code. tests/oracles.py holds the
# Term-based emitters these lines are judged against.

def emit_event_triples(ev: Event) -> list[str]:
    """Map one event to its N-Triples lines.

    Always emitted: the type, the typed date, and the location/geo node
    carrying both coordinates. Everything else is conditional on the field
    being present. Location and geo nodes are IRIs derived from the event
    IRI so output is deterministic and joinable.
    """
    iri = event_iri(ev.dataset, ev.id)
    s, loc, geo = f"<{iri}>", f"<{iri}/location>", f"<{iri}/geo>"
    lat, lon = (
        render_literal(format_decimal(x), datatype=XSD_NS + "decimal")
        for x in (ev.point.latitude, ev.point.longitude)
    )
    lines = [
        f"{s} <{RDF_NS}type> <{SEM_NS}Event> .",
        f"{s} <{DCT_NS}date> {render_literal(ev.date.isoformat(), datatype=XSD_NS + 'date')} .",
        f"{s} <{SDO_NS}location> {loc} .",
        f"{loc} <{SDO_NS}geo> {geo} .",
        f"{geo} <{RDF_NS}type> <{SDO_NS}GeoCoordinates> .",
        f"{geo} <{SDO_NS}latitude> {lat} .",
        f"{geo} <{SDO_NS}longitude> {lon} .",
    ]
    if ev.description is not None:
        lines.append(f"{s} <{DCT_NS}description> {render_literal(ev.description)} .")
    for url in ev.source_urls:
        lines.append(f"{s} <{SDO_NS}url> <{url.translate(_IRI_PERCENT_ENCODE)}> .")
    for comment in ev.comments:
        lines.append(f"{s} <{RDFS_NS}comment> {render_literal(comment)} .")
    for lang in sorted(ev.city_labels):
        lines.append(f"{s} <{ONTOLOGY_NS}cityName> {render_literal(ev.city_labels[lang], lang)} .")
    if ev.province is not None and (region := ev.province.preferred_name):
        lines.append(f"{s} <{ONTOLOGY_NS}addressRegion> {render_literal(region)} .")
    for predicate, ref in (
        ("cityGeoNames", ev.city),
        ("provinceGeoNames", ev.province),
        ("countryGeoNames", ev.country),
    ):
        if ref is not None:
            lines.append(f"{s} <{ONTOLOGY_NS}{predicate}> <{ref.iri}> .")
    if ev.postal_code is not None:
        lines.append(f"{s} <{ONTOLOGY_NS}postalCode> {render_literal(ev.postal_code)} .")
    return lines


def emit_aggregate_triples(agg: AggregateEvent) -> list[str]:
    """Type the aggregate and link it to its primary source and members."""
    s = f"<{agg.iri}>"
    return [
        f"{s} <{RDF_NS}type> <{SEM_NS}Event> .",
        f"{s} <{ONTOLOGY_NS}hasPrimarySource> <{event_iri(*agg.primary)}> .",
        *(f"{s} <{ONTOLOGY_NS}hasMember> <{event_iri(*member)}> ." for member in agg.members),
    ]


# ---------------------------------------------------------------------------
# Serialization

_LOCAL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_PREFIX_OF = {ns: prefix for prefix, ns in PREFIXES.items()}


def _turtle_name(ref: str) -> str:
    """An `<iri>` as a prefixed name where one fits, else as given.

    Every namespace ends in '/' or '#' and no local part holds either, so
    an IRI's namespace can only be the IRI up to its last '/' or '#'.
    """
    cut = max(ref.rfind("/"), ref.rfind("#")) + 1
    prefix = _PREFIX_OF.get(ref[1:cut])
    if prefix is not None and _LOCAL_NAME_RE.fullmatch(ref, cut, len(ref) - 1):
        return f"{prefix}:{ref[cut:-1]}"
    return ref


class RdfFormat(str, Enum):
    NTRIPLES = "ntriples"
    TURTLE = "turtle"


# Lines per encoded chunk: the text is encoded a chunk at a time, so no
# str of the whole file exists beside its bytes.
_CHUNK_LINES = 4096


def serialize_bytes(lines: Iterable[str], fmt: RdfFormat = RdfFormat.NTRIPLES) -> bytes:
    """N-Triples lines as UTF-8 bytes, deterministically.

    Both formats are written from the same rows: the lines sorted, then
    de-duplicated, which sorts them by subject, predicate, object. Where one
    term's rendering is a prefix of another's ('"a"' of '"a"@en', '"a"@en'
    of '"a"@en-gb'), the next character ('@', '^', '-', a letter or a
    digit) sorts above the ' ' that ends a term in a line.
    N-Triples: one statement per line.
    Turtle: a single prefix block followed by the rows grouped by subject,
    using prefixed names where possible and `a` for rdf:type. A subject
    ends at a line's first space, since no IRI holds one.

    The lines are sorted into a list of the call's own, and the reference
    to the argument is dropped, so a list handed over with nothing else
    holding it (`serialize_bytes(build_lines())`) is freed then. Each
    _CHUNK_LINES lines are dropped from the sorted list as they are taken
    to be encoded, so a line does not outlive its bytes by more than two
    chunks. A list the caller keeps is left as it was.
    """
    if fmt is not RdfFormat.NTRIPLES and fmt is not RdfFormat.TURTLE:
        raise ValueError(f"unsupported format: {fmt!r}")
    descending = sorted(lines, reverse=True)
    del lines
    # groupby's keys are the distinct lines; C iterators all the way, none resumes Python per line
    rows = map(operator.itemgetter(0),
               itertools.groupby(itertools.chain.from_iterable(_cut_from_the_end(descending))))
    # BytesIO grows its one buffer in place and hands it out without a copy,
    # where b"".join would hold every chunk beside the joined bytes.
    out = io.BytesIO()
    out.writelines(_utf8_chunks(_turtle(rows) if fmt is RdfFormat.TURTLE else rows))
    return out.getvalue()


def _cut_from_the_end(items: list[str]) -> Iterator[list[str]]:
    """The items from the last to the first, in lists of _CHUNK_LINES cut off the list as taken."""
    while items:
        chunk = items[:-_CHUNK_LINES - 1:-1]
        del items[-_CHUNK_LINES:]
        yield chunk


def _utf8_chunks(lines: Iterable[str]) -> Iterator[bytes]:
    """The lines, each followed by a line break, as UTF-8 in chunks of _CHUNK_LINES lines."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        chunk.append("")
        yield "\n".join(chunk).encode("utf-8")


def _turtle(rows: Iterable[str]) -> Iterator[str]:
    """The Turtle text of sorted, distinct N-Triples lines, in pieces."""
    name = functools.cache(_turtle_name)
    rdf_type = f"<{RDF_NS}type>"
    for prefix in sorted(PREFIXES):
        yield f"@prefix {prefix}: <{PREFIXES[prefix]}> ."
    for subject, group in itertools.groupby(rows, key=lambda line: line[:line.index(" ")]):
        statements = []
        for line in group:
            predicate, obj = line[len(subject) + 1:-2].split(" ", 1)
            if obj[0] == "<":
                obj = name(obj)
            elif obj[-1] == ">":  # a typed literal; no IRI holds '^'
                value, _, datatype = obj.rpartition("^^")
                obj = f"{value}^^{name(datatype)}"
            statements.append(f"{'a' if predicate == rdf_type else name(predicate)} {obj}")
        yield ""
        yield subject
        yield "    " + " ;\n    ".join(statements) + " ."


# ---------------------------------------------------------------------------
# N-Triples parsing (inverse of the serializer)

# An IRIREF is anything up to the next '>': a statement whose IRIs all fit
# IRI_BODY matches this as it would match with IRI_BODY in their place,
# and the reader holds each distinct IRI to IRI_BODY once, not per statement.
_IRIREF = "<([^>]*)>"
_STATEMENT_RE = re.compile(
    rf"{_IRIREF}[ \t]*{_IRIREF}[ \t]*"
    rf'(?:{_IRIREF}|"([^"\\]*(?:\\.[^"\\]*)*)"'
    rf"(?:@({_LANGUAGE_TAG})|\^\^{_IRIREF})?)[ \t]*\."
)
_NOT_A_STATEMENT = "expected '<iri> <iri> <iri-or-literal> .'"
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape_literal(raw: str, line: int) -> str:
    def decode(m: re.Match) -> str:
        esc = m.group(1)
        if esc in _UNESCAPES:
            return _UNESCAPES[esc]
        if len(esc) > 1 and (code := int(esc[1:], 16)) <= 0x10FFFF:
            return chr(code)
        raise InputFormatError(line, f"bad escape \\{esc}")

    return _ESCAPE_RE.sub(decode, raw)


# (subject, predicate, IRI object or None, literal, language, datatype)
StatementRow = tuple[str, str, str | None, str | None, str | None, str | None]


def parse_ntriples(source: bytes | Iterable[bytes]) -> Iterator[StatementRow]:
    """The statements of N-Triples as rows, lazily; errors carry the 1-based line.

    source is the UTF-8 bytes or a binary file, either of which is read
    and decoded a line at a time. Statements are delimited by LF/CRLF only;
    unicode line separators such as U+0085 may appear raw inside literals
    per the grammar, so the generic splitlines() set must not be used here.
    Every IRI in a row is absolute and fits the N-Triples IRIREF grammar,
    and the grammar gives a literal a language or a datatype, never both.
    Literal escapes are decoded.
    """
    lines = io.BytesIO(source) if isinstance(source, bytes) else source
    valid: set[str] = set()  # IRIs already found N-Triples-safe and absolute
    for lineno, line in enumerate(lines, 1):
        line = decode_utf8(line, lineno).strip()
        m = _STATEMENT_RE.fullmatch(line)
        if m is None:
            if not line or line.startswith("#"):
                continue
            raise InputFormatError(lineno, _NOT_A_STATEMENT)
        row = m.groups()
        subject, predicate, obj, literal, _, datatype = row
        if obj is None:
            settled = "\\" not in literal and (datatype is None or datatype in valid)
        else:
            settled = obj in valid
        if not (settled and subject in valid and predicate in valid):
            row = _checked_row(row, lineno, valid)
        yield row


def _checked_row(row: StatementRow, lineno: int, valid: set[str]) -> StatementRow:
    """The row with its literal's escapes decoded, once its IRIs pass; adds them to valid.

    Errors come in this order: an IRI outside the grammar (the line is no
    statement), a bad escape, then the absolute-IRI rule on subject,
    predicate, object and datatype, in turn.
    """
    subject, predicate, obj, literal, language, datatype = row
    rejected = []
    for iri in (subject, predicate, obj, datatype):
        if iri is None or iri in valid:
            continue
        if ABSOLUTE_IRI_RE.fullmatch(iri):  # absolute implies N-Triples-safe
            valid.add(iri)
        else:
            rejected.append(iri)
    if any(_IRI_BODY_RE.fullmatch(iri) is None for iri in rejected):
        raise InputFormatError(lineno, _NOT_A_STATEMENT)
    if obj is None and "\\" in literal:
        row = (subject, predicate, None, _unescape_literal(literal, lineno), language, datatype)
    for iri in rejected:
        try:
            check_iri(iri)
        except ValueError as exc:
            raise InputFormatError(lineno, str(exc)) from exc
    return row


# ---------------------------------------------------------------------------
# Loading events and aggregates back out of the statement rows

# subject -> predicate -> the (value, language) of each object, in file order.
# Only the lexical value and the language tag are read back; IRI objects
# carry language None.
Predicates = dict[str, list[tuple[str, str | None]]]


def _single(preds: Predicates, predicate: str) -> str | None:
    """The value of the predicate's one object, or None; distinct objects are an error."""
    objs = preds.get(predicate)
    if len(objs or ()) > 1 and len(set(objs)) > 1:  # a repeated statement is one statement
        raise ValueError(f"{predicate} has {len(set(objs))} distinct objects")
    return objs[0][0] if objs else None


def events_from_rows(
    rows: Iterable[StatementRow],
) -> tuple[dict[EventKey, Event], list[AggregateEvent]]:
    """Rebuild events and aggregates from the statement rows of an emitted triple set.

    The inverse of emit_event_triples/emit_aggregate_triples up to field
    ordering: comment and URL order is not preserved by RDF's set
    semantics, so both come back sorted. GazetteerRefs are rebuilt from the
    linking IRIs; the province's preferred name is recovered from the
    addressRegion literal. The rows are grouped by subject and predicate
    first; each distinct predicate and (value, language) pair is kept once.
    """
    by_subject: dict[str, Predicates] = {}
    interned: dict = {}  # predicate -> itself, (value, language) -> itself
    for subject, predicate, obj, literal, language, _ in rows:
        pair = (literal, language) if obj is None else (obj, None)
        by_subject.setdefault(subject, {}).setdefault(
            interned.setdefault(predicate, predicate), []
        ).append(interned.setdefault(pair, pair))

    events: dict[EventKey, Event] = {}
    aggregates: list[AggregateEvent] = []
    # Event IRIs recur as aggregate members, GeoNames IRIs and dates across
    # events; the results are immutable, so each is parsed once per call.
    event_key = functools.cache(parse_event_iri)
    gazetteer_ref = functools.cache(GazetteerRef.from_iri)
    civil_date = functools.cache(parse_civil_date)

    def ref(preds: Predicates, predicate: str, preferred: str = "") -> GazetteerRef | None:
        iri = _single(preds, ONTOLOGY_NS + predicate)
        return gazetteer_ref(iri, preferred) if iri is not None else None

    rdf_type, sem_event = RDF_NS + "type", SEM_NS + "Event"
    event_nodes = sorted(
        subject for subject, preds in by_subject.items()
        if any(value == sem_event for value, _ in preds.get(rdf_type, ()))
    )
    for subject in event_nodes:
        preds = by_subject[subject]
        kind = "aggregate" if subject.startswith(EVENT_NS + "aggregate/") else "event"
        if kind == "event":
            try:
                dataset, local_id = event_key(subject)
            except ValueError:
                continue
        # one wrap names the node in every error of its construction
        try:
            if kind == "aggregate":
                primary = _single(preds, ONTOLOGY_NS + "hasPrimarySource")
                if primary is None:
                    raise ValueError("missing hasPrimarySource")
                members = tuple(sorted(
                    event_key(value) for value, _ in preds.get(ONTOLOGY_NS + "hasMember", ())
                ))
                aggregates.append(AggregateEvent(iri=subject, members=members,
                                                 primary=event_key(primary)))
                continue
            date = _single(preds, DCT_NS + "date")
            loc = _single(preds, SDO_NS + "location")
            if date is None or loc is None:
                raise ValueError("missing date or location")
            geo_preds = by_subject.get(_single(by_subject.get(loc, {}), SDO_NS + "geo"), {})
            lat = _single(geo_preds, SDO_NS + "latitude")
            lon = _single(geo_preds, SDO_NS + "longitude")
            if lat is None or lon is None:
                raise ValueError("missing coordinates")
            region = _single(preds, ONTOLOGY_NS + "addressRegion")
            ev = Event(
                id=local_id,
                dataset=dataset,
                date=civil_date(date),
                point=validate_point(float(lat), float(lon)),
                description=_single(preds, DCT_NS + "description"),
                country=ref(preds, "countryGeoNames"),
                city=ref(preds, "cityGeoNames"),
                province=ref(preds, "provinceGeoNames", region or ""),
                postal_code=_single(preds, ONTOLOGY_NS + "postalCode"),
                source_urls=tuple(sorted(value for value, _ in preds.get(SDO_NS + "url", ()))),
                comments=tuple(sorted(value for value, _ in preds.get(RDFS_NS + "comment", ()))),
                city_labels={
                    language: value
                    for value, language in preds.get(ONTOLOGY_NS + "cityName", ()) if language
                },
            )
        except (ValueError, ResilinkError) as exc:
            raise ValueError(f"{kind} node {subject}: {exc}") from exc
        events[ev.key] = ev
    return events, aggregates
