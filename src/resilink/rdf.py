"""RDF statement model, the event-to-triple mapping, and serialization.

The triple mapping (canonical event field -> predicate, object kind,
datatype/language, cardinality) is documented in docs/rdf-mapping.md; the
constants below are the single source of truth for the namespaces it uses.

Serialization is byte-deterministic: triples are de-duplicated and sorted
by the N-Triples rendering of subject, predicate, object before writing,
so identical triple sets always produce identical files.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence
from urllib.parse import quote, unquote

from .model import (
    AggregateEvent,
    Dataset,
    Event,
    EventKey,
    GazetteerRef,
    ResilinkError,
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

# The one IRI grammar: the body of an N-Triples IRIREF
# (https://www.w3.org/TR/n-triples/). Term requires it after a scheme, the
# emitter percent-encodes source URLs into it, and the reader checks each
# distinct IRI it reads against it.
_IRI_BODY = r'[^<>"{}|^`\\\x00-\x20]*'
_IRI_BODY_RE = re.compile(_IRI_BODY)
_ABSOLUTE_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:" + _IRI_BODY)
# The ASCII characters the body forbids, as %XX (RFC 3987 section 3.1).
_IRI_PERCENT_ENCODE = {
    c: f"%{c:02X}" for c in range(0x80) if not re.fullmatch(_IRI_BODY, chr(c))
}


def _check_iri(value: str) -> None:
    if _ABSOLUTE_IRI_RE.fullmatch(value) is None:
        raise ValueError(f"IRI must be absolute and N-Triples-safe: {value!r}")


# The one language-tag grammar: the N-Triples LANGTAG, which the reader
# parses and Term requires.
_LANGUAGE_TAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
# Literals repeat a handful of tags and datatypes; each is checked once.
_is_language_tag = functools.lru_cache(maxsize=256)(re.compile(_LANGUAGE_TAG).fullmatch)
_check_datatype = functools.lru_cache(maxsize=256)(_check_iri)


class NTriplesSyntaxError(ResilinkError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


_LITERAL_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04X}" for c in range(0x20)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


class TermKind(Enum):
    IRI = "iri"
    LITERAL = "literal"


class Term(tuple):
    """An RDF term: an N-Triples-safe absolute IRI, or a literal with an optional
    language tag (the reader's grammar) or datatype (an absolute IRI).

    A validating tuple ``(kind, value, language, datatype)``: immutable,
    hashable and compared by value, and as cheap to build as a tuple.
    """

    __slots__ = ()

    def __new__(cls, kind: TermKind, value: str, language: str | None = None,
                datatype: str | None = None):
        if kind is TermKind.IRI:
            if language or datatype:
                raise ValueError("only literals may carry a language or datatype")
            _check_iri(value)
        elif language is not None:
            if datatype is not None:
                raise ValueError("language and datatype are mutually exclusive")
            if not _is_language_tag(language):
                raise ValueError(f"language tag must match {_LANGUAGE_TAG}: {language!r}")
        elif datatype is not None:
            _check_datatype(datatype)
        return tuple.__new__(cls, (kind, value, language, datatype))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    kind = property(itemgetter(0))
    value = property(itemgetter(1))
    language = property(itemgetter(2))
    datatype = property(itemgetter(3))

    @classmethod
    def iri(cls, value: str) -> Term:
        return cls(TermKind.IRI, value)

    @classmethod
    def literal(cls, value: str, language: str | None = None, datatype: str | None = None) -> Term:
        return cls(TermKind.LITERAL, value, language, datatype)

    def render(self, prefixed: Callable[[str], str | None] | None = None) -> str:
        """The N-Triples form of the term.

        Turtle passes `prefixed`, which may shorten an IRI (the term's own or
        a literal's datatype) to a prefixed name; None keeps `<iri>`.
        """
        kind, value, language, datatype = self
        if kind is TermKind.IRI:
            return prefixed and prefixed(value) or f"<{value}>"
        text = f'"{value.translate(_LITERAL_ESCAPES)}"'
        if language:
            return f"{text}@{language}"
        if datatype:
            datatype = prefixed and prefixed(datatype) or f"<{datatype}>"
            return f"{text}^^{datatype}"
        return text


class Triple(tuple):
    """A validating tuple ``(subject, predicate, object)`` of terms."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term):
        if subject.kind is not TermKind.IRI or predicate.kind is not TermKind.IRI:
            raise ValueError("subject and predicate must be IRIs")
        return tuple.__new__(cls, (subject, predicate, object))

    def __getnewargs__(self):
        return tuple(self)

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))


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


# The mapping's vocabulary IRIs, each built once. Only namespace constants
# reach this cache, so it stays bounded.
_vocab = functools.cache(Term.iri)


def emit_event_triples(ev: Event) -> list[Triple]:
    """Map one event to its triples.

    Always emitted: the type, the typed date, and the location/geo node
    carrying both coordinates. Everything else is conditional on the field
    being present. Location and geo nodes are IRIs derived from the event
    IRI so output is deterministic and joinable.
    """
    subject = Term.iri(event_iri(ev.dataset, ev.id))
    loc = Term.iri(subject.value + "/location")
    geo = Term.iri(subject.value + "/geo")
    xsd_date = XSD_NS + "date"
    xsd_decimal = XSD_NS + "decimal"

    triples = [
        Triple(subject, _vocab(RDF_NS + "type"), _vocab(SEM_NS + "Event")),
        Triple(subject, _vocab(DCT_NS + "date"), Term.literal(ev.date.isoformat(), datatype=xsd_date)),
        Triple(subject, _vocab(SDO_NS + "location"), loc),
        Triple(loc, _vocab(SDO_NS + "geo"), geo),
        Triple(geo, _vocab(RDF_NS + "type"), _vocab(SDO_NS + "GeoCoordinates")),
        Triple(geo, _vocab(SDO_NS + "latitude"),
               Term.literal(format_decimal(ev.point.latitude), datatype=xsd_decimal)),
        Triple(geo, _vocab(SDO_NS + "longitude"),
               Term.literal(format_decimal(ev.point.longitude), datatype=xsd_decimal)),
    ]
    if ev.description is not None:
        triples.append(Triple(subject, _vocab(DCT_NS + "description"), Term.literal(ev.description)))
    for url in ev.source_urls:
        triples.append(
            Triple(subject, _vocab(SDO_NS + "url"), Term.iri(url.translate(_IRI_PERCENT_ENCODE)))
        )
    for comment in ev.comments:
        triples.append(Triple(subject, _vocab(RDFS_NS + "comment"), Term.literal(comment)))
    for lang in sorted(ev.city_labels):
        triples.append(
            Triple(subject, _vocab(ONTOLOGY_NS + "cityName"),
                   Term.literal(ev.city_labels[lang], language=lang))
        )
    if ev.province is not None and ev.province.preferred_name:
        triples.append(
            Triple(subject, _vocab(ONTOLOGY_NS + "addressRegion"),
                   Term.literal(ev.province.preferred_name))
        )
    for predicate, ref in (
        ("cityGeoNames", ev.city),
        ("provinceGeoNames", ev.province),
        ("countryGeoNames", ev.country),
    ):
        if ref is not None:
            triples.append(Triple(subject, _vocab(ONTOLOGY_NS + predicate), Term.iri(ref.iri)))
    if ev.postal_code is not None:
        triples.append(
            Triple(subject, _vocab(ONTOLOGY_NS + "postalCode"), Term.literal(ev.postal_code))
        )
    return triples


def emit_aggregate_triples(agg: AggregateEvent) -> list[Triple]:
    """Type the aggregate and link it to its primary source and members."""
    subject = Term.iri(agg.iri)
    triples = [
        Triple(subject, _vocab(RDF_NS + "type"), _vocab(SEM_NS + "Event")),
        Triple(subject, _vocab(ONTOLOGY_NS + "hasPrimarySource"),
               Term.iri(event_iri(*agg.primary))),
    ]
    for member in agg.members:
        triples.append(
            Triple(subject, _vocab(ONTOLOGY_NS + "hasMember"), Term.iri(event_iri(*member)))
        )
    return triples


# ---------------------------------------------------------------------------
# Serialization

def _prefixed(iri: str) -> str | None:
    for prefix, ns in PREFIXES.items():
        if iri.startswith(ns):
            local = iri[len(ns):]
            if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", local):
                return f"{prefix}:{local}"
    return None


class RdfFormat(str, Enum):
    NTRIPLES = "ntriples"
    TURTLE = "turtle"


def serialize_bytes(triples: Iterable[Triple], fmt: RdfFormat = RdfFormat.NTRIPLES) -> bytes:
    """The triple set as UTF-8 bytes, deterministically.

    Both formats are written from the same rows: the triples de-duplicated
    and sorted by the N-Triples rendering of subject, predicate, object.
    N-Triples: one statement per line, literals escaped per the grammar.
    Turtle: a single prefix block followed by the rows grouped by subject,
    using prefixed names where possible and `a` for rdf:type.
    Each distinct term is rendered once per call and format.
    """
    rendered: dict[Term, str] = {}

    def nt(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            text = rendered[term] = term.render()
        return text

    # Sorting the lines sorts by (subject, predicate, object): where one
    # term's rendering is a prefix of another's ('"a"' of '"a"@en', '"a"@en'
    # of '"a"@en-gb'), the next character ('@', '^', '-', a letter or a
    # digit) sorts above the ' ' that ends a term in a line.
    rows = {f"{nt(s)} {nt(p)} {nt(o)} .": (s, p, o) for s, p, o in triples}
    lines = sorted(rows)
    if fmt is RdfFormat.TURTLE:
        ttl = functools.cache(lambda term: term.render(_prefixed))
        rdf_type = RDF_NS + "type"
        body = [f"@prefix {prefix}: <{PREFIXES[prefix]}> ." for prefix in sorted(PREFIXES)]
        for subject, group in itertools.groupby(map(rows.get, lines), key=itemgetter(0)):
            statements = [
                f"{'a' if predicate.value == rdf_type else ttl(predicate)} {ttl(obj)}"
                for _, predicate, obj in group
            ]
            body += ["", nt(subject), "    " + " ;\n    ".join(statements) + " ."]
        lines = body
    elif fmt is not RdfFormat.NTRIPLES:
        raise ValueError(f"unsupported format: {fmt!r}")
    data = "\n".join(lines)
    return (data + "\n").encode("utf-8") if data else b""


# ---------------------------------------------------------------------------
# N-Triples parsing (inverse of the serializer; also the round-trip oracle)

# An IRIREF is anything up to the next '>': a statement whose IRIs all fit
# _IRI_BODY matches this as it would match with _IRI_BODY in their place,
# and the reader holds each distinct IRI to _IRI_BODY once, not per statement.
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
        raise NTriplesSyntaxError(line, f"bad escape \\{esc}")

    return _ESCAPE_RE.sub(decode, raw)


# (subject, predicate, IRI object or None, literal, language, datatype)
StatementRow = tuple[str, str, str | None, str | None, str | None, str | None]


def ntriples_rows(text: str) -> Iterator[StatementRow]:
    """The statements of N-Triples text as rows; errors carry the 1-based line.

    Statements are delimited by LF/CRLF only; unicode line separators such
    as U+0085 may appear raw inside literals per the grammar, so the
    generic splitlines() set must not be used here. A row passes every
    check a Term would make: subject, predicate, IRI object and datatype
    are absolute, and the grammar gives a literal a language or a datatype,
    never both. Literal escapes are decoded.
    """
    valid: set[str] = set()  # IRIs already found N-Triples-safe and absolute
    lines = text.split("\n")
    lines.reverse()  # popped in file order, so each line is freed once read
    for lineno in range(1, len(lines) + 1):
        line = lines.pop().strip()
        m = _STATEMENT_RE.fullmatch(line)
        if m is None:
            if not line or line.startswith("#"):
                continue
            raise NTriplesSyntaxError(lineno, _NOT_A_STATEMENT)
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
        if _ABSOLUTE_IRI_RE.fullmatch(iri):  # absolute implies N-Triples-safe
            valid.add(iri)
        else:
            rejected.append(iri)
    if any(_IRI_BODY_RE.fullmatch(iri) is None for iri in rejected):
        raise NTriplesSyntaxError(lineno, _NOT_A_STATEMENT)
    if obj is None and "\\" in literal:
        row = (subject, predicate, None, _unescape_literal(literal, lineno), language, datatype)
    for iri in (subject, predicate, obj, datatype):
        if iri is not None and iri not in valid:
            try:
                _check_iri(iri)
            except ValueError as exc:
                raise NTriplesSyntaxError(lineno, str(exc)) from exc
    return row


def parse_ntriples(data: bytes | str) -> list[Triple]:
    """Parse N-Triples text into triples; errors carry the 1-based line."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    # terms are immutable: build each distinct IRI and literal once
    iri = functools.cache(Term.iri)
    literal_term = functools.cache(Term.literal)
    return [
        Triple(iri(subject), iri(predicate),
               iri(obj) if obj is not None else literal_term(literal, language, datatype))
        for subject, predicate, obj, literal, language, datatype in ntriples_rows(data)
    ]


# ---------------------------------------------------------------------------
# Loading events and aggregates back out of a triple set

# subject -> predicate -> the (value, language) of each object, in file order.
# Only the lexical value and the language tag are read back; IRI objects
# carry language None.
Predicates = dict[str, list[tuple[str, str | None]]]
SubjectMap = dict[str, Predicates]


def _first(preds: Predicates, predicate: str) -> str | None:
    """The value of the predicate's first object, or None."""
    objs = preds.get(predicate)
    return objs[0][0] if objs else None


def events_from_triples(
    triples: Iterable[Triple],
) -> tuple[dict[EventKey, Event], list[AggregateEvent]]:
    """Rebuild events and aggregates from an emitted triple set.

    The inverse of emit_event_triples/emit_aggregate_triples up to field
    ordering: comment and URL order is not preserved by RDF's set
    semantics, so both come back sorted. GazetteerRefs are rebuilt from the
    linking IRIs; the province's preferred name is recovered from the
    addressRegion literal.
    """
    by_subject: SubjectMap = {}
    for subject, predicate, obj in triples:
        by_subject.setdefault(subject.value, {}).setdefault(predicate.value, []).append(
            (obj.value, obj.language)
        )
    return _events_from_subject_map(by_subject)


def events_from_ntriples(
    data: bytes | str,
) -> tuple[dict[EventKey, Event], list[AggregateEvent]]:
    """events_from_triples(parse_ntriples(data)), with no Term or Triple per statement.

    The subject map is built straight from the statement rows; each
    distinct predicate and (value, language) pair is kept once.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    by_subject: SubjectMap = {}
    interned: dict = {}  # predicate -> itself, (value, language) -> itself
    for subject, predicate, obj, literal, language, _ in ntriples_rows(data):
        pair = (literal, language) if obj is None else (obj, None)
        by_subject.setdefault(subject, {}).setdefault(
            interned.setdefault(predicate, predicate), []
        ).append(interned.setdefault(pair, pair))
    return _events_from_subject_map(by_subject)


def _events_from_subject_map(
    by_subject: SubjectMap,
) -> tuple[dict[EventKey, Event], list[AggregateEvent]]:
    events: dict[EventKey, Event] = {}
    aggregates: list[AggregateEvent] = []
    # Event IRIs recur as aggregate members, GeoNames IRIs and dates across
    # events; the results are immutable, so each is parsed once per call.
    event_key = functools.cache(parse_event_iri)
    gazetteer_ref = functools.cache(GazetteerRef.from_iri)
    civil_date = functools.cache(parse_civil_date)

    def ref(preds: Predicates, predicate: str, preferred: str = "") -> GazetteerRef | None:
        iri = _first(preds, ONTOLOGY_NS + predicate)
        return gazetteer_ref(iri, preferred) if iri is not None else None

    rdf_type, sem_event = RDF_NS + "type", SEM_NS + "Event"
    event_nodes = sorted(
        subject for subject, preds in by_subject.items()
        if any(value == sem_event for value, _ in preds.get(rdf_type, ()))
    )
    for subject in event_nodes:
        preds = by_subject[subject]
        if subject.startswith(EVENT_NS + "aggregate/"):
            primary = _first(preds, ONTOLOGY_NS + "hasPrimarySource")
            if primary is None:
                raise ValueError(f"aggregate node without hasPrimarySource: {subject}")
            members = tuple(
                sorted(event_key(value) for value, _ in preds.get(ONTOLOGY_NS + "hasMember", ()))
            )
            aggregates.append(AggregateEvent(iri=subject, members=members, primary=event_key(primary)))
            continue

        try:
            dataset, local_id = event_key(subject)
        except ValueError:
            continue
        date = _first(preds, DCT_NS + "date")
        loc = _first(preds, SDO_NS + "location")
        if date is None or loc is None:
            raise ValueError(f"event node missing date or location: {subject}")
        geo_preds = by_subject.get(_first(by_subject.get(loc, {}), SDO_NS + "geo"), {})
        lat = _first(geo_preds, SDO_NS + "latitude")
        lon = _first(geo_preds, SDO_NS + "longitude")
        if lat is None or lon is None:
            raise ValueError(f"event node missing coordinates: {subject}")
        region = _first(preds, ONTOLOGY_NS + "addressRegion")
        ev = Event(
            id=local_id,
            dataset=dataset,
            date=civil_date(date),
            point=validate_point(float(lat), float(lon)),
            description=_first(preds, DCT_NS + "description"),
            country=ref(preds, "countryGeoNames"),
            city=ref(preds, "cityGeoNames"),
            province=ref(preds, "provinceGeoNames", region or ""),
            postal_code=_first(preds, ONTOLOGY_NS + "postalCode"),
            source_urls=tuple(sorted(value for value, _ in preds.get(SDO_NS + "url", ()))),
            comments=tuple(sorted(value for value, _ in preds.get(RDFS_NS + "comment", ()))),
            city_labels={
                language: value
                for value, language in preds.get(ONTOLOGY_NS + "cityName", ()) if language
            },
        )
        events[ev.key] = ev
    return events, aggregates
