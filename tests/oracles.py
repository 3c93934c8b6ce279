"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: the similarity oracles
find blocks by exhaustive scanning and with the standard library's
difflib, the distance oracle uses the spherical law of cosines, and the
nearest-neighbor oracle is a pure-Python linear scan. The reference
integration forms every cross-dataset pair and resolves conflicts by
repeatedly taking the best remaining match. The RDF term model
builds every triple as validated terms with its own IRI, language-tag and
escape rules, and renders and sorts them term by term.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from difflib import SequenceMatcher
from enum import Enum
from operator import itemgetter
from typing import Callable

from resilink import rdf
from resilink.gazetteer import haversine_km
from resilink.ingest import clean_location_string
from resilink.integration import (
    IntegrationCounts,
    IntegrationResult,
    MatchConfig,
    MatchPair,
    MatchRule,
    Verdict,
    normalize_url,
)
from resilink.model import AggregateEvent, Dataset, Event, GazetteerRef, GeoPoint

EARTH_RADIUS_KM = 6371.0


def longest_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int) -> tuple[int, int, int]:
    """(i, j, k) of the longest common block a[i:i+k] == b[j:j+k], by exhaustive search.

    All (i, j) starting positions in the ranges are scanned and
    common-prefix lengths measured directly; ties prefer the earliest
    start in a, then in b. k is 0, with i and j 0, when the ranges share
    no character.
    """
    best_i = best_j = best_k = 0
    for i in range(alo, ahi):
        for j in range(blo, bhi):
            k = 0
            while i + k < ahi and j + k < bhi and a[i + k] == b[j + k]:
                k += 1
            if k > best_k:
                best_i, best_j, best_k = i, j, k
    return best_i, best_j, best_k


def brute_force_ratio(a: str, b: str) -> float:
    """Ratcliff/Obershelp with every block found by ``longest_block``."""

    def total(alo: int, ahi: int, blo: int, bhi: int) -> int:
        i, j, k = longest_block(a, alo, ahi, b, blo, bhi)
        if k == 0:
            return 0
        return k + total(alo, i, blo, j) + total(i + k, ahi, j + k, bhi)

    if not a and not b:
        return 1.0
    matched = total(0, len(a), 0, len(b))
    return 2.0 * matched / (len(a) + len(b))


def difflib_ratio(a: str, b: str) -> float:
    """Ratcliff/Obershelp as difflib computes it, lowercased, with autojunk off."""
    return SequenceMatcher(None, a.lower(), b.lower(), autojunk=False).ratio()


def integrate_reference(a_events: list[Event], b_events: list[Event], cfg: MatchConfig) -> IntegrationResult:
    """integrate as README states it, by plain loops over every A x B pair.

    A pair is a candidate when both events fall on one day and name one
    city: equal gazetteer ids when both are resolved, else equal cleaned,
    lowercased names (the resolved city's preferred name, or the raw
    one). Similarity is difflib's. The rules, in order: a shared link
    within the link thresholds; an "area" report within the area
    thresholds; a keyword report within the keyword thresholds; else
    NearDistinct under the area rule, then the keyword rule, when either
    word is present. Conflicts are resolved by repeatedly taking the best
    remaining Identical pair (highest similarity, then smallest distance,
    then smallest ids) whose events are both still free; every other
    Identical pair is demoted to Unclassified.
    """
    def city_name(ev: Event) -> str | None:
        if ev.city is not None and ev.city.preferred_name:
            return ev.city.preferred_name
        return ev.city_name

    def city_basis(a: Event, b: Event) -> str | None:
        if a.city is not None and b.city is not None:
            return "geoname_id" if a.city.geoname_id == b.city.geoname_id else None
        na, nb = city_name(a), city_name(b)
        if na is None or nb is None:
            return None
        return "name" if clean_location_string(na).lower() == clean_location_string(nb).lower() else None

    def rule(a: Event, b: Event, s: float, d: float) -> tuple[Verdict, MatchRule]:
        da, db = (a.description or "").lower(), (b.description or "").lower()
        links = {normalize_url(u) for u in a.source_urls} & {normalize_url(u) for u in b.source_urls}
        area = cfg.area_token in da or cfg.area_token in db
        keyword = any(k in da or k in db for k in cfg.keywords)
        if links and s > cfg.sim_link and d < cfg.dist_link_km:
            return Verdict.IDENTICAL, MatchRule.SHARED_LINK
        if area and s > cfg.sim_area and d < cfg.dist_area_km:
            return Verdict.IDENTICAL, MatchRule.AREA
        if keyword and s > cfg.sim_keyword and d < cfg.dist_keyword_km:
            return Verdict.IDENTICAL, MatchRule.KEYWORD
        if area:
            return Verdict.NEAR_DISTINCT, MatchRule.AREA
        if keyword:
            return Verdict.NEAR_DISTINCT, MatchRule.KEYWORD
        return Verdict.UNCLASSIFIED, MatchRule.NONE

    def richness(ev: Event) -> int:
        fields = (ev.description, ev.country, ev.city, ev.province, ev.postal_code)
        return sum(1 for v in fields if v) + len(ev.source_urls) + len(ev.comments) + len(ev.city_labels)

    pairs, members = [], []
    for a in a_events:
        for b in b_events:
            basis = city_basis(a, b) if a.date == b.date else None
            if basis is None:
                continue
            s = difflib_ratio(a.description or "", b.description or "")
            d = haversine_km(a.point, b.point)
            pairs.append(MatchPair(a.id, b.id, d, s, *rule(a, b, s, d), basis))
            members.append((a, b))

    matched: list[int] = []
    used_a: set[str] = set()
    used_b: set[str] = set()
    while True:
        free = [k for k, p in enumerate(pairs) if p.verdict is Verdict.IDENTICAL
                and p.a not in used_a and p.b not in used_b]
        if not free:
            break
        best = min(free, key=lambda k: (-pairs[k].similarity, pairs[k].distance_km, pairs[k].a, pairs[k].b))
        matched.append(best)
        used_a.add(pairs[best].a)
        used_b.add(pairs[best].b)
    pairs = [
        p if p.verdict is not Verdict.IDENTICAL or k in matched
        else dataclasses.replace(p, verdict=Verdict.UNCLASSIFIED)
        for k, p in enumerate(pairs)
    ]

    aggregates = []
    for k in sorted(matched):
        a, b = members[k]
        primary = a if richness(a) > richness(b) or (
            richness(a) == richness(b) and a.dataset is Dataset.EOR) else b
        aggregates.append(AggregateEvent(
            rdf.aggregate_iri([rdf.event_iri(*a.key), rdf.event_iri(*b.key)]),
            (a.key, b.key), primary.key))
    for events, used in ((a_events, used_a), (b_events, used_b)):
        for ev in events:
            if ev.id not in used:
                aggregates.append(AggregateEvent(rdf.aggregate_iri([rdf.event_iri(*ev.key)]), (ev.key,), ev.key))

    counts = IntegrationCounts(
        a=len(a_events), b=len(b_events), identical=len(matched),
        near_distinct=sum(1 for p in pairs if p.verdict is Verdict.NEAR_DISTINCT),
        integrated=len(aggregates),
    )
    return IntegrationResult(pairs=tuple(pairs), aggregates=tuple(aggregates), counts=counts)


def law_of_cosines_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance via the spherical law of cosines."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, c)))


def scalar_haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Pure-Python haversine for the linear-scan oracles."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def scan_nearest(query_lat: float, query_lon: float, coords: list[tuple[float, float]]) -> tuple[int, float] | None:
    """Index and distance of the nearest coordinate, first-wins on ties."""
    best = None
    for i, (lat, lon) in enumerate(coords):
        d = scalar_haversine_km(query_lat, query_lon, lat, lon)
        if best is None or d < best[1]:
            best = (i, d)
    return best


RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def turtle_statements(text: str) -> list[str]:
    """Expand the writer's Turtle back into N-Triples statement lines, in order.

    Reads the shape the writer produces: an `@prefix` block, then per
    subject a blank line, the subject as `<iri>`, and one `predicate object`
    line per statement, indented four spaces and ending in ` ;` (or ` .`
    for the subject's last). `a`, prefixed names and prefixed datatypes are
    expanded by string work alone, and a prefixed name's local part must be
    one the writer may shorten to; literals are kept as written, since both
    formats escape them the same way.
    """
    prefixes: dict[str, str] = {}

    def name(token: str) -> str:
        if token.startswith("<"):
            return token
        prefix, colon, local = token.partition(":")
        assert colon and prefix in prefixes, token
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", local), f"local name {local!r}"
        return f"<{prefixes[prefix]}{local}>"

    def term(token: str) -> str:
        if not token.startswith('"'):
            return name(token)
        close = token.rindex('"')  # a quote inside the literal is escaped as \"
        suffix = token[close + 1:]
        if suffix.startswith("^^"):
            return token[: close + 1] + "^^" + name(suffix[2:])
        return token

    statements = []
    subject = None
    for line in text.split("\n"):
        if line.startswith("@prefix "):
            assert subject is None and not statements, line
            _, label, iri, dot = line.split(" ")
            assert label.endswith(":") and iri[0] + iri[-1] == "<>" and dot == ".", line
            prefixes[label[:-1]] = iri[1:-1]
        elif line.startswith("    "):
            assert subject is not None, line
            body, end = line[4:-2], line[-2:]
            assert end in (" ;", " ."), line
            predicate, obj = body.split(" ", 1)
            predicate = f"<{RDF_TYPE_IRI}>" if predicate == "a" else name(predicate)
            statements.append(f"{subject} {predicate} {term(obj)} .")
            if end == " .":
                subject = None
        elif line:
            assert subject is None and line[0] + line[-1] == "<>", line
            subject = line
    assert subject is None, "last statement group not closed"
    return statements


# ---------------------------------------------------------------------------
# The RDF term model: the judge of the line writer and the statement reader.
# It holds its own IRI, language-tag and escape rules, so a term that
# constructs here is one the N-Triples grammar can carry.

_IRI_RE = re.compile(r'[A-Za-z][A-Za-z0-9+.-]*:[^<>"{}|^`\\\x00-\x20]*')
_LANGUAGE_TAG_RE = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")
# The ASCII characters an N-Triples IRIREF forbids.
IRIREF_FORBIDDEN = '<>"{}|^`\\' + "".join(map(chr, range(0x21)))


def _check_iri(value: str) -> None:
    if _IRI_RE.fullmatch(value) is None:
        raise ValueError(f"IRI must be absolute and N-Triples-safe: {value!r}")


def percent_encoded(url: str) -> str:
    """The URL with each character an IRIREF forbids written as %XX."""
    return "".join(f"%{ord(c):02X}" if c in IRIREF_FORBIDDEN else c for c in url)


def _escaped(value: str) -> str:
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return "".join(
        named.get(c) or (f"\\u{ord(c):04X}" if ord(c) < 0x20 else c) for c in value
    )


class TermKind(Enum):
    IRI = "iri"
    LITERAL = "literal"


class Term(tuple):
    """An RDF term: an N-Triples-safe absolute IRI, or a literal with an optional
    language tag (the reader's grammar) or datatype (an absolute IRI).

    A validating tuple ``(kind, value, language, datatype)``: immutable,
    hashable and compared by value.
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
            if not _LANGUAGE_TAG_RE.fullmatch(language):
                raise ValueError(f"language tag must match the N-Triples LANGTAG: {language!r}")
        elif datatype is not None:
            _check_iri(datatype)
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
        text = f'"{_escaped(value)}"'
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

    def render(self) -> str:
        """The triple's N-Triples line."""
        return " ".join(term.render() for term in self) + " ."


def event_triples(ev: Event) -> list[Triple]:
    """The documented mapping of one event (docs/rdf-mapping.md), as validated terms."""
    subject = Term.iri(rdf.event_iri(ev.dataset, ev.id))
    loc = Term.iri(subject.value + "/location")
    geo = Term.iri(subject.value + "/geo")

    def vocab(ns: str, local: str) -> Term:
        return Term.iri(ns + local)

    def decimal(x: float) -> Term:
        return Term.literal(rdf.format_decimal(x), datatype=rdf.XSD_NS + "decimal")

    triples = [
        Triple(subject, vocab(rdf.RDF_NS, "type"), vocab(rdf.SEM_NS, "Event")),
        Triple(subject, vocab(rdf.DCT_NS, "date"),
               Term.literal(ev.date.isoformat(), datatype=rdf.XSD_NS + "date")),
        Triple(subject, vocab(rdf.SDO_NS, "location"), loc),
        Triple(loc, vocab(rdf.SDO_NS, "geo"), geo),
        Triple(geo, vocab(rdf.RDF_NS, "type"), vocab(rdf.SDO_NS, "GeoCoordinates")),
        Triple(geo, vocab(rdf.SDO_NS, "latitude"), decimal(ev.point.latitude)),
        Triple(geo, vocab(rdf.SDO_NS, "longitude"), decimal(ev.point.longitude)),
    ]
    if ev.description is not None:
        triples.append(Triple(subject, vocab(rdf.DCT_NS, "description"), Term.literal(ev.description)))
    for url in ev.source_urls:
        triples.append(Triple(subject, vocab(rdf.SDO_NS, "url"), Term.iri(percent_encoded(url))))
    for comment in ev.comments:
        triples.append(Triple(subject, vocab(rdf.RDFS_NS, "comment"), Term.literal(comment)))
    for lang in sorted(ev.city_labels):
        triples.append(Triple(subject, vocab(rdf.ONTOLOGY_NS, "cityName"),
                              Term.literal(ev.city_labels[lang], language=lang)))
    if ev.province is not None and ev.province.preferred_name:
        triples.append(Triple(subject, vocab(rdf.ONTOLOGY_NS, "addressRegion"),
                              Term.literal(ev.province.preferred_name)))
    for predicate, ref in (
        ("cityGeoNames", ev.city),
        ("provinceGeoNames", ev.province),
        ("countryGeoNames", ev.country),
    ):
        if ref is not None:
            triples.append(Triple(subject, vocab(rdf.ONTOLOGY_NS, predicate), Term.iri(ref.iri)))
    if ev.postal_code is not None:
        triples.append(Triple(subject, vocab(rdf.ONTOLOGY_NS, "postalCode"),
                              Term.literal(ev.postal_code)))
    return triples


def aggregate_triples(agg) -> list[Triple]:
    """The documented mapping of one aggregate, as validated terms."""
    subject = Term.iri(agg.iri)
    triples = [
        Triple(subject, Term.iri(rdf.RDF_NS + "type"), Term.iri(rdf.SEM_NS + "Event")),
        Triple(subject, Term.iri(rdf.ONTOLOGY_NS + "hasPrimarySource"),
               Term.iri(rdf.event_iri(*agg.primary))),
    ]
    for member in agg.members:
        triples.append(Triple(subject, Term.iri(rdf.ONTOLOGY_NS + "hasMember"),
                              Term.iri(rdf.event_iri(*member))))
    return triples


def triples_from_rows(rows) -> list[Triple]:
    """Statement rows of rdf.parse_ntriples as validated triples."""
    return [
        Triple(Term.iri(subject), Term.iri(predicate),
               Term.iri(obj) if obj is not None else Term.literal(literal, language, datatype))
        for subject, predicate, obj, literal, language, datatype in rows
    ]


def reloaded_event(ev: Event) -> Event:
    """The event a .nt round trip gives back.

    The mapping writes no raw place names and no city or country preferred
    name, rounds coordinates to 7 fraction digits and percent-encodes
    source URLs; RDF's set semantics give URLs and comments back sorted.
    """
    def bare(ref: GazetteerRef | None) -> GazetteerRef | None:
        return None if ref is None else GazetteerRef(ref.geoname_id)

    return dataclasses.replace(
        ev,
        point=GeoPoint(float(rdf.format_decimal(ev.point.latitude)),
                       float(rdf.format_decimal(ev.point.longitude))),
        country=bare(ev.country),
        city=bare(ev.city),
        country_name=None,
        city_name=None,
        province_name=None,
        source_urls=tuple(sorted({percent_encoded(url) for url in ev.source_urls})),
        comments=tuple(sorted(ev.comments)),
    )


def _turtle_prefixed(iri: str) -> str | None:
    for prefix, ns in rdf.PREFIXES.items():
        if iri.startswith(ns) and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", iri[len(ns):]):
            return f"{prefix}:{iri[len(ns):]}"
    return None


def serialize_terms(triples, turtle: bool = False) -> bytes:
    """The writer's output for a set of triples, from the terms alone.

    Rows are the triples de-duplicated and sorted by the renderings of
    subject, predicate and object, each compared on its own. Turtle
    groups them by subject under one prefix block.
    """
    rows = sorted(set(triples), key=lambda t: tuple(term.render() for term in t))
    if not turtle:
        lines = [t.render() for t in rows]
    else:
        lines = [f"@prefix {p}: <{rdf.PREFIXES[p]}> ." for p in sorted(rdf.PREFIXES)]
        for subject, group in itertools.groupby(rows, key=itemgetter(0)):
            statements = [
                f"{'a' if p.value == rdf.RDF_NS + 'type' else p.render(_turtle_prefixed)} "
                f"{o.render(_turtle_prefixed)}"
                for _, p, o in group
            ]
            lines += ["", subject.render(), "    " + " ;\n    ".join(statements) + " ."]
    return "".join(line + "\n" for line in lines).encode("utf-8")
