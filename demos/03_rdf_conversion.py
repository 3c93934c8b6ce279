"""Emit one event as RDF and show both serializations plus the round trip."""

from resilink import (
    CivilDate,
    Dataset,
    Event,
    GazetteerRef,
    GeoPoint,
    RdfFormat,
    emit_event_triples,
    parse_ntriples,
    serialize_bytes,
)
from resilink.rdf import render_literal

event = Event(
    id="123",
    dataset=Dataset.CH,
    date=CivilDate(2022, 3, 7),
    point=GeoPoint(49.2128, 37.2573),
    description="Hospital destroyed by explosion",
    city=GazetteerRef(689558, "Izyum"),
    province=GazetteerRef(706483, "Kharkiv"),
    postal_code="64305",
    source_urls=("https://twitter.com/KyivIndependent/status/1501218105342763020",),
    comments=("violence_level: significant",),
    city_labels={"en": "Izyum", "uk": "Ізюм", "nl": "Izjoem", "fr": "Izioum"},
)

# each triple is written as its N-Triples line
lines = emit_event_triples(event)
print(f"{len(lines)} triples\n")
print("--- Turtle ---")
print(serialize_bytes(lines, RdfFormat.TURTLE).decode())
print("--- N-Triples (first 5 statements) ---")
nt = serialize_bytes(lines, RdfFormat.NTRIPLES)
print("\n".join(nt.decode().splitlines()[:5]))

# and read back as a statement row:
# (subject, predicate, IRI object or None, literal, language, datatype)
rows = list(parse_ntriples(nt))
print("\nfirst row:", rows[0])
rendered = [
    f"<{s}> <{p}> {f'<{o}>' if o is not None else render_literal(literal, language, datatype)} ."
    for s, p, o, literal, language, datatype in rows
]
print("round trip preserves the line set:", set(rendered) == set(lines))
print("second serialization is byte-identical:", serialize_bytes(rendered) == nt)
