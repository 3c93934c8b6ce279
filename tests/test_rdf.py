from __future__ import annotations

import dataclasses
import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilink import rdf
from resilink.analytics import IntegratedDataset
from resilink.model import (
    AggregateEvent,
    CivilDate,
    Dataset,
    Event,
    GazetteerRef,
    GeoPoint,
    InputFormatError,
)
from resilink.rdf import (
    DCT_NS,
    EVENT_NS,
    ONTOLOGY_NS,
    PREFIXES,
    RDF_NS,
    SDO_NS,
    SEM_NS,
    XSD_NS,
    RdfFormat,
    aggregate_iri,
    emit_aggregate_triples,
    emit_event_triples,
    event_iri,
    events_from_rows,
    format_decimal,
    parse_event_iri,
    parse_ntriples,
    render_literal,
    serialize_bytes,
)
from tests import oracles
from tests.oracles import Term, TermKind, Triple, percent_encoded, turtle_statements


def _triples(lines) -> list[Triple]:
    """Lines read back through parse_ntriples, as the oracle's validated triples."""
    return oracles.triples_from_rows(parse_ntriples("\n".join(lines)))


def _lines(triples) -> list[str]:
    return [t.render() for t in triples]


class TestTermModel:
    def test_language_and_datatype_exclusive(self):
        with pytest.raises(ValueError):
            Term.literal("x", language="en", datatype="http://x/dt")

    def test_iri_cannot_carry_language(self):
        with pytest.raises(ValueError):
            Term(TermKind.IRI, "http://x", language="en")

    def test_relative_iri_rejected(self):
        with pytest.raises(ValueError):
            Term.iri("relative/path")

    def test_literal_subject_rejected(self):
        lit = Term.literal("x")
        iri = Term.iri("http://x/p")
        with pytest.raises(ValueError):
            Triple(lit, iri, iri)

    @pytest.mark.parametrize("language", ["e n", "", "en-", "-en", "en\n", "e_n", "\u00e9n"])
    def test_language_outside_the_tag_grammar_rejected(self, language):
        # "e n" used to serialize to `"a"@e n .`, a line the reader rejects
        with pytest.raises(ValueError, match="language tag"):
            Term.literal("a", language=language)

    @pytest.mark.parametrize("datatype", ["not an iri", "", "rel", "http://x/a b", "x:<y>"])
    def test_datatype_that_is_no_absolute_iri_rejected(self, datatype):
        with pytest.raises(ValueError, match="IRI must be absolute"):
            Term.literal("a", datatype=datatype)

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.text(max_size=20),
        language=st.none() | st.text(max_size=6)
        | st.from_regex(r"[a-zA-Z]{1,3}(-[a-zA-Z0-9]{1,3}){0,2}", fullmatch=True),
        datatype=st.none() | st.text(max_size=8) | st.sampled_from([XSD_NS + "date", "a:", "é:b"])
        | st.from_regex(r'[a-z][a-z0-9+.-]{0,3}:[^<>"{}|^`\\\x00-\x20]{0,8}', fullmatch=True),
    )
    def test_every_literal_that_constructs_round_trips(self, value, language, datatype):
        try:
            literal = Term.literal(value, language, datatype)
        except ValueError:
            return
        assert render_literal(value, language, datatype) == literal.render()
        triple = Triple(Term.iri("https://x/s"), Term.iri("https://x/p"), literal)
        assert _triples(_lines([triple])) == [triple]


class TestEventIri:
    def test_eor(self):
        assert event_iri(Dataset.EOR, "123") == "https://linked4resilience.eu/event/eor/123"

    def test_percent_encoding(self):
        assert event_iri(Dataset.CH, "a b") == "https://linked4resilience.eu/event/ch/a%20b"

    def test_deterministic(self):
        assert event_iri(Dataset.CH, "x/y") == event_iri(Dataset.CH, "x/y")

    def test_round_trip(self):
        iri = event_iri(Dataset.CH, "a b/c")
        assert parse_event_iri(iri) == (Dataset.CH, "a b/c")

    def test_sub_nodes_are_not_event_iris(self):
        with pytest.raises(ValueError):
            parse_event_iri(event_iri(Dataset.EOR, "1") + "/geo")


class TestFormatDecimal:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (49.2128, "49.2128"),
            (36.0, "36"),
            (-0.0, "0"),
            (0.12345678, "0.1234568"),
            (-12.5, "-12.5"),
        ],
    )
    def test_cases(self, value, expected):
        assert format_decimal(value) == expected


def _event(**kwargs) -> Event:
    base = dict(
        id="123",
        dataset=Dataset.EOR,
        date=CivilDate(2022, 3, 7),
        point=GeoPoint(49.2128, 37.2573),
    )
    base.update(kwargs)
    return Event(**base)


class TestEmitEventTriples:
    def test_minimal_event_exact_triples(self):
        triples = _triples(emit_event_triples(_event()))
        assert len(triples) == 7
        preds = sorted(t.predicate.value for t in triples)
        assert preds == sorted(
            [
                RDF_NS + "type",
                DCT_NS + "date",
                "https://schema.org/location",
                "https://schema.org/geo",
                RDF_NS + "type",
                "https://schema.org/latitude",
                "https://schema.org/longitude",
            ]
        )

    def test_izum_running_example(self):
        ev = _event(
            description="Hospital destroyed by explosion",
            postal_code="64305",
            province=GazetteerRef(706483, "Kharkiv"),
        )
        triples = _triples(emit_event_triples(ev))
        rendered = {(t.predicate.value, t.object.value, t.object.datatype, t.object.language) for t in triples}
        assert (DCT_NS + "date", "2022-03-07", "http://www.w3.org/2001/XMLSchema#date", None) in rendered
        assert (ONTOLOGY_NS + "postalCode", "64305", None, None) in rendered
        assert (ONTOLOGY_NS + "addressRegion", "Kharkiv", None, None) in rendered
        assert (ONTOLOGY_NS + "provinceGeoNames", "http://sws.geonames.org/706483/", None, None) in rendered

    def test_language_tagged_labels(self):
        ev = _event(city_labels={"uk": "Ізюм", "en": "Izyum"})
        labels = [
            (t.object.language, t.object.value)
            for t in _triples(emit_event_triples(ev))
            if t.predicate.value == ONTOLOGY_NS + "cityName"
        ]
        assert sorted(labels) == [("en", "Izyum"), ("uk", "Ізюм")]

    def test_exactly_one_type_and_date(self):
        ev = _event(
            description="d",
            source_urls=("https://a/1", "https://b/2"),
            comments=("c1", "c2"),
            city=GazetteerRef(689558, "Izyum"),
        )
        subject = event_iri(ev.dataset, ev.id)
        triples = _triples(emit_event_triples(ev))
        types = [t for t in triples if t.subject.value == subject and t.predicate.value == RDF_NS + "type"]
        dates = [t for t in triples if t.predicate.value == DCT_NS + "date"]
        assert len(types) == 1 and types[0].object.value == SEM_NS + "Event"
        assert len(dates) == 1

    def test_no_literal_carries_tag_and_datatype(self):
        ev = _event(description="d", city_labels={"en": "x"}, postal_code="1")
        for t in _triples(emit_event_triples(ev)):
            assert not (t.object.language and t.object.datatype)


class TestEmitAggregateTriples:
    def test_pair_aggregate(self):
        members = ((Dataset.EOR, "1"), (Dataset.CH, "2"))
        agg = AggregateEvent(
            iri=aggregate_iri([event_iri(*m) for m in members]),
            members=members,
            primary=(Dataset.EOR, "1"),
        )
        triples = _triples(emit_aggregate_triples(agg))
        assert len(triples) == 4  # type + hasPrimarySource + 2 hasMember
        by_pred = {}
        for t in triples:
            by_pred.setdefault(t.predicate.value, []).append(t.object.value)
        assert by_pred[ONTOLOGY_NS + "hasPrimarySource"] == [event_iri(Dataset.EOR, "1")]
        assert sorted(by_pred[ONTOLOGY_NS + "hasMember"]) == sorted(
            [event_iri(Dataset.EOR, "1"), event_iri(Dataset.CH, "2")]
        )

    def test_singleton_aggregate(self):
        key = (Dataset.CH, "9")
        agg = AggregateEvent(iri=aggregate_iri([event_iri(*key)]), members=(key,), primary=key)
        assert len(emit_aggregate_triples(agg)) == 3

    def test_primary_must_be_member(self):
        with pytest.raises(ValueError):
            AggregateEvent(
                iri="https://x/agg",
                members=((Dataset.EOR, "1"),),
                primary=(Dataset.CH, "2"),
            )

    def test_same_dataset_pair_rejected(self):
        with pytest.raises(ValueError):
            AggregateEvent(
                iri="https://x/agg",
                members=((Dataset.EOR, "1"), (Dataset.EOR, "2")),
                primary=(Dataset.EOR, "1"),
            )

    @pytest.mark.parametrize("iri", [
        "", "relative/agg", "https://x/a b", "https://x/<agg>", 'https://x/"a"', "https://x/{a}",
        "https://x/a\\b", "https://x/a\nb", "https://x/a\x00", "1x:agg", ":agg",
    ])
    def test_iri_that_is_no_absolute_iri_rejected(self, iri):
        # the writer emits the IRI as given, so it is checked when the aggregate is built
        key = (Dataset.EOR, "1")
        with pytest.raises(ValueError, match="IRI must be absolute"):
            AggregateEvent(iri=iri, members=(key,), primary=key)

    def test_aggregate_iri_order_independent(self):
        iris = [event_iri(Dataset.EOR, "1"), event_iri(Dataset.CH, "2")]
        assert aggregate_iri(iris) == aggregate_iri(list(reversed(iris)))


# Arbitrary text in every field an Event takes. Source URLs and label
# languages are drawn from valid and invalid forms, so some events construct
# and some do not.
_any_text = st.text(max_size=12)
_maybe_url = st.builds(
    str.__add__,
    st.sampled_from(["https://", "HTTP://h", "ftp://", "x+y.z://", "https://a b",
                     "mailto:", "", " https://", "h\tttps://"]),
    st.text(max_size=12),
)
_refs = st.none() | st.builds(GazetteerRef, st.integers(1, 10**9), _any_text)
_event_fields = st.fixed_dictionaries(dict(
    id=st.text(max_size=8),
    dataset=st.sampled_from(Dataset),
    date=st.dates(),
    point=st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180)),
    description=st.none() | _any_text,
    country=_refs,
    city=_refs,
    province=_refs,
    postal_code=st.none() | _any_text,
    source_urls=st.lists(_maybe_url, max_size=2).map(tuple),
    comments=st.lists(_any_text, max_size=3).map(tuple),
    city_labels=st.dictionaries(st.sampled_from(["en", "uk", "nl", "fr", "EN"]), _any_text,
                                max_size=3),
))


@st.composite
def _constructed_events(draw):
    """Events that construct, drawn from arbitrary field values, unique by key."""
    events = {}
    for _ in range(draw(st.integers(0, 6))):
        try:
            ev = Event(**draw(_event_fields))
        except ValueError:
            continue
        events[ev.key] = ev
    return list(events.values())


@st.composite
def _constructed_aggregates(draw, events):
    """Aggregates over the events, each event in at most one, with minted IRIs."""
    keys = draw(st.permutations([ev.key for ev in events]))
    aggregates = []
    while keys:
        members = [keys.pop()]
        if keys and keys[-1][0] != members[0][0] and draw(st.booleans()):
            members.append(keys.pop())
        members.sort()
        iri = aggregate_iri([event_iri(*key) for key in members])
        aggregates.append(AggregateEvent(iri, tuple(members), draw(st.sampled_from(members))))
    return aggregates


class TestWriterAgainstOracle:
    """The line writer and the statement reader, judged by the oracle's Term model."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_event_and_aggregate_that_constructs(self, data):
        events = data.draw(_constructed_events())
        aggregates = data.draw(_constructed_aggregates(events))
        # the oracle builds each term with its checks, so no IRI escapes them
        triples = [t for ev in events for t in oracles.event_triples(ev)]
        triples += [t for agg in aggregates for t in oracles.aggregate_triples(agg)]
        lines = [line for ev in events for line in emit_event_triples(ev)]
        lines += [line for agg in aggregates for line in emit_aggregate_triples(agg)]
        assert lines == _lines(triples)
        for line in lines:
            assert _lines(_triples([line])) == [line]

        data_bytes = serialize_bytes(lines)
        assert data_bytes == oracles.serialize_terms(triples)
        loaded = IntegratedDataset.from_triples(parse_ntriples(data_bytes))
        assert loaded.events == {ev.key: oracles.reloaded_event(ev) for ev in events}
        assert sorted(loaded.aggregates, key=lambda a: a.iri) == sorted(aggregates, key=lambda a: a.iri)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=12) | st.builds(str.__add__, st.sampled_from(["https://x/", "a:", "1:"]),
                                             st.text(max_size=8)))
    def test_aggregate_iri_constructs_where_a_term_does(self, iri):
        key = (Dataset.CH, "1")
        try:
            agg = AggregateEvent(iri=iri, members=(key,), primary=key)
        except ValueError:
            with pytest.raises(ValueError):
                Term.iri(iri)
            return
        lines = emit_aggregate_triples(agg)
        assert lines == _lines(oracles.aggregate_triples(agg))
        assert _lines(_triples(lines)) == lines


_iri_strategy = st.builds(
    lambda host, path: f"https://{host}/{path}",
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.text(alphabet="abcdefgh0123456789", min_size=0, max_size=12),
)
_literal_strategy = st.builds(
    Term.literal,
    st.text(max_size=40),
    st.one_of(st.none(), st.sampled_from(["en", "uk", "nl", "fr"])),
)
# Source URLs may hold characters an N-Triples IRIREF forbids; the emitter
# percent-encodes exactly the forbidden ASCII ones.
_source_url_strategy = st.builds(
    lambda host, path: f"https://{host}/{path}",
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.text(alphabet="ab09/?=&%#\x7fé" + oracles.IRIREF_FORBIDDEN, max_size=16),
)


_term_strategy = st.one_of(st.builds(Term.iri, _iri_strategy), _literal_strategy)
_triple_strategy = st.builds(
    Triple,
    st.builds(Term.iri, _iri_strategy),
    st.builds(Term.iri, _iri_strategy),
    _term_strategy,
)


# IRIs in the mapping's namespaces: local parts a prefixed name can carry
# and local parts it cannot, so both spellings reach the Turtle writer.
_vocab_iri_strategy = st.builds(
    lambda ns, local: ns + local,
    st.sampled_from(sorted(PREFIXES.values())),
    st.sampled_from(["type", "Event", "date", "a-b_c", "_x", "1st", "a.b", "", "x/y", "é", "a#b"]),
)
_vocab_triple_strategy = st.builds(
    Triple,
    st.builds(Term.iri, _iri_strategy | _vocab_iri_strategy),
    st.builds(Term.iri, _iri_strategy | _vocab_iri_strategy),
    _term_strategy
    | st.builds(Term.iri, _vocab_iri_strategy)
    | st.builds(
        lambda value, datatype: Term.literal(value, datatype=datatype),
        st.text(max_size=20),
        _iri_strategy | _vocab_iri_strategy,
    ),
)


# Terms whose renderings are prefixes of one another: sorting whole lines
# agrees with sorting (subject, predicate, object) only if every rendering
# is extended by characters above the space that ends a term in a line.
_prefix_iri_strategy = st.builds(
    Term.iri, st.sampled_from(["https://x/a", "https://x/a!", "https://x/a/b", "https://x/ab"])
)
_prefix_literal_strategy = st.sampled_from([
    Term.literal("a"),
    Term.literal("a", language="en"),
    Term.literal("a", language="en-gb"),
    Term.literal("a", language="en-GB-x1"),
    Term.literal("a", datatype=XSD_NS + "string"),
    Term.literal("a", datatype=XSD_NS + "string2"),
    Term.literal("a b"),
    Term.literal("a!"),
    Term.literal("a\n"),
    Term.literal('a"'),
    Term.literal("a^^<x:y>"),
    Term.literal(""),
])
_prefix_triple_strategy = st.builds(
    Triple,
    _prefix_iri_strategy,
    _prefix_iri_strategy,
    st.one_of(_prefix_iri_strategy, _prefix_literal_strategy),
)


def _ntriples_lines(lines) -> list[str]:
    # split on LF only: U+0085 and U+2028 may stand raw inside a literal
    return serialize_bytes(lines).decode("utf-8").split("\n")[:-1]


def _turtle_lines(lines) -> list[str]:
    return turtle_statements(serialize_bytes(lines, RdfFormat.TURTLE).decode("utf-8"))


class TestSerialization:
    def test_newline_escaped(self):
        t = Triple(Term.iri("https://x/s"), Term.iri("https://x/p"), Term.literal("a\nb"))
        assert b'"a\\nb"' in serialize_bytes(_lines([t]))

    def test_empty_input(self):
        assert serialize_bytes([]) == b""
        turtle = serialize_bytes([], RdfFormat.TURTLE).decode()
        assert turtle.strip().startswith("@prefix")
        assert all(line.startswith("@prefix") for line in turtle.strip().splitlines())

    def test_seven_triple_round_trip(self):
        lines = emit_event_triples(_event())
        assert set(_triples(_ntriples_lines(lines))) == set(oracles.event_triples(_event()))

    def test_deterministic_bytes(self):
        lines = emit_event_triples(_event(description="x", comments=("c",)))
        assert serialize_bytes(lines) == serialize_bytes(list(reversed(lines)))

    def test_duplicates_collapse(self):
        lines = emit_event_triples(_event())
        assert serialize_bytes(lines + lines) == serialize_bytes(lines)

    def test_turtle_uses_prefixes_and_groups_subjects(self):
        text = serialize_bytes(emit_event_triples(_event()), RdfFormat.TURTLE).decode()
        assert "@prefix sem:" in text
        assert " a sem:Event" in text
        assert 'dct:date "2022-03-07"^^xsd:date' in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_bytes(emit_event_triples(_event()), "rdfxml")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_triple_strategy, max_size=12))
    def test_turtle_expands_to_the_ntriples_lines(self, triples):
        lines = _lines(triples)
        assert _turtle_lines(lines) == _ntriples_lines(lines)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_vocab_triple_strategy, max_size=12))
    def test_turtle_with_prefixed_names_expands_to_the_ntriples_lines(self, triples):
        lines = _lines(triples)
        assert _turtle_lines(lines) == _ntriples_lines(lines)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_vocab_triple_strategy | _prefix_triple_strategy, max_size=12))
    def test_both_formats_match_the_term_serializer(self, triples):
        lines = _lines(triples)
        assert serialize_bytes(lines) == oracles.serialize_terms(triples)
        assert serialize_bytes(lines, RdfFormat.TURTLE) == oracles.serialize_terms(triples, turtle=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_prefix_triple_strategy, max_size=16))
    def test_lines_are_sorted_by_subject_predicate_object(self, triples):
        rows = sorted({(s.render(), p.render(), o.render()) for s, p, o in triples})
        lines = _lines(triples)
        assert _ntriples_lines(lines) == [f"{s} {p} {o} ." for s, p, o in rows]
        assert _turtle_lines(lines) == _ntriples_lines(lines)

    def test_turtle_of_the_integrated_fixture_expands_to_the_ntriples_lines(
        self, enriched_events, integrated
    ):
        eor, ch = enriched_events
        lines = [line for ev in eor + ch for line in emit_event_triples(ev)]
        lines += [line for agg in integrated.aggregates for line in emit_aggregate_triples(agg)]
        turtle = _turtle_lines(lines)
        assert turtle == _ntriples_lines(lines)
        assert len(turtle) == len(set(lines)) > 1000

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_triple_strategy, max_size=12))
    def test_round_trip_property(self, triples):
        assert set(_triples(_ntriples_lines(_lines(triples)))) == set(triples)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_triple_strategy, max_size=12))
    def test_serialize_parse_serialize_fixed_point(self, triples):
        first = serialize_bytes(_lines(triples))
        assert serialize_bytes(_lines(oracles.triples_from_rows(parse_ntriples(first)))) == first

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_source_url_strategy, max_size=4))
    def test_source_urls_round_trip_percent_encoded(self, urls):
        ev = _event(source_urls=tuple(urls))
        rows = list(parse_ntriples(serialize_bytes(emit_event_triples(ev))))
        encoded = sorted({percent_encoded(u) for u in urls})
        assert sorted(obj for _, predicate, obj, *_ in rows if predicate == SDO_NS + "url") == encoded
        events, _ = events_from_rows(rows)
        assert events[ev.key] == dataclasses.replace(ev, source_urls=tuple(encoded))


def _whole_join(lines) -> bytes:
    """The N-Triples file of the lines, joined whole: the reference for the chunked writer."""
    return "".join(line + "\n" for line in sorted(set(lines))).encode("utf-8")


def _labelled_event(i: int) -> Event:
    return _event(id=f"e{i}", description=f"обстріл {i}" if i % 2 else f"shelling {i}",
                  comments=(f"c{i % 7}",), city_labels={"en": "Izyum", "uk": "Ізюм"})


class TestChunkedSerialization:
    """serialize_bytes encodes _CHUNK_LINES lines at a time; no chunk edge may show."""

    def test_ntriples_equal_the_whole_join_beyond_one_chunk(self):
        lines = [line for i in range(800) for line in emit_event_triples(_labelled_event(i))]
        assert len(set(lines)) > 2 * rdf._CHUNK_LINES
        shuffled = lines * 2  # each line twice, both copies at random places
        random.Random(7).shuffle(shuffled)
        assert serialize_bytes(shuffled) == _whole_join(lines)

    @pytest.mark.parametrize("chunk_lines", [1, 2, 3, 5, 64])
    def test_small_chunks_change_no_byte(self, chunk_lines):
        events = [_labelled_event(i) for i in range(20)]
        lines = [line for ev in events for line in emit_event_triples(ev)]
        triples = [t for ev in events for t in oracles.event_triples(ev)]
        with mock.patch.object(rdf, "_CHUNK_LINES", chunk_lines):
            # duplicates land in other chunks than their first copies
            ntriples = serialize_bytes(lines + lines[:40])
            turtle = serialize_bytes(lines + lines[:40], RdfFormat.TURTLE)
        assert ntriples == _whole_join(lines) == oracles.serialize_terms(triples)
        # each subject's block spans a chunk edge at one size or another
        assert turtle == oracles.serialize_terms(triples, turtle=True)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_vocab_triple_strategy | _prefix_triple_strategy, max_size=16),
           st.integers(1, 4))
    def test_both_formats_match_the_term_serializer_at_any_chunk_size(self, triples, chunk_lines):
        lines = _lines(triples)
        with mock.patch.object(rdf, "_CHUNK_LINES", chunk_lines):
            assert serialize_bytes(lines) == oracles.serialize_terms(triples)
            assert serialize_bytes(lines, RdfFormat.TURTLE) == oracles.serialize_terms(
                triples, turtle=True)

    def test_traced_peak_stays_near_the_output_size(self):
        # the joined str of non-ASCII lines is two bytes a character: with it and
        # its bytes both alive, the peak read about 5x the output size
        lines = [line for i in range(1500) for line in emit_event_triples(_labelled_event(i))]
        random.Random(3).shuffle(lines)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = serialize_bytes(lines)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(data)


    def test_lines_handed_over_are_freed_as_they_are_encoded(self):
        def fresh_lines():
            lines = [line for i in range(1500) for line in emit_event_triples(_labelled_event(i))]
            random.Random(3).shuffle(lines)
            return lines

        # small chunks, so that the chunk in hand is small beside the lines and the bytes
        with mock.patch.object(rdf, "_CHUNK_LINES", 256):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = fresh_lines()
                lines_size = tracemalloc.get_traced_memory()[0] - before
                del held
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                data = serialize_bytes(fresh_lines())
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        # with every line alive until the last was encoded, the peak was about the
        # lines and the bytes together (5.77 MB here); freed, it is near the larger (3.48 MB)
        larger, both = max(lines_size, len(data)), lines_size + len(data)
        assert peak < (larger + both) / 2

    def test_a_list_the_caller_keeps_is_left_as_it_was(self):
        lines = [line for i in range(700) for line in emit_event_triples(_labelled_event(i))]
        random.Random(4).shuffle(lines)
        kept = lines + lines[:30]
        copy = list(kept)
        with mock.patch.object(rdf, "_CHUNK_LINES", 64):
            data = serialize_bytes(kept)
        assert data == _whole_join(lines)
        assert kept == copy


class TestParseNtriplesStream:
    """parse_ntriples reads a binary file a line at a time, as report does."""

    GOOD = '<https://x/s> <https://x/p> "v" .\n'

    def _rows(self, data: bytes, tmp_path=None):
        if tmp_path is None:
            return list(parse_ntriples(io.BytesIO(data)))
        path = tmp_path / "in.nt"
        path.write_bytes(data)
        with path.open("rb") as fp:
            return list(parse_ntriples(fp))

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_rows_equal_those_of_the_text(self, tmp_path, on_disk):
        text = (self.GOOD
                + '<https://x/s> <https://x/p> "crlf" .\r\n'
                + '<https://x/s> <https://x/p> "a\u0085b\u2028c" .\n'
                + '<https://x/s> <https://x/p> "Ізюм"@uk .')  # no final line break
        rows = self._rows(text.encode(), tmp_path if on_disk else None)
        assert rows == list(parse_ntriples(text)) == list(parse_ntriples(text.encode()))
        assert [row[3] for row in rows] == ["v", "crlf", "a\u0085b\u2028c", "Ізюм"]

    @pytest.mark.parametrize("lineno", [3, 4, 40])
    @pytest.mark.parametrize("on_disk", [False, True])
    def test_invalid_utf8_names_its_line(self, tmp_path, lineno, on_disk):
        good = self.GOOD.encode()
        bad = b'<https://x/s> <https://x/p> "\xc3\x28" .\r\n'
        data = good * (lineno - 1) + bad + good
        with pytest.raises(InputFormatError) as exc:
            self._rows(data, tmp_path if on_disk else None)
        assert str(exc.value) == f"line {lineno}: invalid UTF-8"

    def test_a_statement_error_before_invalid_utf8_comes_first(self):
        data = self.GOOD.encode() + b"garbage\n" + b'"\xff"\n'
        with pytest.raises(InputFormatError) as exc:
            self._rows(data)
        assert exc.value.line == 2


class TestParseNtriples:
    def test_missing_terminator(self):
        with pytest.raises(InputFormatError) as exc:
            list(parse_ntriples(b"<https://x/s> <https://x/p> <https://x/o>\n"))
        assert exc.value.line == 1

    def test_empty_input(self):
        assert list(parse_ntriples(b"")) == []

    def test_comments_and_blank_lines_skipped(self):
        data = b"# comment\n\n<https://x/s> <https://x/p> \"v\" .\n"
        assert len(list(parse_ntriples(data))) == 1

    def test_error_line_number(self):
        good = b'<https://x/s> <https://x/p> "v" .\n'
        with pytest.raises(InputFormatError) as exc:
            list(parse_ntriples(good + b"garbage\n"))
        assert exc.value.line == 2

    def test_blank_node_rejected(self):
        with pytest.raises(InputFormatError):
            list(parse_ntriples(b"_:b <https://x/p> <https://x/o> .\n"))

    @pytest.mark.parametrize(
        "line",
        [
            b"<rel> <https://x/p> <https://x/o> .",
            b'<https://x/s> <https://x/p> "\\U00110000" .',
            b'<https://x/s> <https://x/p> "\\q" .',
            b'<https://x/s> <https://x/p> "\\u+041" .',
            b'<https://x/s> <https://x/p> "open .',
            b'<https://x/s> <https://x/p> "v"@ .',
            b"<https://x/s> <https://x/p> <https://x/o>",
            b"<https://x/s> <https://x/p> <https://x/o> . <https://x/o>",
        ],
        ids=["relative-iri", "beyond-unicode", "unknown-escape", "signed-hex",
             "unterminated-literal", "empty-language-tag", "missing-dot", "after-dot"],
    )
    def test_malformed_line_reports_its_number(self, line):
        good = b'<https://x/s> <https://x/p> "v" .\n'
        with pytest.raises(InputFormatError) as exc:
            list(parse_ntriples(good + line + b"\n" + good))
        assert exc.value.line == 2

    @pytest.mark.parametrize("line, message", [
        (b'<https://x/s> <https://x/p a> "\\q" .', "expected '<iri> <iri> <iri-or-literal> .'"),
        (b'<rel> <https://x/p> "v"^^<a b> .', "expected '<iri> <iri> <iri-or-literal> .'"),
        (b"<rel> <https://x/p> <https://x/{o}> .", "expected '<iri> <iri> <iri-or-literal> .'"),
        (b'<rel> <https://x/p> "\\q" .', "bad escape \\q"),
        (b"<https://x/s> <rel> <rel2> .", "IRI must be absolute and N-Triples-safe: 'rel'"),
        (b"<https://x/s> <https://x/p> <rel2> .", "IRI must be absolute and N-Triples-safe: 'rel2'"),
    ], ids=["grammar-before-escape", "datatype-grammar-before-absolute",
            "grammar-before-absolute", "escape-before-absolute", "predicate-before-object",
            "seen-iri-then-relative-object"])
    def test_first_error_in_a_line(self, line, message):
        # each IRI is held to the grammar once, but a line reports the error a
        # whole-statement match would: grammar, then escapes, then the absolute rule
        good = b'<https://x/s> <https://x/p> <https://x/o> .\n'
        with pytest.raises(InputFormatError) as exc:
            list(parse_ntriples(good + line + b"\n" + good))
        assert (exc.value.line, str(exc.value)) == (2, f"line 2: {message}")

    def test_relative_datatype_is_rejected(self):
        # a Term's datatype is an absolute IRI, and the reader makes every check a Term makes
        with pytest.raises(InputFormatError) as exc:
            list(parse_ntriples(b'<https://x/s> <https://x/p> "v"^^<rel> .\n'))
        assert str(exc.value) == "line 1: IRI must be absolute and N-Triples-safe: 'rel'"

    def test_escape_decoding(self):
        data = b'<https://x/s> <https://x/p> "tab\\there\\nline \\"q\\" \\\\done" .\n'
        (t,) = oracles.triples_from_rows(parse_ntriples(data))
        assert t.object.value == 'tab\there\nline "q" \\done'


class TestEventsFromTriples:
    def test_full_round_trip(self):
        ev = _event(
            description="Hospital destroyed by explosion",
            city=GazetteerRef(689558, ""),
            province=GazetteerRef(706483, "Kharkiv"),
            country=GazetteerRef(690791, ""),
            postal_code="64305",
            source_urls=("https://a/1", "https://b/2"),
            comments=("violence_level: significant",),
            city_labels={"en": "Izyum", "uk": "Ізюм"},
        )
        key = (Dataset.EOR, "123")
        agg = AggregateEvent(iri=aggregate_iri([event_iri(*key)]), members=(key,), primary=key)
        lines = emit_event_triples(ev) + emit_aggregate_triples(agg)
        events, aggregates = events_from_rows(parse_ntriples("\n".join(lines)))
        assert events[key] == ev
        assert aggregates == [agg]

    @pytest.mark.parametrize("value, message", [
        ("north", "could not convert string to float: 'north'"),
        ("NaN", "latitude out of range: nan"),
        ("91", "latitude out of range: 91.0"),
    ])
    def test_bad_coordinate_names_the_event(self, value, message):
        lines = [line.replace('"49.2128"', f'"{value}"') for line in emit_event_triples(_event())]
        with pytest.raises(ValueError) as exc:
            events_from_rows(parse_ntriples("\n".join(lines)))
        assert str(exc.value) == f"event node {EVENT_NS}eor/123: {message}"

    def test_survives_serialization(self):
        ev = _event(description="x", comments=("a", "b"))
        events, _ = events_from_rows(parse_ntriples(serialize_bytes(emit_event_triples(ev))))
        assert events[(Dataset.EOR, "123")].comments == ("a", "b")
