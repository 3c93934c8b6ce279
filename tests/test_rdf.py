from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilink.model import AggregateEvent, CivilDate, Dataset, Event, GazetteerRef, GeoPoint
from resilink.rdf import (
    DCT_NS,
    ONTOLOGY_NS,
    PREFIXES,
    RDF_NS,
    SDO_NS,
    SEM_NS,
    XSD_NS,
    NTriplesSyntaxError,
    RdfFormat,
    Term,
    Triple,
    aggregate_iri,
    emit_aggregate_triples,
    emit_event_triples,
    event_iri,
    events_from_triples,
    format_decimal,
    parse_event_iri,
    parse_ntriples,
    serialize_bytes,
)
from tests.oracles import turtle_statements


class TestTermModel:
    def test_language_and_datatype_exclusive(self):
        with pytest.raises(ValueError):
            Term.literal("x", language="en", datatype="http://x/dt")

    def test_iri_cannot_carry_language(self):
        from resilink.rdf import TermKind

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
        triple = Triple(Term.iri("https://x/s"), Term.iri("https://x/p"), literal)
        assert parse_ntriples(serialize_bytes([triple])) == [triple]


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
        triples = emit_event_triples(_event())
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
        triples = emit_event_triples(ev)
        rendered = {(t.predicate.value, t.object.value, t.object.datatype, t.object.language) for t in triples}
        assert (DCT_NS + "date", "2022-03-07", "http://www.w3.org/2001/XMLSchema#date", None) in rendered
        assert (ONTOLOGY_NS + "postalCode", "64305", None, None) in rendered
        assert (ONTOLOGY_NS + "addressRegion", "Kharkiv", None, None) in rendered
        assert (ONTOLOGY_NS + "provinceGeoNames", "http://sws.geonames.org/706483/", None, None) in rendered

    def test_language_tagged_labels(self):
        ev = _event(city_labels={"uk": "Ізюм", "en": "Izyum"})
        labels = [
            (t.object.language, t.object.value)
            for t in emit_event_triples(ev)
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
        triples = emit_event_triples(ev)
        types = [t for t in triples if t.subject.value == subject and t.predicate.value == RDF_NS + "type"]
        dates = [t for t in triples if t.predicate.value == DCT_NS + "date"]
        assert len(types) == 1 and types[0].object.value == SEM_NS + "Event"
        assert len(dates) == 1

    def test_no_literal_carries_tag_and_datatype(self):
        ev = _event(description="d", city_labels={"en": "x"}, postal_code="1")
        for t in emit_event_triples(ev):
            assert not (t.object.language and t.object.datatype)


class TestEmitAggregateTriples:
    def test_pair_aggregate(self):
        members = ((Dataset.EOR, "1"), (Dataset.CH, "2"))
        agg = AggregateEvent(
            iri=aggregate_iri([event_iri(*m) for m in members]),
            members=members,
            primary=(Dataset.EOR, "1"),
        )
        triples = emit_aggregate_triples(agg)
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

    def test_aggregate_iri_order_independent(self):
        iris = [event_iri(Dataset.EOR, "1"), event_iri(Dataset.CH, "2")]
        assert aggregate_iri(iris) == aggregate_iri(list(reversed(iris)))


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
_IRIREF_FORBIDDEN = '<>"{}|^`\\' + "".join(map(chr, range(0x21)))
_source_url_strategy = st.builds(
    lambda host, path: f"https://{host}/{path}",
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.text(alphabet="ab09/?=&%#\x7fé" + _IRIREF_FORBIDDEN, max_size=16),
)


def _percent_encoded(url: str) -> str:
    return "".join(f"%{ord(c):02X}" if c in _IRIREF_FORBIDDEN else c for c in url)


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
    st.sampled_from(["type", "Event", "date", "a-b_c", "_x", "1st", "a.b", "", "x/y", "é"]),
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
    Term.literal(""),
])
_prefix_triple_strategy = st.builds(
    Triple,
    _prefix_iri_strategy,
    _prefix_iri_strategy,
    st.one_of(_prefix_iri_strategy, _prefix_literal_strategy),
)


def _ntriples_lines(triples) -> list[str]:
    # split on LF only: U+0085 and U+2028 may stand raw inside a literal
    return serialize_bytes(triples).decode("utf-8").split("\n")[:-1]


def _turtle_lines(triples) -> list[str]:
    return turtle_statements(serialize_bytes(triples, RdfFormat.TURTLE).decode("utf-8"))


class TestSerialization:
    def test_newline_escaped(self):
        t = Triple(Term.iri("https://x/s"), Term.iri("https://x/p"), Term.literal("a\nb"))
        assert b'"a\\nb"' in serialize_bytes([t])

    def test_empty_input(self):
        assert serialize_bytes([]) == b""
        turtle = serialize_bytes([], RdfFormat.TURTLE).decode()
        assert turtle.strip().startswith("@prefix")
        assert all(line.startswith("@prefix") for line in turtle.strip().splitlines())

    def test_seven_triple_round_trip(self):
        triples = emit_event_triples(_event())
        assert set(parse_ntriples(serialize_bytes(triples))) == set(triples)

    def test_deterministic_bytes(self):
        triples = emit_event_triples(_event(description="x", comments=("c",)))
        assert serialize_bytes(triples) == serialize_bytes(list(reversed(triples)))

    def test_duplicates_collapse(self):
        t = emit_event_triples(_event())
        assert serialize_bytes(t + t) == serialize_bytes(t)

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
        assert _turtle_lines(triples) == _ntriples_lines(triples)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_vocab_triple_strategy, max_size=12))
    def test_turtle_with_prefixed_names_expands_to_the_ntriples_lines(self, triples):
        assert _turtle_lines(triples) == _ntriples_lines(triples)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_prefix_triple_strategy, max_size=16))
    def test_lines_are_sorted_by_subject_predicate_object(self, triples):
        rows = sorted({(s.render(), p.render(), o.render()) for s, p, o in triples})
        assert _ntriples_lines(triples) == [f"{s} {p} {o} ." for s, p, o in rows]
        assert _turtle_lines(triples) == _ntriples_lines(triples)

    def test_turtle_of_the_integrated_fixture_expands_to_the_ntriples_lines(
        self, enriched_events, integrated
    ):
        eor, ch = enriched_events
        triples = [t for ev in eor + ch for t in emit_event_triples(ev)]
        triples += [t for agg in integrated.aggregates for t in emit_aggregate_triples(agg)]
        turtle = _turtle_lines(triples)
        assert turtle == _ntriples_lines(triples)
        assert len(turtle) == len(set(triples)) > 1000

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_triple_strategy, max_size=12))
    def test_round_trip_property(self, triples):
        assert set(parse_ntriples(serialize_bytes(triples))) == set(triples)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_triple_strategy, max_size=12))
    def test_serialize_parse_serialize_fixed_point(self, triples):
        first = serialize_bytes(triples)
        assert serialize_bytes(parse_ntriples(first)) == first

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_source_url_strategy, max_size=4))
    def test_source_urls_round_trip_percent_encoded(self, urls):
        ev = _event(source_urls=tuple(urls))
        triples = parse_ntriples(serialize_bytes(emit_event_triples(ev)))
        encoded = sorted({_percent_encoded(u) for u in urls})
        assert sorted(t.object.value for t in triples if t.predicate.value == SDO_NS + "url") == encoded
        events, _ = events_from_triples(triples)
        assert events[ev.key] == dataclasses.replace(ev, source_urls=tuple(encoded))


class TestParseNtriples:
    def test_missing_terminator(self):
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(b"<https://x/s> <https://x/p> <https://x/o>\n")
        assert exc.value.line == 1

    def test_empty_input(self):
        assert parse_ntriples(b"") == []

    def test_comments_and_blank_lines_skipped(self):
        data = b"# comment\n\n<https://x/s> <https://x/p> \"v\" .\n"
        assert len(parse_ntriples(data)) == 1

    def test_error_line_number(self):
        good = b'<https://x/s> <https://x/p> "v" .\n'
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(good + b"garbage\n")
        assert exc.value.line == 2

    def test_blank_node_rejected(self):
        with pytest.raises(NTriplesSyntaxError):
            parse_ntriples(b"_:b <https://x/p> <https://x/o> .\n")

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
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(good + line + b"\n" + good)
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
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(good + line + b"\n" + good)
        assert (exc.value.line, str(exc.value)) == (2, f"line 2: {message}")

    def test_relative_datatype_is_rejected(self):
        # a Term's datatype is an absolute IRI, and the reader makes every check a Term makes
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(b'<https://x/s> <https://x/p> "v"^^<rel> .\n')
        assert str(exc.value) == "line 1: IRI must be absolute and N-Triples-safe: 'rel'"

    def test_escape_decoding(self):
        data = b'<https://x/s> <https://x/p> "tab\\there\\nline \\"q\\" \\\\done" .\n'
        (t,) = parse_ntriples(data)
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
        triples = emit_event_triples(ev) + emit_aggregate_triples(agg)
        events, aggregates = events_from_triples(triples)
        assert events[key] == ev
        assert aggregates == [agg]

    def test_survives_serialization(self):
        ev = _event(description="x", comments=("a", "b"))
        triples = parse_ntriples(serialize_bytes(emit_event_triples(ev)))
        events, _ = events_from_triples(triples)
        assert events[(Dataset.EOR, "123")].comments == ("a", "b")
