from __future__ import annotations

import dataclasses
import io
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilink.analytics import (
    DEFAULT_MONTHS,
    IntegratedDataset,
    MonthBucket,
    ReportFormatError,
    ShelterRecord,
    load_shelters,
    monthly_event_counts,
    points_feature_collection,
    read_deaths_csv,
    uc1_event_points,
    uc1_wkt_triples,
    uc2_monthly_keyword_series,
    uc3_multilingual_city_report,
    uc4_monthly_timeline,
    uc4_top_regions,
    uc5_ratio_series,
    uc6_shelter_gap,
)
from resilink.cli import run_subcommand
from resilink.model import (
    AggregateEvent,
    CivilDate,
    Dataset,
    Event,
    GazetteerRef,
    GeoPoint,
    parse_civil_date,
)
from resilink.rdf import (
    WKT_DATATYPE,
    aggregate_iri,
    emit_aggregate_triples,
    emit_event_triples,
    event_iri,
    parse_ntriples,
    serialize_bytes,
)
from tests import oracles


@pytest.fixture(scope="module")
def dataset(integrated, enriched_events) -> IntegratedDataset:
    eor, ch = enriched_events
    return IntegratedDataset.from_events(list(eor) + list(ch), integrated.aggregates)


@pytest.fixture(scope="module")
def reloaded(dataset) -> IntegratedDataset:
    """The same dataset after a full serialize -> parse round trip."""
    lines = _emit(dataset.events.values(), dataset.aggregates)
    return IntegratedDataset.from_triples(parse_ntriples(serialize_bytes(lines)))


_refs = st.none() | st.builds(GazetteerRef, st.integers(1, 10**7), st.text(max_size=6))
_events = st.builds(
    Event,
    id=st.text(min_size=1, max_size=8),
    dataset=st.sampled_from(Dataset),
    date=st.dates().map(lambda d: CivilDate(d.year, d.month, d.day)),
    point=st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180)),
    description=st.none() | st.text(max_size=20),
    country=_refs,
    city=_refs,
    province=_refs,
    postal_code=st.none() | st.text(max_size=6),
    source_urls=st.lists(
        st.text(alphabet='ab/?#%é<>"{}|^`\\ \n\x00', max_size=8).map(lambda p: f"https://h.example/{p}"),
        max_size=2,
    ).map(tuple),
    comments=st.lists(st.text(min_size=1, max_size=8), max_size=2).map(tuple),
    city_labels=st.dictionaries(st.sampled_from(["en", "uk", "nl"]), st.text(max_size=6), max_size=2),
)


@st.composite
def _events_and_aggregates(draw):
    events = draw(st.lists(_events, max_size=6, unique_by=lambda ev: ev.key))
    aggregates = []
    for ev in events:
        if draw(st.booleans()):
            aggregates.append(AggregateEvent(aggregate_iri([event_iri(*ev.key)]), (ev.key,), ev.key))
    eor = [ev.key for ev in events if ev.dataset is Dataset.EOR]
    ch = [ev.key for ev in events if ev.dataset is Dataset.CH]
    if eor and ch and draw(st.booleans()):
        members = (draw(st.sampled_from(eor)), draw(st.sampled_from(ch)))
        aggregates.append(AggregateEvent(aggregate_iri([event_iri(*key) for key in members]),
                                         members, draw(st.sampled_from(members))))
    return events, aggregates


def _emit(events, aggregates) -> list[str]:
    lines = [line for ev in events for line in emit_event_triples(ev)]
    return lines + [line for agg in aggregates for line in emit_aggregate_triples(agg)]


def _primaries(ds):
    return [ev for _, ev in ds.primary_events()]


class TestUc1:
    def test_inclusive_window(self, dataset):
        start, end = CivilDate(2022, 3, 7), CivilDate(2022, 3, 7)
        pts = uc1_event_points(dataset, None, start, end)
        naive = [
            ev for ev in _primaries(dataset) if ev.date == CivilDate(2022, 3, 7)
        ]
        assert len(pts) == len(naive) > 0

    def test_city_filter(self, dataset):
        kherson = GazetteerRef(706448)
        pts = uc1_event_points(dataset, kherson, CivilDate(2022, 2, 1), CivilDate(2023, 4, 30))
        naive = [
            ev
            for ev in _primaries(dataset)
            if ev.city is not None and ev.city.geoname_id == 706448
        ]
        assert len(pts) == len(naive) > 0

    def test_boundary_event_included(self, dataset):
        # an event exactly on the end date stays in (inclusive filter)
        target = CivilDate(2022, 11, 2)
        pts = uc1_event_points(dataset, GazetteerRef(706448), CivilDate(2022, 10, 1), target)
        assert pts

    def test_empty_window(self, dataset):
        pts = uc1_event_points(dataset, None, CivilDate(2031, 1, 1), CivilDate(2031, 1, 2))
        assert pts == []

    def test_wkt_puts_longitude_first(self, dataset):
        pts = uc1_event_points(dataset, None, CivilDate(2022, 2, 1), CivilDate(2023, 4, 30))
        for p in pts:
            lon, lat = p.wkt[len("POINT(") : -1].split(" ")
            assert float(lon) == pytest.approx(p.point.longitude, abs=1e-7)
            assert float(lat) == pytest.approx(p.point.latitude, abs=1e-7)

    def test_wkt_triples_carry_datatype(self, dataset):
        lines = uc1_wkt_triples(dataset, None, CivilDate(2022, 2, 1), CivilDate(2023, 4, 30))
        assert lines
        triples = oracles.triples_from_rows(parse_ntriples("\n".join(lines)))
        assert len(triples) == len(lines)
        assert all(t.object.datatype == WKT_DATATYPE for t in triples)

    def test_geojson_collection(self, dataset):
        pts = uc1_event_points(dataset, None, CivilDate(2022, 2, 1), CivilDate(2022, 2, 28))
        doc = points_feature_collection(pts)
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == len(pts)


class TestUc2:
    def test_default_month_list_is_fifteen(self):
        assert len(DEFAULT_MONTHS) == 15
        assert DEFAULT_MONTHS[0] == "2022-02" and DEFAULT_MONTHS[-1] == "2023-04"

    def test_output_length_equals_month_list(self, dataset):
        buckets = uc2_monthly_keyword_series(dataset, "school", DEFAULT_MONTHS)
        assert len(buckets) == 15
        assert [b.month_year for b in buckets] == list(DEFAULT_MONTHS)

    def test_zero_fill(self, dataset):
        buckets = uc2_monthly_keyword_series(dataset, "zzz-no-such-term", DEFAULT_MONTHS)
        assert all(b.count == 0 for b in buckets)

    def test_empty_dataset(self):
        empty = IntegratedDataset.from_events([], [])
        buckets = uc2_monthly_keyword_series(empty, "school", DEFAULT_MONTHS)
        assert all(b.count == 0 for b in buckets)

    def test_matches_naive_reference(self, dataset):
        needle = "school"
        got = uc2_monthly_keyword_series(dataset, needle, DEFAULT_MONTHS)
        for bucket in got:
            naive = 0
            for ev in _primaries(dataset):
                if ev.date.isoformat()[:7] != bucket.month_year:
                    continue
                literals = (
                    ([ev.description] if ev.description else [])
                    + list(ev.comments)
                    + list(ev.city_labels.values())
                    + ([ev.province.preferred_name] if ev.province and ev.province.preferred_name else [])
                    + ([ev.postal_code] if ev.postal_code else [])
                )
                if any(needle in text.lower() for text in literals):
                    naive += 1
            assert bucket.count == naive

    def test_year_below_1000_lands_in_its_padded_month(self):
        # strftime("%Y-%m") gives "5-03" for this day
        ev = Event(id="e1", dataset=Dataset.EOR, date=parse_civil_date("0005-03-01"),
                   point=GeoPoint(50.0, 36.0), description="school hit")
        ds = IntegratedDataset.from_events(
            [ev], [AggregateEvent(aggregate_iri([event_iri(*ev.key)]), (ev.key,), ev.key)]
        )
        expected = [MonthBucket("0005-02", 0), MonthBucket("0005-03", 1)]
        assert uc2_monthly_keyword_series(ds, "school", ["0005-02", "0005-03"]) == expected
        assert monthly_event_counts(ds, ["0005-02", "0005-03"]) == expected

    def test_case_insensitive(self, dataset):
        upper = uc2_monthly_keyword_series(dataset, "SCHOOL", DEFAULT_MONTHS)
        lower = uc2_monthly_keyword_series(dataset, "school", DEFAULT_MONTHS)
        assert upper == lower

    def test_empty_months_rejected(self, dataset):
        with pytest.raises(ValueError):
            uc2_monthly_keyword_series(dataset, "x", [])


class TestUc3:
    def test_conjunctive_language_requirement(self, dataset):
        rows = uc3_multilingual_city_report(dataset, ["en", "uk", "nl", "fr"], 10)
        # Zhytomyr and Merefa carry only en+uk labels in the fixture gazetteer
        names = {row.names["en"] for row in rows}
        assert "Zhytomyr" not in names and "Merefa" not in names
        assert rows, "cities with all four labels must appear"

    def test_top_n_truncation_and_order(self, dataset):
        rows = uc3_multilingual_city_report(dataset, ["en", "uk"], 3)
        assert len(rows) <= 3
        assert [r.occurrences for r in rows] == sorted(
            (r.occurrences for r in rows), reverse=True
        )

    def test_counts_match_naive(self, dataset):
        rows = uc3_multilingual_city_report(dataset, ["en", "uk"], 100)
        for row in rows:
            naive = sum(
                1
                for ev in _primaries(dataset)
                if ev.city_labels.get("en") == row.names["en"]
                and ev.city_labels.get("uk") == row.names["uk"]
            )
            assert row.occurrences == naive

    def test_empty_dataset(self):
        empty = IntegratedDataset.from_events([], [])
        assert uc3_multilingual_city_report(empty, ["en"], 5) == []


class TestUc4:
    def test_exclusive_end_bound(self, dataset):
        # P2 sits in Kherson on 2022-11-02; a window ending that day excludes it
        upto = uc4_top_regions(dataset, CivilDate(2022, 11, 1), CivilDate(2022, 11, 2), 10)
        through = uc4_top_regions(dataset, CivilDate(2022, 11, 1), CivilDate(2022, 11, 3), 10)
        kherson_upto = sum(r.occurrences for r in upto if r.region == "Kherson")
        kherson_through = sum(r.occurrences for r in through if r.region == "Kherson")
        assert kherson_through > kherson_upto

    def test_top_n_and_ties(self, dataset):
        rows = uc4_top_regions(dataset, CivilDate(2022, 2, 1), CivilDate(2023, 5, 1), 3)
        assert len(rows) <= 3
        counts = [r.occurrences for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_matches_naive(self, dataset):
        start, end = CivilDate(2022, 2, 1), CivilDate(2023, 5, 1)
        rows = uc4_top_regions(dataset, start, end, 100)
        naive: dict[str, int] = {}
        for ev in _primaries(dataset):
            if ev.province and ev.province.preferred_name and start <= ev.date < end:
                naive[ev.province.preferred_name] = naive.get(ev.province.preferred_name, 0) + 1
        assert {r.region: r.occurrences for r in rows} == naive

    def test_fewer_regions_than_n(self, dataset):
        rows = uc4_top_regions(dataset, CivilDate(2022, 3, 7), CivilDate(2022, 3, 8), 99)
        assert 0 < len(rows) < 99

    def test_monthly_timeline_windows(self, dataset):
        timeline = uc4_monthly_timeline(dataset, ["2022-11", "2022-12"], 3)
        assert [m for m, _ in timeline] == ["2022-11", "2022-12"]
        november = dict(timeline)["2022-11"]
        naive = uc4_top_regions(dataset, CivilDate(2022, 11, 1), CivilDate(2022, 12, 1), 3)
        assert november == naive


class TestUc5:
    def test_ratio_arithmetic(self):
        attacks = [MonthBucket("2022-04", 10)]
        rows = uc5_ratio_series(attacks, {"2022-04": 5})
        assert rows[0].ratio == 0.5

    def test_zero_attacks_has_no_ratio(self):
        rows = uc5_ratio_series([MonthBucket("2022-04", 0)], {"2022-04": 5})
        assert rows[0].ratio is None

    def test_unknown_month_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            rows = uc5_ratio_series([MonthBucket("2022-04", 1)], {"2022-04": 2, "2030-01": 9})
        assert [r.month_year for r in rows] == ["2022-04"]
        assert any("2030-01" in rec.message for rec in caplog.records)

    def test_deaths_csv_round_trip(self, tmp_path):
        p = tmp_path / "deaths.csv"
        p.write_text("month,deaths\n2022-04,5\n2022-05,7\n")
        with p.open() as fp:
            assert read_deaths_csv(fp) == {"2022-04": 5, "2022-05": 7}

    def test_deaths_csv_repeated_month_rejected(self):
        # the second 2022-03 row used to overwrite the first silently
        with pytest.raises(ReportFormatError, match="line 3: month 2022-03 listed twice"):
            read_deaths_csv(io.StringIO("month,deaths\n2022-03,4\n2022-03,9\n"))

    def test_deaths_csv_bad_header(self, tmp_path):
        p = tmp_path / "deaths.csv"
        p.write_text("m,d\n2022-04,5\n")
        with p.open() as fp, pytest.raises(ReportFormatError):
            read_deaths_csv(fp)

    def test_writer_marks_proof_of_concept(self, dataset, tmp_path):
        nt, deaths, out = tmp_path / "integrated.nt", tmp_path / "deaths.csv", tmp_path / "uc5.csv"
        nt.write_bytes(serialize_bytes(_emit(dataset.events.values(), dataset.aggregates)))
        deaths.write_text("month,deaths\n2022-04,5\n")
        assert run_subcommand(["report", "uc5", "--input", str(nt), "--deaths", str(deaths),
                               "--months", "2022-04", "--out", str(out)]) == 0
        (bucket,) = monthly_event_counts(dataset, ["2022-04"])
        assert bucket.count > 0
        assert out.read_text() == (
            "# proof-of-concept: joins unvalidated external data; not for operational decisions\n"
            "month,attacks,deaths,ratio\n"
            f"2022-04,{bucket.count},5,{5 / bucket.count:.6f}\n"
        )

    def test_attack_series_from_dataset(self, dataset):
        buckets = monthly_event_counts(dataset, DEFAULT_MONTHS)
        assert sum(b.count for b in buckets) <= len(dataset.aggregates)
        naive = sum(
            1 for ev in _primaries(dataset) if "2022-02" <= ev.date.isoformat()[:7] <= "2023-04"
        )
        assert sum(b.count for b in buckets) == naive


class TestUc6:
    def test_colocated_event_covered(self, dataset):
        ev = _primaries(dataset)[0]
        shelters = [ShelterRecord(point=ev.point)]
        collection, _ = uc6_shelter_gap(dataset, shelters, radius_km=1.0)
        ids = {f["properties"]["event"] for f in collection["features"]}
        from resilink.rdf import event_iri

        assert event_iri(ev.dataset, ev.id) not in ids

    def test_event_beyond_radius_uncovered(self, dataset):
        # one shelter 1.5 km north of a known event
        ev = next(e for e in _primaries(dataset) if e.id == "eor-001")
        north = GeoPoint(ev.point.latitude + 1.5 / 111.19492664455873, ev.point.longitude)
        collection, _ = uc6_shelter_gap(dataset, [ShelterRecord(point=north)], radius_km=1.0)
        from resilink.rdf import event_iri

        ids = {f["properties"]["event"] for f in collection["features"]}
        assert event_iri(ev.dataset, ev.id) in ids

    def test_no_shelters_all_uncovered(self, dataset):
        collection, grid = uc6_shelter_gap(dataset, [], radius_km=1.0)
        assert len(collection["features"]) == len(dataset.aggregates)

    def test_grid_counts_sum_to_uncovered(self, dataset):
        shelters = [ShelterRecord(point=GeoPoint(49.9935, 36.2304))]
        collection, grid = uc6_shelter_gap(dataset, shelters, radius_km=1.0)
        assert sum(c.count for c in grid) == len(collection["features"])

    def test_grid_cells_match_naive(self, dataset):
        collection, grid = uc6_shelter_gap(dataset, [], radius_km=1.0, grid_deg=0.005)
        naive: dict[tuple[int, int], int] = {}
        for f in collection["features"]:
            lon, lat = f["geometry"]["coordinates"]
            key = (math.floor(lat / 0.005), math.floor(lon / 0.005))
            naive[key] = naive.get(key, 0) + 1
        got = {(round(c.cell_lat / 0.005), round(c.cell_lon / 0.005)): c.count for c in grid}
        assert got == naive

    def test_uncovered_uses_strict_inequality(self, dataset):
        # covered means min distance <= radius; verify against the scan oracle
        shelters = [ShelterRecord(point=GeoPoint(49.9935, 36.2304))]
        collection, _ = uc6_shelter_gap(dataset, shelters, radius_km=1.0)
        uncovered_iris = {f["properties"]["event"] for f in collection["features"]}
        from resilink.rdf import event_iri

        for ev in _primaries(dataset):
            d = oracles.scalar_haversine_km(
                ev.point.latitude, ev.point.longitude, 49.9935, 36.2304
            )
            assert (event_iri(ev.dataset, ev.id) in uncovered_iris) == (d > 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(-85.0, 85.0), st.floats(-180.0, 180.0)), min_size=1, max_size=25),
        shelters=st.lists(st.tuples(st.floats(-85.0, 85.0), st.floats(-180.0, 180.0)), max_size=25),
        offsets=st.lists(st.tuples(st.integers(0, 24), st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)), max_size=10),
        planted=st.lists(st.integers(0, 24), max_size=5),
        radius_km=st.sampled_from([0.5, 1.0, 1.5, 25.0]),
    )
    def test_uncovered_matches_naive_scan(self, points, shelters, offsets, planted, radius_km):
        # shelters near events, and shelters exactly radius_km north of one, where
        # the last bit of the distance decides coverage
        near = [(points[i % len(points)][0] + a, points[i % len(points)][1] + b) for i, a, b in offsets]
        north = [(points[i % len(points)][0] + radius_km / 111.19492664455873, points[i % len(points)][1])
                 for i in planted]
        shelters = [(lat, min(180.0, max(-180.0, lon))) for lat, lon in shelters + near + north]
        events = [
            Event(id=f"e{i}", dataset=Dataset.EOR, date=CivilDate(2022, 3, 7), point=GeoPoint(*p))
            for i, p in enumerate(points)
        ]
        ds = IntegratedDataset.from_events(
            events, [AggregateEvent(event_iri(ev.dataset, ev.id), (ev.key,), ev.key) for ev in events]
        )
        collection, _ = uc6_shelter_gap(ds, [ShelterRecord(point=GeoPoint(*s)) for s in shelters], radius_km)
        naive = []
        for ev in events:
            lat, lon = ev.point.latitude, ev.point.longitude
            if min((oracles.scalar_haversine_km(lat, lon, *s) for s in shelters), default=math.inf) > radius_km:
                naive.append(event_iri(ev.dataset, ev.id))
        assert [f["properties"]["event"] for f in collection["features"]] == naive

    def test_shelter_csv_loader(self, tmp_path):
        p = tmp_path / "shelters.csv"
        p.write_text("name,lat,lon\nMetro station,49.99,36.23\n,50.0,36.3\n")
        with p.open() as fp:
            shelters = load_shelters(fp)
        assert len(shelters) == 2
        assert shelters[0].name == "Metro station"
        assert shelters[1].name is None


# The errors of both report-CSV inputs: (reader, file text, message).
REPORT_CSV_ERRORS = [
    pytest.param(read_deaths_csv, "", "deaths CSV must start with header 'month,deaths'",
                 id="deaths-empty"),
    pytest.param(read_deaths_csv, "month,count\n2022-04,5\n",
                 "deaths CSV must start with header 'month,deaths'", id="deaths-wrong-header"),
    pytest.param(read_deaths_csv, "month,deaths\n2022-04,5\n\n2022-05,1,2\n",
                 "deaths CSV line 4: expected 'YYYY-MM,integer'", id="deaths-wrong-width"),
    pytest.param(load_shelters, "", "shelter CSV must start with header 'name,lat,lon'",
                 id="shelter-empty"),
    pytest.param(load_shelters, "name,lon,lat\nx,50.0,36.0\n",
                 "shelter CSV must start with header 'name,lat,lon'", id="shelter-wrong-header"),
    pytest.param(load_shelters, "name,lat,lon\nx,50.0,36.0\n\ny,50.0\n",
                 "shelter CSV line 4: expected 3 columns", id="shelter-wrong-width"),
    # a row is named by its physical line: records were once counted, so a row after a
    # quoted line break was reported one line early
    pytest.param(read_deaths_csv, 'month,deaths\n2022-04,"5\n"\n2022-05\n',
                 "deaths CSV line 4: expected 'YYYY-MM,integer'", id="deaths-after-quoted-break"),
    pytest.param(read_deaths_csv, 'month,deaths\n2022-04,"5\n"\r\n2022-05,x\r\n',
                 "deaths CSV line 4: bad death count 'x'", id="deaths-value-after-quoted-break"),
    pytest.param(load_shelters, 'name,lat,lon\n"Metro\nstation",50.0,36.0\ny,50.0\n',
                 "shelter CSV line 4: expected 3 columns", id="shelter-after-quoted-break"),
    pytest.param(load_shelters, 'name,lat,lon\r\n"Metro\r\nstation",50.0,36.0\r\ny,95.0,36.0\r\n',
                 "shelter CSV line 4: latitude out of range: 95.0",
                 id="shelter-value-after-quoted-break"),
    pytest.param(load_shelters, "name,lat,lon\n" + "x" * 200_000 + ",50.0,36.0\n",
                 "shelter CSV line 2: field larger than field limit (131072)", id="shelter-huge-field"),
]


class TestReportCsvInputs:
    @pytest.mark.parametrize("reader,text,message", REPORT_CSV_ERRORS)
    def test_error(self, reader, text, message):
        with pytest.raises(ReportFormatError) as exc:
            reader(io.StringIO(text))
        assert str(exc.value) == message

    def test_line_ends_as_the_csv_module_reads_them(self):
        text = "name,lat,lon\r\nx,50.0,36.0\ry,51.0,36.0\n"
        assert [s.name for s in load_shelters(io.StringIO(text))] == ["x", "y"]

    def test_blank_rows_skipped(self):
        assert read_deaths_csv(io.StringIO("month,deaths\n\n2022-04,5\n\n")) == {"2022-04": 5}
        shelters = load_shelters(io.StringIO(" name , lat , lon \n\nx,50.0,36.0\n\n"))
        assert shelters == [ShelterRecord(point=GeoPoint(50.0, 36.0), name="x")]


class TestFromNtriples:
    """The one loader against the events it was written from (oracles.reloaded_event)."""

    @staticmethod
    def _expected(events, aggregates) -> IntegratedDataset:
        # a reload lists aggregates by IRI and each one's members in key order
        return IntegratedDataset(
            aggregates=[
                dataclasses.replace(agg, members=tuple(sorted(agg.members)))
                for agg in sorted(aggregates, key=lambda agg: agg.iri)
            ],
            events={ev.key: oracles.reloaded_event(ev) for ev in events},
        )

    def test_fixture(self, dataset):
        data = serialize_bytes(_emit(dataset.events.values(), dataset.aggregates))
        loaded = IntegratedDataset.from_triples(parse_ntriples(data))
        assert loaded == self._expected(dataset.events.values(), dataset.aggregates)
        assert len(loaded.events) == len(dataset.events) and loaded.aggregates

    @settings(max_examples=200, deadline=None)
    @given(_events_and_aggregates())
    def test_emitted_events_and_aggregates(self, drawn):
        data = serialize_bytes(_emit(*drawn))
        expected = self._expected(*drawn)
        assert IntegratedDataset.from_triples(parse_ntriples(data)) == expected
        assert IntegratedDataset.from_triples(parse_ntriples(data.decode("utf-8"))) == expected


class TestReloadEquivalence:
    def test_primary_count_stable(self, dataset, reloaded):
        assert len(reloaded.aggregates) == len(dataset.aggregates)

    def test_uc2_stable(self, dataset, reloaded):
        before = uc2_monthly_keyword_series(dataset, "hospital", DEFAULT_MONTHS)
        after = uc2_monthly_keyword_series(reloaded, "hospital", DEFAULT_MONTHS)
        assert before == after

    def test_uc1_stable(self, dataset, reloaded):
        window = (CivilDate(2022, 2, 1), CivilDate(2023, 4, 30))
        before = sorted(p.wkt for p in uc1_event_points(dataset, None, *window))
        after = sorted(p.wkt for p in uc1_event_points(reloaded, None, *window))
        assert before == after

    def test_uc4_stable(self, dataset, reloaded):
        window = (CivilDate(2022, 2, 1), CivilDate(2023, 5, 1))
        assert uc4_top_regions(dataset, *window, 3) == uc4_top_regions(reloaded, *window, 3)

    def test_uc3_stable(self, dataset, reloaded):
        langs = ["en", "uk", "nl", "fr"]
        before = uc3_multilingual_city_report(dataset, langs, 5)
        after = uc3_multilingual_city_report(reloaded, langs, 5)
        assert [(dict(r.names), r.occurrences) for r in before] == [
            (dict(r.names), r.occurrences) for r in after
        ]
