"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Full-count reproduction over the real source datasets is conditional: the
upstream snapshots are not redistributable, so criterion 1 checks the
arithmetic on fixtures always and checks the real-data counts only when
RESILINK_REAL_DATA points at a run description (see test docstring).
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from resilink import analytics
from resilink.analytics import DEFAULT_MONTHS, IntegratedDataset, ShelterRecord
from resilink.gazetteer import enrich_event, haversine_km, postal_code_for, reverse_geocode
from resilink.integration import Verdict, integrate, similarity
from resilink.linkcheck import LinkChecker, LinkState, link_report
from resilink.model import CivilDate, Dataset, Event, GazetteerRef, GeoPoint
from resilink.rdf import emit_event_triples, parse_ntriples, serialize_bytes
from tests import oracles
from tests.httpmock import ScriptedHandler, start_server, stop_server


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {title}: PASS")


class TestCriterion1CountArithmetic:
    def test_fixture_arithmetic_and_runtime(self, enriched_events):
        with criterion(1, "count arithmetic"):
            eor, ch = enriched_events
            t0 = time.monotonic()
            result = integrate(eor, ch)
            elapsed = time.monotonic() - t0
            c = result.counts
            assert c.integrated == c.a + c.b - c.identical
            assert elapsed < 1.0, f"fixture integration took {elapsed:.2f}s"

    def test_real_datasets_when_supplied(self, tmp_path):
        """Set RESILINK_REAL_DATA to a JSON file with keys eor_input,
        eor_format, ch_input, ch_format, config to run this against the
        real source snapshots. Totals must be 9,308 and 1,105; pair and
        integrated counts are additionally pinned to 206/10,207 when
        RESILINK_REAL_DATA_IS_APRIL_2023_SNAPSHOT=1.
        """
        spec_path = os.environ.get("RESILINK_REAL_DATA")
        if not spec_path:
            pytest.skip("real datasets not supplied (RESILINK_REAL_DATA unset)")
        with criterion(1, "count arithmetic (real data)"):
            from resilink.cli import run_subcommand

            run_spec = json.loads(Path(spec_path).read_text())
            outdir = tmp_path / "real"
            t0 = time.monotonic()
            code = run_subcommand([
                "pipeline",
                "--config", run_spec["config"],
                "--eor-input", run_spec["eor_input"],
                "--eor-format", run_spec.get("eor_format", "json"),
                "--ch-input", run_spec["ch_input"],
                "--ch-format", run_spec.get("ch_format", "json"),
                "--outdir", str(outdir),
            ])
            elapsed = time.monotonic() - t0
            assert code == 0
            counts = json.loads((outdir / "counts.json").read_text())
            assert counts["a"] == 9308
            assert counts["b"] == 1105
            assert counts["integrated"] == counts["a"] + counts["b"] - counts["identical"]
            assert elapsed < 120.0
            if os.environ.get("RESILINK_REAL_DATA_IS_APRIL_2023_SNAPSHOT") == "1":
                assert counts["identical"] == 206
                assert counts["integrated"] == 10207


class TestCriterion2PlantedDuplicates:
    def test_exact_recall_and_precision(self, integrated, enriched_events):
        with criterion(2, "planted-duplicate recall/precision"):
            _, ch = enriched_events
            desc_to_id = {e.description: e.id for e in ch}
            expected_identical = {
                ("eor-001", desc_to_id["Residential building hit by a missile strike"]),
                ("eor-002", desc_to_id["Shelling of industrial area in the north"]),
                ("eor-003", desc_to_id["school damaged by heavy shelling overnight"]),
                ("eor-004", desc_to_id["Hospital destroyed by explosion"]),
                ("eor-005", desc_to_id["theatre sheltering civilians was bombed"]),
            }
            expected_near = {
                ("eor-006", desc_to_id["hospital destroyed by heavy shelling"]),
                ("eor-007", desc_to_id["Strikes reported in the southern area near the rail yard"]),
            }
            got_identical = {
                (p.a, p.b) for p in integrated.pairs if p.verdict is Verdict.IDENTICAL
            }
            got_near = {
                (p.a, p.b) for p in integrated.pairs if p.verdict is Verdict.NEAR_DISTINCT
            }
            assert got_identical == expected_identical
            assert got_near == expected_near


class TestCriterion3SimilarityOracle:
    def test_brute_force_equality(self):
        with criterion(3, "similarity oracle"):
            assert similarity("abcd", "bcde") == 0.75
            rng = random.Random(0xC0FFEE)
            alphabet = "ab cde"
            for _ in range(1000):
                a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                assert similarity(a, b) == oracles.brute_force_ratio(a, b)


class TestCriterion4HaversineCrossCheck:
    def test_law_of_cosines_agreement(self):
        with criterion(4, "haversine cross-check"):
            rng = random.Random(424242)
            checked = 0
            while checked < 1000:
                a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
                b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
                d = haversine_km(a, b)
                if d <= 1.0:
                    continue
                ref = oracles.law_of_cosines_km(
                    a.latitude, a.longitude, b.latitude, b.longitude
                )
                assert abs(d - ref) / ref < 1e-6
                assert haversine_km(a, b) == haversine_km(b, a)
                checked += 1
            p = GeoPoint(48.0, 31.0)
            assert haversine_km(p, p) == 0.0


def _generate_events(n: int) -> list[Event]:
    rng = random.Random(2023)
    events = []
    for i in range(n):
        dataset = Dataset.EOR if rng.random() < 0.5 else Dataset.CH
        date = CivilDate(2022, rng.randint(2, 12), rng.randint(1, 28))
        point = GeoPoint(
            round(rng.uniform(44.0, 52.0), 6), round(rng.uniform(22.0, 40.0), 6)
        )
        description = None
        if rng.random() < 0.7:
            description = rng.choice(
                [
                    "school damaged by shelling",
                    "hospital hit\nsecond line",
                    'quote " and backslash \\ inside',
                    "область пошкоджень",
                    "tab\tseparated detail",
                ]
            )
        labels = {}
        if rng.random() < 0.5:
            labels = {"en": f"City{i % 17}", "uk": f"Місто{i % 17}"}
        events.append(
            Event(
                id=f"gen-{dataset.value}-{i}",
                dataset=dataset,
                date=date,
                point=point,
                description=description,
                city=GazetteerRef(1000 + i % 29) if rng.random() < 0.5 else None,
                province=GazetteerRef(2000 + i % 7, f"Region {i % 7}") if rng.random() < 0.5 else None,
                postal_code=str(60000 + i) if rng.random() < 0.4 else None,
                source_urls=tuple(
                    f"https://t.me/gen{i}/{k}" for k in range(rng.randint(0, 3))
                ),
                comments=tuple(
                    f"violence_level: level-{k}" for k in range(rng.randint(0, 2))
                ),
                city_labels=labels,
            )
        )
    return events


class TestCriterion5RdfRoundTrip:
    def test_fixed_point_over_500_events(self):
        with criterion(5, "RDF round trip"):
            events = _generate_events(500)
            lines = []
            for ev in events:
                lines.extend(emit_event_triples(ev))
            first = serialize_bytes(lines)
            reparsed = oracles.triples_from_rows(parse_ntriples(first))
            second = serialize_bytes(t.render() for t in reparsed)
            assert second == first

            from resilink.rdf import DCT_NS, RDF_NS, event_iri

            by_subject: dict[str, list] = {}
            for t in reparsed:
                by_subject.setdefault(t.subject.value, []).append(t)
            for ev in events:
                node = by_subject[event_iri(ev.dataset, ev.id)]
                assert sum(1 for t in node if t.predicate.value == RDF_NS + "type") == 1
                assert sum(1 for t in node if t.predicate.value == DCT_NS + "date") == 1


class TestCriterion6Enrichment:
    def test_izum_example_and_scan_equivalence(self, gaz_index, overrides):
        with criterion(6, "enrichment"):
            izum = Event(
                id="izum",
                dataset=Dataset.CH,
                date=CivilDate(2022, 3, 7),
                point=GeoPoint(49.2128, 37.2573),
                description="Hospital destroyed by explosion",
                city_name="Izum",
                province_name="Kharkiv",
            )
            out = enrich_event(gaz_index, overrides, izum)
            assert out.postal_code == "64305"
            assert out.province is not None
            assert out.province.iri == "http://sws.geonames.org/706483/"

            far = GeoPoint(44.0, 33.0)
            assert reverse_geocode(gaz_index, far, 30.0) is None
            assert postal_code_for(gaz_index, far, 15.0) is None

            place_coords = [
                (e.point.latitude, e.point.longitude) for e in gaz_index.place_entries
            ]
            postal_coords = [
                (p.point.latitude, p.point.longitude) for p in gaz_index.postal_entries
            ]
            queries = [
                GeoPoint(46.0 + 0.5 * i, 28.0 + j) for i in range(11) for j in range(11)
            ]
            for q in queries:
                got = gaz_index.nearest_place(q, max_km=1e9)
                idx, dist = oracles.scan_nearest(q.latitude, q.longitude, place_coords)
                assert got[0].geoname_id == gaz_index.place_entries[idx].geoname_id
                assert got[1] == dist
                got_post = gaz_index.nearest_postal(q, max_km=1e9)
                idx, dist = oracles.scan_nearest(q.latitude, q.longitude, postal_coords)
                assert got_post[0].postal_code == gaz_index.postal_entries[idx].postal_code
                assert got_post[1] == dist


class TestCriterion7Analytics:
    def test_reports_against_naive_reference(self, integrated, enriched_events):
        with criterion(7, "analytics"):
            eor, ch = enriched_events
            ds = IntegratedDataset.from_events(list(eor) + list(ch), integrated.aggregates)
            primaries = [ev for _, ev in ds.primary_events()]

            buckets = analytics.uc2_monthly_keyword_series(ds, "school", DEFAULT_MONTHS)
            assert len(buckets) == 15
            assert [b.month_year for b in buckets] == list(DEFAULT_MONTHS)
            for bucket in buckets:
                naive = 0
                for ev in primaries:
                    if ev.date.isoformat()[:7] != bucket.month_year:
                        continue
                    literals = (
                        ([ev.description] if ev.description else [])
                        + list(ev.comments)
                        + list(ev.city_labels.values())
                        + ([ev.province.preferred_name] if ev.province and ev.province.preferred_name else [])
                        + ([ev.postal_code] if ev.postal_code else [])
                    )
                    if any("school" in s.lower() for s in literals):
                        naive += 1
                assert bucket.count == naive
            empty_months = [b for b in buckets if b.count == 0]
            assert empty_months, "fixture must exercise zero-fill"

            # uc4: an event exactly on the end date is excluded
            boundary = CivilDate(2022, 11, 2)  # the planted Kherson pair's date
            rows = analytics.uc4_top_regions(ds, CivilDate(2022, 11, 1), boundary, 10)
            kherson_before = sum(r.occurrences for r in rows if r.region == "Kherson")
            naive_before = sum(
                1
                for ev in primaries
                if ev.province
                and ev.province.preferred_name == "Kherson"
                and CivilDate(2022, 11, 1) <= ev.date < boundary
            )
            assert kherson_before == naive_before
            rows_through = analytics.uc4_top_regions(
                ds, CivilDate(2022, 11, 1), CivilDate(2022, 11, 3), 10
            )
            kherson_through = sum(r.occurrences for r in rows_through if r.region == "Kherson")
            assert kherson_through > kherson_before

            shelters = [ShelterRecord(point=GeoPoint(49.9935, 36.2304))]
            collection, grid = analytics.uc6_shelter_gap(ds, shelters, radius_km=1.0)
            assert sum(c.count for c in grid) == len(collection["features"])
            naive_uncovered = sum(
                1
                for ev in primaries
                if oracles.scalar_haversine_km(
                    ev.point.latitude, ev.point.longitude, 49.9935, 36.2304
                )
                > 1.0
            )
            assert len(collection["features"]) == naive_uncovered

            # uc1: inclusive window and city filter vs a naive scan
            window = (CivilDate(2022, 10, 1), CivilDate(2023, 2, 28))
            kherson = GazetteerRef(706448)
            points = analytics.uc1_event_points(ds, kherson, *window)
            naive_points = [
                ev
                for ev in primaries
                if ev.city is not None
                and ev.city.geoname_id == 706448
                and window[0] <= ev.date <= window[1]
            ]
            assert len(points) == len(naive_points) > 0

            # uc3: conjunctive language filter vs a naive group-by
            rows = analytics.uc3_multilingual_city_report(ds, ["en", "uk", "nl", "fr"], 5)
            assert rows
            for row in rows:
                naive = sum(
                    1
                    for ev in primaries
                    if all(
                        ev.city_labels.get(lang) == row.names[lang]
                        for lang in ("en", "uk", "nl", "fr")
                    )
                )
                assert row.occurrences == naive

            # uc5: join arithmetic against hand-computed ratios
            attacks = analytics.monthly_event_counts(ds, ["2022-03", "2022-04"])
            ratio_rows = analytics.uc5_ratio_series(
                attacks, {"2022-03": 4, "2022-04": 2}
            )
            by_month = {b.month_year: b.count for b in attacks}
            assert [r.month_year for r in ratio_rows] == ["2022-03", "2022-04"]
            for r in ratio_rows:
                expected = (
                    {"2022-03": 4, "2022-04": 2}[r.month_year] / by_month[r.month_year]
                    if by_month[r.month_year]
                    else None
                )
                assert r.ratio == expected


class TestCriterion8Linkcheck:
    def test_mock_classification_and_concurrency(self):
        """Invalid-link rates measured against the live upstream services
        depend on web state and are not reproducible offline; this check
        replaces them with a scripted local server.
        """
        with criterion(8, "linkcheck"):
            server = start_server(ScriptedHandler, slow_delay_s=1.2)
            try:
                checker = lambda: LinkChecker(
                    timeout_s=0.4,
                    politeness_s=0.05,
                    base_override=f"http://127.0.0.1:{server.server_address[1]}",
                )

                def ev(i, urls, ds=Dataset.EOR):
                    return Event(
                        id=f"e{i}",
                        dataset=ds,
                        date=CivilDate(2022, 3, 7),
                        point=GeoPoint(49.0, 36.0),
                        source_urls=urls,
                    )

                events = [
                    ev(1, ("https://host/ok",)),
                    ev(2, ("https://host/gone",)),
                    ev(3, ("https://host/forbidden",)),
                    ev(4, ("https://host/slow",)),
                    ev(5, ()),
                ]
                one = link_report(events, concurrency=1, checker=checker())
                eight = link_report(events, concurrency=8, checker=checker())
                assert one.rows == eight.rows

                by_url = {r.url: r.status for r in one.rows}
                assert by_url["https://host/ok"] is LinkState.VALID
                assert by_url["https://host/gone"] is LinkState.BROKEN
                assert by_url["https://host/forbidden"] is LinkState.PERMISSION_REQUIRED
                assert by_url["https://host/slow"] is LinkState.TIMEOUT
                assert by_url[""] is LinkState.MISSING

                stats = one.stats[Dataset.EOR]
                assert sum(stats.counts.values()) == stats.total_urls + stats.missing_events
                assert stats.invalid == 4  # gone + forbidden + slow + missing
                assert stats.invalid_fraction_urls == pytest.approx(4 / 5)
            finally:
                stop_server(server)
