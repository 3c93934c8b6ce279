from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilink.gazetteer import (
    EnrichmentConfig,
    GazetteerEntry,
    GazetteerIndex,
    OverrideTable,
    PointSet,
    REVERSE_GEOCODED_NOTE,
    UnknownGeonameIdError,
    alternate_names_for,
    enrich_event,
    haversine_km,
    load_gazetteer,
    lookup_city_by_name,
    postal_code_for,
    resolve_override,
    reverse_geocode,
)
from resilink.model import CivilDate, Dataset, Event, GazetteerRef, GeoPoint, ResilinkError
from tests import oracles

coords = st.tuples(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)


class TestHaversine:
    def test_identity_is_exactly_zero(self):
        p = GeoPoint(50.0, 36.25)
        assert haversine_km(p, p) == 0.0

    def test_against_law_of_cosines(self):
        d = haversine_km(GeoPoint(50.0, 36.0), GeoPoint(50.0, 37.0))
        ref = oracles.law_of_cosines_km(50.0, 36.0, 50.0, 37.0)
        assert d == pytest.approx(ref, rel=1e-6)

    def test_antipodal_half_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * 6371.0, rel=1e-12)

    @given(coords, coords)
    def test_symmetry_exact(self, a, b):
        pa, pb = GeoPoint(*a), GeoPoint(*b)
        assert haversine_km(pa, pb) == haversine_km(pb, pa)

    @given(coords, coords)
    def test_non_negative(self, a, b):
        assert haversine_km(GeoPoint(*a), GeoPoint(*b)) >= 0.0

    def test_random_pairs_against_law_of_cosines(self):
        rng = random.Random(20230430)
        for _ in range(1000):
            lat1, lon1 = rng.uniform(-89, 89), rng.uniform(-179, 179)
            lat2, lon2 = rng.uniform(-89, 89), rng.uniform(-179, 179)
            d = haversine_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
            if d > 1.0:  # the law of cosines loses precision on tiny arcs
                ref = oracles.law_of_cosines_km(lat1, lon1, lat2, lon2)
                assert d == pytest.approx(ref, rel=1e-6)


def _place_row(gid="2", lat="49.2", lon="37.3") -> str:
    return f"{gid}\tIzyum\tIzyum\tIzum\t{lat}\t{lon}\tP\tPPL\tUA\t63"


class TestLoadGazetteer:
    def test_fixture_counts(self, gaz_index):
        # 15 rows in places.tsv, one is feature class H and gets filtered
        assert len(gaz_index) == 14
        assert len(gaz_index.place_entries) == 8
        assert len(gaz_index.postal_entries) == 8

    def test_empty_files_empty_index(self, tmp_path):
        for name in ("p.tsv", "a.tsv", "z.tsv"):
            (tmp_path / name).write_text("")
        index = load_gazetteer(tmp_path / "p.tsv", tmp_path / "a.tsv", tmp_path / "z.tsv")
        assert len(index) == 0
        assert reverse_geocode(index, GeoPoint(0, 0), 100) is None
        assert postal_code_for(index, GeoPoint(0, 0), 100) is None

    def test_short_row_reports_line(self, tmp_path):
        (tmp_path / "p.tsv").write_text("1\tName\tName\n")
        (tmp_path / "a.tsv").write_text("")
        (tmp_path / "z.tsv").write_text("")
        with pytest.raises(ResilinkError) as exc:
            load_gazetteer(tmp_path / "p.tsv", tmp_path / "a.tsv", tmp_path / "z.tsv")
        assert str(exc.value) == f"{tmp_path / 'p.tsv'}: line 1: expected 10 columns, got 3"

    @pytest.mark.parametrize("brk", ["\u2028", "\x85", "\f", "\x1c", "\x1d", "\x1e"],
                             ids=["U+2028", "U+0085", "form-feed", "x1c", "x1d", "x1e"])
    def test_rows_break_only_at_newline(self, tmp_path, brk):
        # str.splitlines also broke at these, so the row was rejected as
        # "expected 10 columns, got 2" and later errors named the wrong line
        name = f"Iz{brk}yum"
        places = tmp_path / "p.tsv"
        places.write_text(f"2\t{name}\tIzyum\t\t49.2\t37.3\tP\tPPL\tUA\t63\r\n", encoding="utf-8")
        (tmp_path / "a.tsv").write_text("")
        (tmp_path / "z.tsv").write_text("")
        index = load_gazetteer(places, tmp_path / "a.tsv", tmp_path / "z.tsv")
        (entry,) = index.place_entries
        assert (entry.name, entry.admin1_code) == (name, "63")

        with places.open("a", encoding="utf-8") as fp:
            fp.write("3\tBalakliia\n")
        with pytest.raises(ResilinkError) as exc:
            load_gazetteer(places, tmp_path / "a.tsv", tmp_path / "z.tsv")
        assert str(exc.value) == f"{places}: line 2: expected 10 columns, got 2"

    @pytest.mark.parametrize("file, bad_row, message", [
        ("places", "2\tIzyum\tIzyum", "expected 10 columns, got 3"),
        ("places", _place_row(gid="2x"), "bad geonameid: '2x'"),
        ("places", _place_row(lat="north"), "bad latitude: 'north'"),
        ("places", _place_row(lon=""), "bad longitude: ''"),
        ("places", _place_row(lat="95.0"), "latitude out of range: 95.0"),
        ("places", _place_row(lon="-180.5"), "longitude out of range: -180.5"),
        ("places", _place_row(lat="nan"), "latitude out of range: nan"),
        ("places", _place_row(gid="1"), "duplicate geonameid 1"),
        ("alt_names", "11\t1\ten", "expected 4 columns, got 3"),
        ("alt_names", "11\tone\ten\tKharkiv", "bad geonameid: 'one'"),
        ("postal", "UA\t64305\tIzyum\t49.2", "expected 5 columns, got 4"),
        ("postal", "UA\t \tIzyum\t49.2\t37.3", "empty postal code"),
        ("postal", "UA\t64305\tIzyum\t49,2\t37.3", "bad latitude: '49,2'"),
        ("postal", "UA\t64305\tIzyum\t-90.01\t37.3", "latitude out of range: -90.01"),
        ("postal", "UA\t64305\tIzyum\t49.2\tinf", "longitude out of range: inf"),
    ], ids=[
        "places-columns", "places-geonameid", "places-latitude", "places-longitude",
        "places-latitude-range", "places-longitude-range", "places-latitude-nan",
        "places-duplicate", "alt_names-columns", "alt_names-geonameid", "postal-columns",
        "postal-empty-code", "postal-latitude", "postal-latitude-range", "postal-longitude-inf",
    ])
    def test_bad_row_reports_path_and_line(self, tmp_path, file, bad_row, message):
        # one good row, a blank line, then the bad row on line 3 of its file
        good = {
            "places": _place_row(gid="1"),
            "alt_names": "10\t1\ten\tKharkiv",
            "postal": "UA\t61000\tKharkiv\t50.0\t36.25",
        }
        paths = {name: tmp_path / f"{name}.tsv" for name in good}
        for name, path in paths.items():
            path.write_text(good[name] + "\n\n" + (bad_row + "\n" if name == file else ""),
                            encoding="utf-8")
        with pytest.raises(ResilinkError) as exc:
            load_gazetteer(paths["places"], paths["alt_names"], paths["postal"])
        assert exc.value.__cause__.line == 3
        assert str(exc.value) == f"{paths[file]}: line 3: {message}"

    def test_repeated_codes_are_held_once(self, tmp_path):
        # every row once kept its own copy of each code: 3,587 traced bytes a place
        # here, against 3,139 with one string per distinct code and the ASCII name
        # shared with an equal name
        import numpy  # noqa: F401  (PointSet imports it inside the load; keep that out of the trace)

        n = 3000
        rng = random.Random(5)
        places, alternates, postal = [], [], []
        for i in range(n):
            name, ascii_name = (f"Місто{i}", f"Misto{i}") if i % 3 == 0 else (f"Place{i}",) * 2
            places.append(f"{1000 + i}\t{name}\t{ascii_name}\t{name}a,{name}b\t"
                          f"{44 + rng.random() * 8:.5f}\t{22 + rng.random() * 18:.5f}\tP\t"
                          f"{('PPL', 'PPLA', 'PPLX')[i % 3]}\tUA\t{i % 25:02d}")
            alternates += [f"{4 * i + j}\t{1000 + i}\t{lang}\t{name}-{lang}"
                           for j, lang in enumerate(("en", "uk", "nl", "fr"))]
            postal.append(f"UA\t{10000 + i}\tP{i}\t{44 + rng.random() * 8:.5f}\t"
                          f"{22 + rng.random() * 18:.5f}")
        paths = [tmp_path / name for name in ("p.tsv", "a.tsv", "z.tsv")]
        for path, rows in zip(paths, (places, alternates, postal)):
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = load_gazetteer(*paths)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live < 3350 * n
        first, second = index.entry(1001), index.entry(1004)
        assert first.country_code is second.country_code
        assert first.feature_code is second.feature_code
        assert first.ascii_name is first.name
        assert first.alternate_names[2][0] is second.alternate_names[2][0] == "en"
        assert index.postal_entries[0].country_code is first.country_code

    def test_alt_rows_for_unknown_ids_skipped(self, gaz_index):
        # alt_names.tsv carries a row for id 999999 which is not in places
        assert gaz_index.entry(999999) is None

    def test_alternate_names_attached(self, gaz_index):
        entry = gaz_index.entry(705812)
        assert ("uk", "Куп'янськ") in entry.alternate_names
        assert ("", "Kupiansk") in entry.alternate_names  # comma-joined alias


class TestLookupCityByName:
    def test_unambiguous_kharkiv(self, gaz_index):
        # the populated place, never the same-named admin entry
        ref = lookup_city_by_name(gaz_index, "Kharkiv")
        assert ref == GazetteerRef(706482, "Kharkiv")

    def test_unknown_name(self, gaz_index):
        assert lookup_city_by_name(gaz_index, "Nonexistentville") is None

    def test_alias_matches_case_insensitively(self, gaz_index):
        assert lookup_city_by_name(gaz_index, "izum").geoname_id == 689558
        assert lookup_city_by_name(gaz_index, "KUPIANSK").geoname_id == 705812

    def test_ambiguous_resolved_by_hint(self):
        springfield = lambda gid, lat, lon: GazetteerEntry(
            gid, "Springfield", "Springfield", (), GeoPoint(lat, lon), "P", "PPL", "US", "01"
        )
        index = GazetteerIndex([springfield(1, 39.80, -89.64), springfield(2, 44.05, -123.02)], [])
        near_oregon = GeoPoint(44.0, -123.0)
        assert lookup_city_by_name(index, "Springfield", hint=near_oregon).geoname_id == 2
        assert lookup_city_by_name(index, "Springfield", hint=GeoPoint(39.8, -89.6)).geoname_id == 1

    def test_ambiguous_without_hint_is_absent(self):
        entry = lambda gid: GazetteerEntry(
            gid, "Twin", "Twin", (), GeoPoint(10.0 + gid, 10.0), "P", "PPL", "US", "01"
        )
        index = GazetteerIndex([entry(1), entry(2)], [])
        assert lookup_city_by_name(index, "Twin") is None


class TestResolveOverride:
    def test_hit(self):
        table = OverrideTable({"Harkiv": 706482})
        assert resolve_override(table, "Harkiv") == 706482

    def test_miss(self):
        assert resolve_override(OverrideTable({"Harkiv": 706482}), "Lviv") is None

    def test_query_cleaned_before_match(self):
        table = OverrideTable({"Harkiv": 706482})
        assert resolve_override(table, "  Harkiv \r\n") == 706482


class TestNearestNeighbor:
    def test_point_exactly_at_city(self, gaz_index):
        ref = reverse_geocode(gaz_index, GeoPoint(49.2128, 37.2573), 30.0)
        assert ref.geoname_id == 689558

    def test_far_from_everything(self, gaz_index):
        assert reverse_geocode(gaz_index, GeoPoint(0.0, 0.0), 30.0) is None

    def test_between_two_cities_nearer_wins(self, gaz_index):
        # ~2/3 of the way from Kharkiv city toward Merefa
        p = GeoPoint(49.88, 36.12)
        got = reverse_geocode(gaz_index, p, 50.0)
        coords = [(e.point.latitude, e.point.longitude) for e in gaz_index.place_entries]
        idx, _ = oracles.scan_nearest(p.latitude, p.longitude, coords)
        assert got.geoname_id == gaz_index.place_entries[idx].geoname_id

    def test_postal_izum(self, gaz_index):
        assert postal_code_for(gaz_index, GeoPoint(49.2128, 37.2573), 15.0) == "64305"

    def test_postal_absent_when_out_of_range(self, gaz_index):
        assert postal_code_for(gaz_index, GeoPoint(0.0, 0.0), 15.0) is None

    def test_max_km_must_be_positive(self, gaz_index):
        with pytest.raises(ValueError):
            reverse_geocode(gaz_index, GeoPoint(0, 0), 0)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.floats(46.0, 51.0), st.floats(28.0, 38.0)))
    def test_scan_equivalence_places(self, gaz_index, q):
        p = GeoPoint(*q)
        coords = [(e.point.latitude, e.point.longitude) for e in gaz_index.place_entries]
        idx, dist = oracles.scan_nearest(p.latitude, p.longitude, coords)
        got = gaz_index.nearest_place(p, max_km=10_000.0)
        assert got is not None
        assert got[1] == dist
        assert got[0].geoname_id == gaz_index.place_entries[idx].geoname_id

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.floats(46.0, 51.0), st.floats(28.0, 38.0)))
    def test_scan_equivalence_postal(self, gaz_index, q):
        p = GeoPoint(*q)
        coords = [(e.point.latitude, e.point.longitude) for e in gaz_index.postal_entries]
        idx, dist = oracles.scan_nearest(p.latitude, p.longitude, coords)
        got = gaz_index.nearest_postal(p, max_km=10_000.0)
        assert got is not None
        assert got[1] == dist
        assert got[0].postal_code == gaz_index.postal_entries[idx].postal_code


# Two neighbouring float latitudes due north of the query: one is nearer than
# EAST by 8.5e-14 km, the other farther by 7.0e-13 km.
NEAR_TIE_QUERY = (50.0, 36.0)
EAST = (50.0, 36.01)
NORTH_NEARER = (50.006427876092076, 36.0)
NORTH_FARTHER = (50.00642787609208, 36.0)


class TestPointSet:
    """The one nearest-neighbour kernel, held bit for bit to the linear scan."""

    @staticmethod
    def _nearest(targets, q):
        got = PointSet([GeoPoint(*t) for t in targets]).nearest(GeoPoint(*q), math.inf)
        assert got == oracles.scan_nearest(*q, targets)
        return got

    def test_empty_target_set(self):
        assert PointSet([]).nearest(GeoPoint(50.0, 36.0), math.inf) is None

    @pytest.mark.parametrize("radius", ["d", "below-d", "inf", "0", "-1", "nan"])
    def test_radius_keeps_a_target_at_max_km(self, radius):
        target, q = GeoPoint(50.0, 36.25), GeoPoint(50.01, 36.25)
        d = haversine_km(q, target)
        max_km = {"d": d, "below-d": math.nextafter(d, 0)}.get(radius) or float(radius)
        targets = PointSet([target])
        if radius in ("0", "-1", "nan"):
            with pytest.raises(ValueError, match="max_km must be positive"):
                targets.nearest(q, max_km)
        else:
            assert targets.nearest(q, max_km) == (None if radius == "below-d" else (0, d))

    def test_exact_duplicates_first_loaded_wins(self):
        targets = [(49.0, 36.0), (50.0, 36.25), (50.0, 36.25), (50.0, 36.25)]
        assert self._nearest(targets, (50.01, 36.25))[0] == 1
        assert self._nearest(targets, (50.0, 36.25)) == (1, 0.0)

    @pytest.mark.parametrize("q", [(0.0, 180.0), (0.0, -180.0), (0.001, 180.0)])
    def test_targets_straddling_the_antimeridian(self, q):
        targets = [(0.0, 170.0), (0.0, -179.9999), (0.0, 179.9999), (0.0, -170.0)]
        i, km = self._nearest(targets, q)
        assert i in (1, 2) and km < 0.2

    def test_near_tie_below_1e_12_km(self):
        d = {t: oracles.scalar_haversine_km(*NEAR_TIE_QUERY, *t) for t in (EAST, NORTH_NEARER, NORTH_FARTHER)}
        assert 0 < d[EAST] - d[NORTH_NEARER] < 1e-12
        assert 0 < d[NORTH_FARTHER] - d[EAST] < 1e-12
        far = [(51.0, 36.0), (50.0, 38.0)]
        # the strict minimum wins wherever it sits in load order
        assert self._nearest(far + [EAST, NORTH_NEARER], NEAR_TIE_QUERY)[0] == 3
        assert self._nearest(far + [NORTH_NEARER, EAST], NEAR_TIE_QUERY)[0] == 2
        assert self._nearest(far + [NORTH_FARTHER, EAST], NEAR_TIE_QUERY)[0] == 3
        assert self._nearest(far + [EAST, NORTH_FARTHER], NEAR_TIE_QUERY)[0] == 2

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
        spread=st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), max_size=20),
        offsets=st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)), max_size=20),
        copies=st.integers(0, 5),
        rnd=st.randoms(use_true_random=False),
    )
    def test_agrees_with_the_scan(self, q, spread, offsets, copies, rnd):
        # targets far away, targets within ~100 m of the query, and exact copies
        near = [(min(90.0, max(-90.0, q[0] + a)), min(180.0, max(-180.0, q[1] + b))) for a, b in offsets]
        targets = spread + near
        targets += [rnd.choice(targets) for _ in range(copies if targets else 0)]
        rnd.shuffle(targets)
        self._nearest(targets, q)


RADII_KM = [1e-3, 1.0, 15.0, 30.0, 20015.1, math.inf]


def _within(q, targets, max_km):
    """The linear scan's answer, kept only when no farther than max_km."""
    found = oracles.scan_nearest(*q, targets)
    return found if found is not None and found[1] <= max_km else None


def _edge_latitudes(lat: float, max_km: float) -> list[float]:
    """Latitudes max_km due north and south of lat, each with its two float neighbours."""
    out = []
    for sign in (1.0, -1.0):
        edge = lat + sign * math.degrees(max_km / oracles.EARTH_RADIUS_KM)
        for t in (math.nextafter(edge, lat), edge, math.nextafter(edge, sign * math.inf)):
            if -90.0 <= t <= 90.0:
                out.append(t)
    return out


def _wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0  # at most 180.0, reached when the modulo rounds up to 360


@st.composite
def _radius_cases(draw):
    """A query, its targets and a radius: near the poles or the antimeridian, at the band's edges."""
    max_km = draw(st.sampled_from(RADII_KM))
    region = draw(st.sampled_from(["any", "north", "south", "antimeridian"]))
    lat = draw({"north": st.floats(89.0, 90.0), "south": st.floats(-90.0, -89.0)}
               .get(region, st.floats(-90.0, 90.0)))
    lon = draw(st.floats(179.0, 180.0) | st.floats(-180.0, -179.0) if region == "antimeridian"
               else st.floats(-180.0, 180.0))
    # offsets of up to twice the radius, as degrees of latitude
    reach = math.degrees(2 * min(max_km, 20015.1) / oracles.EARTH_RADIUS_KM)
    offsets = draw(st.lists(st.tuples(st.floats(-reach, reach), st.floats(-reach, reach)), max_size=8))
    targets = [(min(90.0, max(-90.0, lat + a)), _wrap_lon(lon + b)) for a, b in offsets]
    targets += [(t, lon) for t in _edge_latitudes(lat, max_km) if draw(st.booleans())]
    targets += draw(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), max_size=3))
    if targets:  # equidistant copies
        targets += draw(st.lists(st.sampled_from(targets), max_size=3))
    return (lat, lon), draw(st.permutations(targets)), max_km


class TestPointSetRadius:
    """A finite radius answers what the linear scan answers, kept only within max_km."""

    @pytest.mark.parametrize("max_km", RADII_KM[:-1])
    @pytest.mark.parametrize("q", [(0.0, 0.0), (50.0, 36.0), (-50.0, 179.99), (89.5, -180.0),
                                   (-89.9999, 10.0), (90.0, 0.0), (-90.0, 0.0)])
    def test_targets_at_the_radius_due_north_and_south(self, q, max_km):
        for t in _edge_latitudes(q[0], max_km):
            # alone, and with max_km set to the target's own distance, which keeps it
            d = oracles.scalar_haversine_km(*q, t, q[1])
            for radius in (max_km, d, math.nextafter(d, 0.0)):
                if radius > 0:
                    got = PointSet([GeoPoint(t, q[1])]).nearest(GeoPoint(*q), radius)
                    assert got == _within(q, [(t, q[1])], radius), (t, radius)

    @settings(max_examples=400, deadline=None)
    @given(_radius_cases())
    def test_agrees_with_the_filtered_scan(self, case):
        q, targets, max_km = case
        got = PointSet([GeoPoint(*t) for t in targets]).nearest(GeoPoint(*q), max_km)
        assert got == _within(q, targets, max_km)


class TestAlternateNames:
    def test_four_languages(self, gaz_index):
        names = alternate_names_for(gaz_index, 705812, {"en", "uk", "nl", "fr"})
        assert names == {
            "en": "Kupyansk",
            "uk": "Куп'янськ",
            "nl": "Koepjansk",
            "fr": "Koupiansk",
        }

    def test_entry_without_labels(self, gaz_index):
        assert alternate_names_for(gaz_index, 706483, {"en", "uk"}) == {}

    def test_language_filter(self, gaz_index):
        assert alternate_names_for(gaz_index, 686967, {"en"}) == {"en": "Zhytomyr"}

    def test_unknown_id(self, gaz_index):
        with pytest.raises(UnknownGeonameIdError):
            alternate_names_for(gaz_index, 424242, {"en"})

    def test_empty_langs_rejected(self, gaz_index):
        with pytest.raises(ValueError):
            alternate_names_for(gaz_index, 705812, set())


def _event(**kwargs) -> Event:
    base = dict(
        id="x",
        dataset=Dataset.CH,
        date=CivilDate(2022, 3, 7),
        point=GeoPoint(49.2128, 37.2573),
    )
    base.update(kwargs)
    return Event(**base)


class TestEnrichEvent:
    def test_izum_running_example(self, gaz_index, overrides):
        ev = _event(city_name="Izum", province_name="Kharkiv")
        out = enrich_event(gaz_index, overrides, ev)
        assert out.city.geoname_id == 689558
        assert out.province.iri == "http://sws.geonames.org/706483/"
        assert out.postal_code == "64305"
        assert out.country.geoname_id == 690791
        assert out.city_labels["uk"] == "Ізюм"
        assert out.city_name is None  # resolved, raw string retired

    def test_already_resolved_is_untouched(self, gaz_index, overrides):
        ev = _event(
            city=GazetteerRef(689558, "Izyum"),
            province=GazetteerRef(706483, "Kharkiv"),
            country=GazetteerRef(690791, "Ukraine"),
            postal_code="64305",
            city_labels={"en": "Izyum", "uk": "Ізюм", "nl": "Izjoem", "fr": "Izioum"},
        )
        assert enrich_event(gaz_index, overrides, ev) == ev

    def test_coordinates_only_fills_everything(self, gaz_index, overrides):
        ev = _event(point=GeoPoint(49.9935, 36.2304))
        out = enrich_event(gaz_index, overrides, ev)
        assert out.city.geoname_id == 706482
        assert out.province.geoname_id == 706483
        assert out.country.geoname_id == 690791
        assert out.postal_code == "61000"
        assert REVERSE_GEOCODED_NOTE not in out.comments  # no name string, no fallback note

    def test_village_string_falls_back_with_note(self, gaz_index, overrides):
        ev = _event(city_name="Small Hamlet", point=GeoPoint(49.215, 37.25))
        out = enrich_event(gaz_index, overrides, ev)
        assert out.city.geoname_id == 689558
        assert REVERSE_GEOCODED_NOTE in out.comments

    def test_override_beats_name_lookup(self, gaz_index, overrides):
        ev = _event(city_name="Harkiv", point=GeoPoint(49.9935, 36.2304))
        out = enrich_event(gaz_index, overrides, ev)
        assert out.city.geoname_id == 706482

    def test_idempotent(self, gaz_index, overrides):
        for ev in (
            _event(city_name="Izum", province_name="Kharkiv"),
            _event(point=GeoPoint(49.9935, 36.2304)),
            _event(city_name="Small Hamlet", point=GeoPoint(49.215, 37.25)),
        ):
            once = enrich_event(gaz_index, overrides, ev)
            assert enrich_event(gaz_index, overrides, once) == once

    def test_beyond_radius_stays_absent(self, gaz_index, overrides):
        ev = _event(point=GeoPoint(44.0, 33.0))  # open water, far from fixtures
        out = enrich_event(gaz_index, overrides, ev, EnrichmentConfig())
        assert out.city is None and out.postal_code is None

    @staticmethod
    def _count_place_scans(monkeypatch) -> list[GeoPoint]:
        calls = []
        real = GazetteerIndex.nearest_place

        def counting(self, p, max_km):
            calls.append(p)
            return real(self, p, max_km)

        monkeypatch.setattr(GazetteerIndex, "nearest_place", counting)
        return calls

    def test_country_fallback_reuses_the_reverse_scan(self, gaz_index, overrides, monkeypatch):
        ev = _event(point=GeoPoint(44.0, 33.0))  # no place within reverse_max_km
        calls = self._count_place_scans(monkeypatch)
        assert enrich_event(gaz_index, overrides, ev) == ev
        assert len(calls) == 1

    def test_country_fallback_scans_for_an_override_id_not_in_the_index(self, gaz_index, monkeypatch):
        ev = _event(city_name="Atlantis")
        calls = self._count_place_scans(monkeypatch)
        out = enrich_event(gaz_index, OverrideTable(mapping={"Atlantis": 999999}), ev)
        assert out.city == GazetteerRef(999999, "Atlantis")
        assert out.country.geoname_id == 690791
        assert len(calls) == 1

    def test_existing_labels_preserved(self, gaz_index, overrides):
        ev = _event(city_name="Kupyansk", city_labels={"en": "Custom"})
        out = enrich_event(gaz_index, overrides, ev)
        assert out.city_labels["en"] == "Custom"
        assert out.city_labels["fr"] == "Koupiansk"
