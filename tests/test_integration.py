from __future__ import annotations

import contextlib
import errno
import importlib.util
import inspect
import os
import random
import select
import signal
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilink import integration
from resilink.integration import (
    IntegrationCounts,
    MatchConfig,
    MatchPair,
    MatchRule,
    Verdict,
    candidate_pairs,
    choose_primary,
    classify_pair,
    integrate,
    normalize_url,
    shares_link,
    similarity,
)
from resilink.cli import run_subcommand
from resilink.gazetteer import haversine_km
from resilink.model import CivilDate, Dataset, Event, GazetteerRef, GeoPoint, events_to_json
from tests import oracles

short_text = st.text(alphabet="ab cd", max_size=12)


class TestSimilarity:
    def test_identical_strings(self):
        assert similarity("hospital destroyed", "hospital destroyed") == 1.0

    def test_empty_vs_nonempty(self):
        assert similarity("", "x") == 0.0

    def test_both_empty(self):
        assert similarity("", "") == 1.0

    def test_hand_case(self):
        assert similarity("abcd", "bcde") == 0.75

    def test_lowercased_before_comparison(self):
        assert similarity("HOSPITAL", "hospital") == 1.0

    def test_against_brute_force_seeded(self):
        rng = random.Random(1138)
        alphabet = "abc d"
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert similarity(a, b) == oracles.brute_force_ratio(a, b)

    def test_against_difflib(self):
        # similarity is difflib's matcher, so it is judged here by the brute-force
        # oracle, on longer strings over a wider alphabet than the set above
        rng = random.Random(31337)
        for _ in range(300):
            a = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 30)))
            b = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 30)))
            assert similarity(a, b) == oracles.brute_force_ratio(a, b)

    def test_long_descriptions_need_no_deep_recursion(self):
        # 200 one-character blocks: a matcher that recurses per block needs ~200 frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            s = similarity("ab" * 200, "ax" * 200)
        finally:
            sys.setrecursionlimit(limit)
        assert s == 0.5

    @settings(max_examples=300)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.text(alphabet="abcdef"[:n], max_size=80)] * 2)))
    def test_against_difflib_small_alphabets(self, pair):
        # few letters make ties between equally long blocks common
        a, b = pair
        assert similarity(a, b) == oracles.difflib_ratio(a, b)

    @settings(max_examples=300)
    @given(*[st.text(alphabet="aAbBİiı çÇ€\U0001F600", max_size=60)] * 2)
    def test_against_difflib_mixed_case_and_non_ascii(self, a, b):
        # "İ".lower() is two characters, so the lowercased lengths set the ratio
        assert similarity(a, b) == oracles.difflib_ratio(a, b)

    def test_long_small_alphabet_pairs_match_difflib(self):
        # 200-600 characters put the top-level blocks above the scan cutoff
        # and most of their sub-blocks below it
        rng = random.Random(2024)
        for _ in range(20):
            alphabet = "abcdef"[:rng.randint(2, 6)]
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(200, 600)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(200, 600)))
            assert similarity(a, b) == oracles.difflib_ratio(a, b)

    def test_periodic_text_is_not_cubic(self):
        # difflib spends about |a| x (occurrences in b) per block here: ~50 s at
        # 2,000 characters; this bound leaves a 10x margin over the ~0.9 s taken
        # on a 2-CPU VM. Ranges above the scan cutoff go to the automaton, so the
        # pair stays quadratic
        start = time.perf_counter()
        assert similarity("ab" * 1000, "ax" * 1000) == 0.5
        assert time.perf_counter() - start < 10.0

    @given(short_text, short_text)
    def test_brute_force_property(self, a, b):
        assert similarity(a, b) == oracles.brute_force_ratio(a.lower(), b.lower())

    @given(short_text)
    def test_self_similarity(self, a):
        assert similarity(a, a) == 1.0

    @given(short_text, short_text)
    def test_bounded(self, a, b):
        assert 0.0 <= similarity(a, b) <= 1.0


def _random_range(rng: random.Random, n: int) -> tuple[int, int]:
    lo = rng.randint(0, n)
    return lo, rng.randint(lo, n)  # empty when hi == lo


class TestBlockFinders:
    """The scan and the automaton, each judged directly on ranges of every size."""

    FINDERS = (integration._scan_block, integration._automaton_block)

    def test_sub_ranges_against_oracle(self):
        rng = random.Random(4711)
        for alphabet in ("a", "ab", "abc", "abc d", "abcdefghij"):
            for _ in range(300):
                a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                alo, ahi = _random_range(rng, len(a))
                blo, bhi = _random_range(rng, len(b))
                want = oracles.longest_block(a, alo, ahi, b, blo, bhi)
                for finder in self.FINDERS:
                    assert finder(a, alo, ahi, b, blo, bhi) == want, (finder, a, b)

    def test_ranges_with_no_shared_character(self):
        for finder in self.FINDERS:
            assert finder("abcabc", 0, 6, "xyzabc", 0, 3) == (0, 0, 0)
            assert finder("abcabc", 1, 4, "", 0, 0) == (0, 0, 0)
            assert finder("", 0, 0, "abc", 0, 3) == (0, 0, 0)

    def test_ranges_above_the_cutoff_against_oracle(self):
        assert 300 * 300 > integration._SCAN_CELLS
        rng = random.Random(8128)
        for alphabet in ("ab", "abc", "abcdef"):
            a = "".join(rng.choice(alphabet) for _ in range(300))
            b = "".join(rng.choice(alphabet) for _ in range(300))
            want = oracles.longest_block(a, 0, 300, b, 0, 300)
            for finder in self.FINDERS:
                assert finder(a, 0, 300, b, 0, 300) == want

    def test_large_ranges_go_to_the_automaton(self, monkeypatch):
        # the scan is cubic at worst, so a range above the cutoff must never reach it
        calls = {"scan": [], "automaton": []}

        def spy(name, finder):
            def wrapped(a, alo, ahi, b, blo, bhi):
                calls[name].append((ahi - alo) * (bhi - blo))
                return finder(a, alo, ahi, b, blo, bhi)
            return wrapped

        monkeypatch.setattr(integration, "_scan_block", spy("scan", integration._scan_block))
        monkeypatch.setattr(
            integration, "_automaton_block", spy("automaton", integration._automaton_block))
        assert similarity("ab" * 150, "ax" * 150) == 0.5
        assert calls["automaton"][0] == 300 * 300  # the top-level block
        assert all(cells > integration._SCAN_CELLS for cells in calls["automaton"])
        assert calls["scan"] and all(cells <= integration._SCAN_CELLS for cells in calls["scan"])

    def test_cutoff_boundary(self, monkeypatch):
        used = []
        monkeypatch.setattr(integration, "_scan_block", lambda *r: used.append("scan"))
        monkeypatch.setattr(integration, "_automaton_block", lambda *r: used.append("automaton"))
        cells = integration._SCAN_CELLS
        b = "a" * (cells + 1)
        integration._longest_block("a", 0, 1, b, 0, cells)
        integration._longest_block("a", 0, 1, b, 0, cells + 1)
        assert used == ["scan", "automaton"]


class TestNormalizeUrl:
    def test_case_and_trailing_slash(self):
        assert normalize_url("https://X/p/1") == normalize_url("https://x/p/1/")

    def test_fragment_dropped(self):
        assert normalize_url("https://x/p#frag") == normalize_url("https://x/p")

    def test_query_preserved(self):
        assert normalize_url("https://x/p?a=1") != normalize_url("https://x/p?a=2")


def _event(dataset=Dataset.EOR, id="a", date=(2022, 3, 7), point=(49.0, 36.0), **kwargs):
    return Event(
        id=id,
        dataset=dataset,
        date=CivilDate(*date),
        point=GeoPoint(*point),
        **kwargs,
    )


class TestSharesLink:
    def test_identical(self):
        a = _event(source_urls=("https://t.me/c/1",))
        b = _event(dataset=Dataset.CH, source_urls=("https://t.me/c/1",))
        assert shares_link(a, b)

    def test_normalized_variants(self):
        a = _event(source_urls=("https://X/p/1",))
        b = _event(dataset=Dataset.CH, source_urls=("https://x/p/1/",))
        assert shares_link(a, b)

    def test_disjoint(self):
        a = _event(source_urls=("https://t.me/c/1",))
        b = _event(dataset=Dataset.CH, source_urls=("https://t.me/c/2",))
        assert not shares_link(a, b)


class TestCandidatePairs:
    def test_same_city_id_and_date(self):
        a = _event(city=GazetteerRef(1, "X"))
        b = _event(dataset=Dataset.CH, city=GazetteerRef(1, "X"))
        assert candidate_pairs([a], [b]) == [(a, b, "geoname_id")]

    def test_dates_one_day_apart(self):
        a = _event(city=GazetteerRef(1, "X"))
        b = _event(dataset=Dataset.CH, date=(2022, 3, 8), city=GazetteerRef(1, "X"))
        assert candidate_pairs([a], [b]) == []

    def test_resolved_ids_disagree_name_ignored(self):
        a = _event(city=GazetteerRef(1, "Same"))
        b = _event(dataset=Dataset.CH, city=GazetteerRef(2, "Same"))
        assert candidate_pairs([a], [b]) == []

    def test_name_fallback(self):
        a = _event(city_name="Izum")
        b = _event(dataset=Dataset.CH, city_name="izum")
        assert candidate_pairs([a], [b]) == [(a, b, "name")]

    def test_resolved_vs_raw_name(self):
        a = _event(city=GazetteerRef(1, "Izyum"))
        b = _event(dataset=Dataset.CH, city_name="Izyum")
        assert candidate_pairs([a], [b]) == [(a, b, "name")]

    def test_missing_both_never_paired(self):
        a = _event()
        b = _event(dataset=Dataset.CH)
        assert candidate_pairs([a], [b]) == []


KM = 1.0 / 111.19492664455873  # degrees of latitude per km


def _pair(desc_a, desc_b, km, urls_a=(), urls_b=()):
    a = _event(
        id="a1",
        description=desc_a,
        city=GazetteerRef(1, "X"),
        source_urls=urls_a,
    )
    b = _event(
        id="b1",
        dataset=Dataset.CH,
        description=desc_b,
        point=(49.0 + km * KM, 36.0),
        city=GazetteerRef(1, "X"),
        source_urls=urls_b,
    )
    return a, b


class TestClassifyPair:
    def test_shared_link_identical(self):
        a, b = _pair(
            "shelling reported downtown", "shelling reported in downtown", 1.5,
            ("https://t.me/c/1",), ("https://t.me/c/1",),
        )
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.IDENTICAL, MatchRule.SHARED_LINK)

    def test_area_identical(self):
        a, b = _pair(
            "shelled area near the plant", "shelled area near the plants", 1.9
        )
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.IDENTICAL, MatchRule.AREA)

    def test_keyword_near_distinct_on_distance(self):
        # similar hospital reports 1.2 km apart: similarity passes, distance fails
        a, b = _pair("hospital destroyed by shelling", "hospital destroyed by shellings", 1.2)
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.NEAR_DISTINCT, MatchRule.KEYWORD)
        assert p.similarity > 0.55

    def test_keyword_identical(self):
        a, b = _pair("school hit overnight", "school hit over night", 0.5)
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.IDENTICAL, MatchRule.KEYWORD)

    def test_shared_link_checked_before_area(self):
        a, b = _pair(
            "area by the school shelled", "area by the school shelled", 1.5,
            ("https://t.me/c/9",), ("https://t.me/c/9",),
        )
        p = classify_pair(a, b, "geoname_id")
        assert p.rule is MatchRule.SHARED_LINK

    def test_area_near_then_keyword_identical_upgrades(self):
        # area check fails on similarity, keyword check passes: Identical wins
        a, b = _pair(
            "area hit: school damaged", "school damaged by strike", 0.5
        )
        p = classify_pair(a, b, "geoname_id")
        assert p.similarity <= 0.75  # area branch could not accept it
        assert (p.verdict, p.rule) == (Verdict.IDENTICAL, MatchRule.KEYWORD)

    def test_area_near_kept_when_keyword_also_fails(self):
        a, b = _pair("storage area hit", "area shelled near rail yard", 1.9)
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.NEAR_DISTINCT, MatchRule.AREA)

    def test_unclassified(self):
        a, b = _pair("smoke across the river", "loud explosions downtown", 0.5)
        p = classify_pair(a, b, "geoname_id")
        assert (p.verdict, p.rule) == (Verdict.UNCLASSIFIED, MatchRule.NONE)

    def test_absent_description_is_empty_string(self):
        a, b = _pair(None, None, 0.1, ("https://t.me/c/1",), ("https://t.me/c/1",))
        p = classify_pair(a, b, "geoname_id")
        assert p.similarity == 1.0  # both empty
        assert p.verdict is Verdict.IDENTICAL

    def test_pure_function(self):
        a, b = _pair("school hit", "school hit", 0.5)
        assert classify_pair(a, b, "geoname_id") == classify_pair(a, b, "geoname_id")

    @pytest.mark.parametrize("basis", ["geoname_id", "name"])
    def test_city_basis_is_carried_from_candidate_generation(self, basis):
        a, b = _pair("school hit", "school hit", 0.5)
        assert classify_pair(a, b, basis).city_basis == basis

    def test_identical_requires_rule(self):
        with pytest.raises(ValueError):
            MatchPair("a", "b", 1.0, 1.0, Verdict.IDENTICAL, MatchRule.NONE, "geoname_id")

    def test_strict_thresholds(self):
        cfg = MatchConfig()
        # exactly at the similarity bound: > is strict, so the area rule rejects
        a, b = _pair("abcdabcd", "abcdab", 0.5)
        s = similarity("abcdabcd", "abcdab")
        assert s == pytest.approx(6 / 7)
        a2, b2 = _pair("x area y", "z area w", 2.0)
        p = classify_pair(a2, b2, "geoname_id", cfg)
        assert p.verdict is not Verdict.IDENTICAL  # distance 2.0 is not < 2.0


class TestChoosePrimary:
    def test_richer_wins(self):
        a = _event(
            id="rich",
            description="d",
            city=GazetteerRef(1, "X"),
            province=GazetteerRef(2, "Y"),
            postal_code="1",
            source_urls=("https://a/1", "https://a/2"),
            comments=("c1", "c2"),
            city_labels={"en": "x"},
        )  # 9 populated items
        b = _event(
            id="poorer",
            dataset=Dataset.CH,
            description="d",
            city=GazetteerRef(1, "X"),
            province=GazetteerRef(2, "Y"),
            postal_code="1",
            source_urls=("https://b/1",),
            comments=("c1",),
            city_labels={"en": "x"},
        )  # 7 populated items
        assert choose_primary(a, b) == a.key
        assert choose_primary(b, a) == a.key

    def test_tie_goes_to_eor(self):
        a = _event(id="e", description="d")
        b = _event(id="c", dataset=Dataset.CH, description="d")
        assert choose_primary(a, b) == a.key
        assert choose_primary(b, a) == a.key


class TestIntegrate:
    def test_planted_fixture_counts(self, integrated):
        c = integrated.counts
        assert c == IntegrationCounts(a=50, b=20, identical=5, near_distinct=2, integrated=65)

    def test_planted_verdicts(self, integrated):
        by_verdict = {}
        for p in integrated.pairs:
            by_verdict.setdefault(p.verdict, []).append(p)
        identical = sorted(p.a for p in by_verdict[Verdict.IDENTICAL])
        assert identical == ["eor-001", "eor-002", "eor-003", "eor-004", "eor-005"]
        near = sorted(p.a for p in by_verdict[Verdict.NEAR_DISTINCT])
        assert near == ["eor-006", "eor-007"]
        rules = {p.a: p.rule for p in integrated.pairs}
        assert rules["eor-001"] is MatchRule.SHARED_LINK
        assert rules["eor-002"] is MatchRule.AREA
        assert rules["eor-003"] is MatchRule.KEYWORD
        assert rules["eor-004"] is MatchRule.KEYWORD
        assert rules["eor-005"] is MatchRule.SHARED_LINK
        assert rules["eor-006"] is MatchRule.KEYWORD
        assert rules["eor-007"] is MatchRule.AREA

    def test_pairs_keep_the_candidate_city_basis(self, integrated, enriched_events):
        basis = {(a.id, b.id): c for a, b, c in candidate_pairs(*enriched_events)}
        assert {(p.a, p.b): p.city_basis for p in integrated.pairs} == basis

    def test_identical_pairs_satisfy_thresholds_post_hoc(self, integrated):
        cfg = MatchConfig()
        for p in integrated.pairs:
            if p.verdict is not Verdict.IDENTICAL:
                continue
            if p.rule is MatchRule.SHARED_LINK:
                assert p.similarity > cfg.sim_link and p.distance_km < cfg.dist_link_km
            elif p.rule is MatchRule.AREA:
                assert p.similarity > cfg.sim_area and p.distance_km < cfg.dist_area_km
            elif p.rule is MatchRule.KEYWORD:
                assert p.similarity > cfg.sim_keyword and p.distance_km < cfg.dist_keyword_km

    def test_each_event_in_exactly_one_aggregate(self, integrated, enriched_events):
        eor, ch = enriched_events
        seen = {}
        for agg in integrated.aggregates:
            for member in agg.members:
                assert member not in seen, f"{member} appears twice"
                seen[member] = agg.iri
        assert set(seen) == {e.key for e in eor} | {e.key for e in ch}

    def test_every_aggregate_has_primary_member(self, integrated):
        for agg in integrated.aggregates:
            assert agg.primary in agg.members

    def test_empty_b_side(self, enriched_events):
        eor, _ = enriched_events
        result = integrate(eor, [])
        assert result.counts.identical == 0
        assert result.counts.integrated == len(eor)
        assert all(len(a.members) == 1 for a in result.aggregates)

    def test_conflict_resolution_keeps_highest_similarity(self):
        shared = ("https://t.me/c/1",)
        a = _event(id="a1", description="school destroyed here", city=GazetteerRef(1, "X"), source_urls=shared)
        b1 = _event(id="b1", dataset=Dataset.CH, description="school destroyed here",
                    city=GazetteerRef(1, "X"), source_urls=shared)
        b2 = _event(id="b2", dataset=Dataset.CH, description="school destroyed near here",
                    point=(49.001, 36.0), city=GazetteerRef(1, "X"), source_urls=shared)
        result = integrate([a], [b1, b2])
        assert result.counts.identical == 1
        surviving = [p for p in result.pairs if p.verdict is Verdict.IDENTICAL]
        assert len(surviving) == 1 and surviving[0].b == "b1"
        demoted = [p for p in result.pairs if p.b == "b2"]
        assert demoted[0].verdict is Verdict.UNCLASSIFIED
        assert result.counts.integrated == 2

    def test_duplicate_ids_within_dataset_rejected(self):
        a1 = _event(id="dup")
        a2 = _event(id="dup", point=(49.5, 36.5))
        with pytest.raises(ValueError):
            integrate([a1, a2], [])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.random_module())
    def test_count_arithmetic_random(self, n_a, n_b, rng_module):
        rng = random.Random(77)
        cities = [GazetteerRef(1, "X"), GazetteerRef(2, "Y"), None]
        descs = ["school hit", "area shelled", "smoke rising", None]

        def mk(ds, i):
            return _event(
                id=f"{ds.value}{i}",
                dataset=ds,
                date=(2022, 3, 1 + rng.randint(0, 2)),
                point=(49.0 + rng.random() * 0.02, 36.0),
                city=rng.choice(cities),
                description=rng.choice(descs),
                source_urls=("https://t.me/c/1",) if rng.random() < 0.4 else (),
            )

        a_events = [mk(Dataset.EOR, i) for i in range(n_a)]
        b_events = [mk(Dataset.CH, i) for i in range(n_b)]
        result = integrate(a_events, b_events)
        c = result.counts
        assert c.integrated == c.a + c.b - c.identical
        assert len(result.aggregates) == c.integrated


class TestPairReport:
    def test_csv_shape(self, integrated, enriched_events, tmp_path):
        eor, ch, out = tmp_path / "eor.json", tmp_path / "ch.json", tmp_path / "pairs.csv"
        eor.write_text(events_to_json(enriched_events[0]))
        ch.write_text(events_to_json(enriched_events[1]))
        assert run_subcommand(["integrate", "--eor", str(eor), "--ch", str(ch),
                               "--out", str(tmp_path / "integrated.nt"), "--pairs", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a_id,b_id,verdict,rule,distance_km,similarity"
        assert len(lines) == 1 + len(integrated.pairs)
        identical_rows = [l for l in lines[1:] if ",Identical," in l]
        assert len(identical_rows) == 5


# ---------------------------------------------------------------------------
# integrate against the reference, and the forked similarity path

DESCRIPTIONS = ("school hit", "School hit near the station", "area shelled", "Area shelled near the school",
                "station hit", "smoke over the river", "", None)
URLS = ("https://t.me/c/1", "HTTPS://T.ME/c/1/", "https://t.me/c/2")


@st.composite
def _worlds(draw):
    """Two small datasets in 2-4 cities over 2-3 days, and a config.

    Candidate pairs, ties in similarity and distance, name and geoname-id
    city bases, and conflicts over one event are common. Each threshold is
    its default or a similarity or distance that some pair has, so that
    pairs sit exactly on a bound.
    """
    n_cities = draw(st.integers(2, 4))
    days = draw(st.integers(2, 3))

    def event(dataset, id):
        # the first city and the first day are the busiest
        c = min(draw(st.sampled_from((0, 0, 0, 1, 2, 3))), n_cities - 1)
        resolved = draw(st.booleans())
        return Event(
            id=id,
            dataset=dataset,
            date=CivilDate(2022, 3, min(draw(st.sampled_from((1, 1, 2, 3))), days)),
            point=GeoPoint(49.0 + draw(st.sampled_from((0.0, 0.5, 1.0, 1.5))) * KM, 36.0),
            description=draw(st.sampled_from(DESCRIPTIONS)),
            city=GazetteerRef(c + 1, f"City {c}") if resolved else None,
            city_name=None if resolved else draw(
                st.sampled_from((f"City {c}", f" city  {c} ", f"CITY {c}", None))),
            postal_code=draw(st.sampled_from((None, "61000"))),
            source_urls=tuple(draw(st.lists(st.sampled_from(URLS), max_size=2))),
        )

    a_ids, b_ids = draw(st.permutations("pqrstu")), draw(st.permutations("pqrstu"))
    a = [event(Dataset.EOR, a_ids[i]) for i in range(draw(st.integers(3, 6)))]
    b = [event(Dataset.CH, b_ids[i]) for i in range(draw(st.integers(3, 6)))]
    sims = sorted({oracles.difflib_ratio(x.description or "", y.description or "") for x in a for y in b})
    dists = sorted({d for x in a for y in b if (d := haversine_km(x.point, y.point)) > 0})
    cfg = MatchConfig(**{
        **{name: draw(st.sampled_from([default, *sims]))
           for name, default in (("sim_link", 0.55), ("sim_area", 0.75), ("sim_keyword", 0.55))},
        **{name: draw(st.sampled_from([default, *dists]))
           for name, default in (("dist_link_km", 2.0), ("dist_area_km", 2.0), ("dist_keyword_km", 1.0))},
    })
    return a, b, cfg


def _count_forks(monkeypatch) -> list[int]:
    """The pids of the workers that integrate forks from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def _real_cpus():
    """Put this process's CPUs back after each test: integrate puts back the
    CPUs it was shown, and a test that fakes them may show fewer than it has."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def _path(name: str):
    """integrate's serial path, or its forked path on any input of two pairs or more."""
    with pytest.MonkeyPatch.context() as mp:
        forks = _count_forks(mp)
        if name == "forked":
            _cpus(mp, 2)
            mp.setattr(integration, "_FORK_CELLS", -1)
            mp.setattr(integration, "_CHUNK_PAIRS", 1)
        else:
            _cpus(mp, 1)
        yield forks


class TestIntegrateReference:
    @pytest.mark.parametrize("path", ["serial", "forked"])
    @settings(max_examples=200, deadline=None)
    @given(world=_worlds())
    def test_integrate_equals_the_reference(self, path, world):
        a, b, cfg = world
        with _path(path) as forks:
            result = integrate(a, b, cfg)
        expected = oracles.integrate_reference(a, b, cfg)
        assert result.pairs == expected.pairs
        assert result.aggregates == expected.aggregates
        assert result.counts == expected.counts
        assert len(forks) == (path == "forked" and len(result.pairs) >= 2)


@pytest.fixture(scope="module")
def crowded():
    """45 events on one day in one city: 500 candidate pairs whose cells pass
    the fork bound, with "ab"*250 against "ax"*250 among them."""
    rng = random.Random(2525)
    words = ("school", "hospital", "area", "shelled", "near", "the", "station", "hit", "roof")

    def text():
        return " ".join(rng.choice(words) for _ in range(24))

    def events(dataset, prefix, n, last):
        return [
            _event(dataset=dataset, id=f"{prefix}{i}", point=(49.0 + rng.random() * 0.02, 36.0),
                   city=GazetteerRef(1, "X"), description=last if i == n - 1 else text())
            for i in range(n)
        ]

    a, b = events(Dataset.EOR, "a", 20, "ab" * 250), events(Dataset.CH, "b", 25, "ax" * 250)
    cells = sum(len(x.description) * len(y.description) for x in a for y in b)
    assert cells > integration._FORK_CELLS
    return a, b


@pytest.fixture(scope="module")
def crowded_serial(crowded):
    with _path("serial") as forks:
        result = integrate(*crowded)
    assert not forks
    return result


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSimilarities:
    def test_forked_results_equal_serial(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        assert integrate(*crowded) == crowded_serial
        assert len(forks) == 1
        _no_child_left()

    def test_one_worker_per_spare_cpu(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 4)
        assert integrate(*crowded) == crowded_serial
        assert len(forks) == 3
        _no_child_left()

    def test_single_cpu_affinity_runs_serially(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            assert integrate(*crowded) == crowded_serial
        finally:
            os.sched_setaffinity(0, cpus)
        assert not forks

    def test_a_second_thread_runs_serially(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert integrate(*crowded) == crowded_serial
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forks

    def test_failed_fork_gives_exact_results(self, crowded, crowded_serial, monkeypatch):
        def refused():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        _cpus(monkeypatch, 4)
        assert integrate(*crowded) == crowded_serial

    @staticmethod
    def _worker_signals(monkeypatch, then):
        """Make each worker, on its first pair, write a byte to a pipe and call
        `then`; this process reads the byte before its own first pair, so a
        worker has taken a chunk by then."""
        parent, similarity = os.getpid(), integration.similarity
        started_r, started_w = os.pipe()

        def signalling(a, b):
            if os.getpid() != parent:
                os.write(started_w, b"w")
                then()
            elif not signalling.waited:
                signalling.waited = True
                assert select.select([started_r], [], [], 30)[0], "no worker started"
            return similarity(a, b)

        signalling.waited = False
        monkeypatch.setattr(integration, "similarity", signalling)
        return started_r, started_w

    def test_killed_worker_gives_exact_results(self, crowded, crowded_serial, monkeypatch):
        fds = self._worker_signals(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        statuses, waitpid = [], os.waitpid

        def recorded(pid, options):
            got = waitpid(pid, options)
            statuses.append(got[1])
            return got

        monkeypatch.setattr(os, "waitpid", recorded)
        _cpus(monkeypatch, 2)
        try:
            assert integrate(*crowded) == crowded_serial
        finally:
            for fd in fds:
                os.close(fd)
        assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL]
        _no_child_left()

    def test_worker_killed_mid_chunk_keeps_what_it_wrote(self, crowded, crowded_serial, monkeypatch):
        pairs, taken = 0, 0

        def second_pair_kills():
            nonlocal pairs
            pairs += 1  # the worker's own copy: it has written its first pair by the second
            if pairs == 2:
                os.kill(os.getpid(), signal.SIGKILL)

        fds = self._worker_signals(monkeypatch, second_pair_kills)
        parent, signalling = os.getpid(), integration.similarity

        def counted(a, b):
            nonlocal taken
            taken += os.getpid() == parent
            return signalling(a, b)

        statuses, waitpid = [], os.waitpid

        def recorded(pid, options):
            got = waitpid(pid, options)
            statuses.append(got[1])
            return got

        monkeypatch.setattr(integration, "similarity", counted)
        monkeypatch.setattr(os, "waitpid", recorded)
        _cpus(monkeypatch, 2)
        assert integration._CHUNK_PAIRS == 8
        try:
            result = integrate(*crowded)
        finally:
            for fd in fds:
                os.close(fd)
        assert result == crowded_serial
        assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL]
        assert taken == len(result.pairs) - 1  # this process computed all but the written pair
        _no_child_left()

    def _integrate_raises(self, crowded, monkeypatch) -> None:
        """integrate(*crowded), on two CPUs or more, raises in this process
        after a worker has started, while the worker sleeps; the sleeping
        worker must be killed, not awaited."""
        fds = self._worker_signals(monkeypatch, lambda: time.sleep(60))
        calls = 0
        similarity = integration.similarity

        def failing(a, b):
            nonlocal calls
            calls += 1
            if calls == 2:  # in this process, after a worker has started
                raise RuntimeError("stop")
            return similarity(a, b)

        monkeypatch.setattr(integration, "similarity", failing)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="stop"):
                integrate(*crowded)
        finally:
            for fd in fds:
                os.close(fd)
        assert time.monotonic() - started < 30

    def test_no_child_left_when_integrate_raises(self, crowded, monkeypatch):
        _cpus(monkeypatch, 2)
        self._integrate_raises(crowded, monkeypatch)
        _no_child_left()

    def test_no_fd_left(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        before = set(os.listdir("/proc/self/fd"))
        assert integrate(*crowded) == crowded_serial
        assert set(os.listdir("/proc/self/fd")) == before
        assert len(forks) == 1

    def test_no_fd_left_when_integrate_raises(self, crowded, monkeypatch):
        _cpus(monkeypatch, 2)
        before = set(os.listdir("/proc/self/fd"))
        self._integrate_raises(crowded, monkeypatch)
        assert set(os.listdir("/proc/self/fd")) == before

    def test_each_process_asks_for_its_own_cpu(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 4)
        asked_r, asked_w = os.pipe()

        def recorded(pid, cpus):  # the workers inherit it, and write to the same pipe
            os.write(asked_w, f"{os.getpid()} {','.join(map(str, sorted(cpus)))}\n".encode())

        monkeypatch.setattr(os, "sched_setaffinity", recorded)
        try:
            result = integrate(*crowded)
        finally:
            os.close(asked_w)
            with os.fdopen(asked_r) as fp:
                asked = [line.split() for line in fp]
        assert result == crowded_serial
        assert len(forks) == 3
        by_pid = {}
        for pid, cpus in asked:
            by_pid.setdefault(int(pid), []).append(cpus)
        # each worker once, on CPU n + 1; this process on CPU 0, then back on all four
        assert by_pid == {os.getpid(): ["0", "0,1,2,3"], **{pid: [str(n + 1)] for n, pid in enumerate(forks)}}
        _no_child_left()

    def test_affinity_is_put_back(self, crowded, crowded_serial, monkeypatch):
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("the forked path needs two CPUs in this process's affinity")
        parent, similarity = os.getpid(), integration.similarity
        seen = set()

        def watched(a, b):
            if os.getpid() == parent:
                seen.add(frozenset(os.sched_getaffinity(0)))
            return similarity(a, b)

        forks = _count_forks(monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(integration, "similarity", watched)
            assert integrate(*crowded) == crowded_serial
        assert forks
        assert frozenset({min(cpus)}) in seen  # placed while it computed its share
        assert os.sched_getaffinity(0) == cpus
        self._integrate_raises(crowded, monkeypatch)
        assert os.sched_getaffinity(0) == cpus
        _no_child_left()

    def test_refused_placement_gives_exact_results(self, crowded, crowded_serial, monkeypatch):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)

        def refused(pid, cpus):
            raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refused)
        assert integrate(*crowded) == crowded_serial
        assert len(forks) == 1
        _no_child_left()


# ---------------------------------------------------------------------------
# The fork at its real threshold, on the benchmark's integrate-dense corpus

ROOT = Path(__file__).resolve().parents[1]


def _load_bench(mp: pytest.MonkeyPatch, name: str):
    """bench/<name>.py, read-only, as the module `name` while mp holds."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)  # dataclasses, and checks' import of generate, look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dense_corpus(tmp_path_factory):
    """The enriched EoR and CH JSON of the benchmark's third-scale integrate-dense
    corpus, and the check of a pairs.csv against its planted truth. 3,103
    and 368 events in 10 cities give candidate pairs of 35-43 M cells,
    with "ab"*250 against "ax"*250 among them."""
    with pytest.MonkeyPatch.context() as mp:
        generate, checks = _load_bench(mp, "generate"), _load_bench(mp, "checks")
    corpus = generate.make_corpus(2811, n_cities=10, n_days=100, miss_share=0.0,
                                  n_decoys=40, adversarial=True)
    eor, ch = generate.write_enriched(corpus, tmp_path_factory.mktemp("dense"))
    truth, ch_points = generate.truth_doc(corpus), checks.ch_points(ch)
    return eor, ch, lambda pairs: checks.check_pairs(pairs, truth, ch_points)


def test_fork_at_the_real_threshold_writes_what_one_cpu_writes(dense_corpus, tmp_path, monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("the fork needs two CPUs in this process's affinity")
    forks = _count_forks(monkeypatch)
    eor, ch, check_pairs = dense_corpus
    outputs = ("integrated.nt", "pairs.csv", "counts.json")
    written = {}
    for run, affinity in (("two", cpus[:2]), ("one", cpus[:1])):
        out = tmp_path / run
        os.sched_setaffinity(0, affinity)
        try:
            assert run_subcommand(["integrate", "--eor", str(eor), "--ch", str(ch),
                                   *(f"--{flag}={out / name}" for flag, name in
                                     zip(("out", "pairs", "counts"), outputs))]) == 0
        finally:
            os.sched_setaffinity(0, cpus)
        written[run] = [(out / name).read_bytes() for name in outputs]
        assert len(forks) == 1  # the two-CPU run forked its one worker; the one-CPU run none
    assert written["two"] == written["one"]
    assert check_pairs(tmp_path / "two" / "pairs.csv") == []
    _no_child_left()
