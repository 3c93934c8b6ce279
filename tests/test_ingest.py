from __future__ import annotations

import gc
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resilink.ingest import (
    AdapterConfig,
    MissingMandatoryFieldError,
    RecordError,
    SourceFormat,
    clean_location_string,
    normalize_record,
    normalize_records,
    parse_dataset,
    split_location_parts,
)
from resilink.model import Dataset, InputFormatError

CFG = AdapterConfig.from_dict(
    {
        "id": "id",
        "date": "date",
        "lat": "lat",
        "lon": "lon",
        "description": "desc",
        "country": "country",
        "city": "city",
        "province": "province",
        "url": "url",
        "violence_level": "level",
    }
)


def _record(**fields) -> dict:
    base = {"date": "2022-03-07T00:00:00", "lat": "49.2128", "lon": "37.2573"}
    base.update(fields)
    return base


def _parse_json(objs, cfg=CFG):
    return parse_dataset(json.dumps(objs).encode(), Dataset.EOR, SourceFormat.JSON, cfg)


class TestParseDataset:
    def test_three_objects_three_records(self):
        records = _parse_json([_record(), _record(), _record()])
        assert len(records) == 3
        assert [r.index for r in records] == [0, 1, 2]

    def test_empty_array(self):
        assert _parse_json([]) == []

    def test_missing_date_field(self):
        with pytest.raises(MissingMandatoryFieldError) as exc:
            _parse_json([_record(), {"lat": "1", "lon": "2"}])
        assert exc.value.field_name == "date"
        assert exc.value.record_index == 1

    def test_json_syntax_error_carries_offset(self):
        # the json module's own error, whose message names the line and column
        with pytest.raises(json.JSONDecodeError) as exc:
            parse_dataset(b'[{"date": }]', Dataset.EOR, SourceFormat.JSON, CFG)
        assert (exc.value.pos, exc.value.lineno, exc.value.colno) == (10, 1, 11)

    def test_values_kept_verbatim(self):
        records = _parse_json([_record(city="\r\nZhytomyr ")])
        assert records[0].fields["city"] == "\r\nZhytomyr "

    def test_list_values_become_tokens(self):
        records = _parse_json([_record(url=["https://a/1", "https://b/2"])])
        assert records[0].fields["url"] == "https://a/1 https://b/2"

    def test_csv_with_header(self):
        data = b"date,lat,lon\n2022-03-07,49.2,37.2\n"
        records = parse_dataset(data, Dataset.CH, SourceFormat.CSV, CFG)
        assert len(records) == 1
        assert records[0].fields["lat"] == "49.2"

    def test_csv_missing_header(self):
        with pytest.raises(InputFormatError):
            parse_dataset(b"", Dataset.CH, SourceFormat.CSV, CFG)

    def test_csv_ragged_row(self):
        data = b"date,lat,lon\n2022-03-07,49.2\n"
        with pytest.raises(InputFormatError) as exc:
            parse_dataset(data, Dataset.CH, SourceFormat.CSV, CFG)
        assert exc.value.line == 2

    @pytest.mark.parametrize("bad", [b"2022-03-08,49.2\n", b"2022-03-08,49.2,37\r2,x\n"],
                             ids=["ragged", "bare-cr"])
    @pytest.mark.parametrize("char", ["\u2028", "\x0c"], ids=["line-separator", "form-feed"])
    def test_csv_error_offset_after_a_non_newline_line_break(self, char, bad):
        # str.splitlines breaks at these characters, the csv reader does not
        good = f"date,lat,lon,city\n2022-03-07,49.2,37.2,Iz{char}um\n".encode()
        with pytest.raises(InputFormatError) as exc:
            parse_dataset(good + bad, Dataset.CH, SourceFormat.CSV, CFG)
        assert exc.value.line == 3

    def test_csv_quoted_newline_in_field(self):
        data = b'date,lat,lon,city\n2022-03-07,49.2,37.2,"\r\nZhytomyr"\n'
        records = parse_dataset(data, Dataset.CH, SourceFormat.CSV, CFG)
        assert records[0].fields["city"] == "\r\nZhytomyr"

    def test_invalid_utf8(self):
        with pytest.raises(InputFormatError) as exc:
            parse_dataset(b"[\xff]", Dataset.EOR, SourceFormat.JSON, CFG)
        assert str(exc.value) == "line 1: invalid UTF-8"

    def test_mandatory_mapping_required(self):
        with pytest.raises(ValueError):
            AdapterConfig.from_dict({"date": "d"})

    def test_unknown_canonical_name_rejected(self):
        with pytest.raises(ValueError):
            AdapterConfig.from_dict({"date": "d", "lat": "a", "lon": "b", "bogus": "x"})


class TestCleanLocationString:
    def test_messy_prefix(self):
        assert clean_location_string("\r\nZhytomyr") == "Zhytomyr"

    def test_identity(self):
        assert clean_location_string("Kyiv") == "Kyiv"

    def test_collapse_runs(self):
        assert clean_location_string("  Merefa,   Kharkiv ") == "Merefa, Kharkiv"

    @given(st.text())
    def test_idempotent(self, s):
        once = clean_location_string(s)
        assert clean_location_string(once) == once


class TestSplitLocationParts:
    def test_city_and_region(self):
        assert split_location_parts("Izum, Kharkiv region") == ["Izum", "Kharkiv"]

    def test_single_part(self):
        assert split_location_parts("Kharkiv") == ["Kharkiv"]

    def test_misordered_parts_preserved(self):
        assert split_location_parts("Kyiv region, Donetsk") == ["Kyiv", "Donetsk"]

    def test_region_strip_is_case_insensitive(self):
        assert split_location_parts("Kharkiv Region") == ["Kharkiv"]

    def test_region_inside_name_untouched(self):
        assert split_location_parts("Regionville") == ["Regionville"]

    def test_empty_parts_dropped(self):
        assert split_location_parts("Kyiv, , Kharkiv region") == ["Kyiv", "Kharkiv"]

    def test_bare_region_part_kept(self):
        # only a trailing " region" word is a suffix; a lone "region" is a name
        assert split_location_parts("Kyiv, region") == ["Kyiv", "region"]


class TestNormalizeRecord:
    def test_violence_level_becomes_comment(self):
        records = _parse_json([_record(level="significant")])
        ev = normalize_record(records[0], CFG)
        assert "violence_level: significant" in ev.comments

    def test_missing_country_stays_absent(self):
        records = _parse_json([_record()])
        ev = normalize_record(records[0], CFG)
        assert ev.country is None and ev.country_name is None

    def test_out_of_range_latitude_names_record(self):
        records = _parse_json([_record(), _record(lat="91.0")])
        with pytest.raises(RecordError) as exc:
            normalize_record(records[1], CFG)
        assert exc.value.record_index == 1

    def test_city_string_split_into_city_and_province(self):
        records = _parse_json([_record(city="Izum, Kharkiv region")])
        ev = normalize_record(records[0], CFG)
        assert ev.city_name == "Izum"
        assert ev.province_name == "Kharkiv"

    def test_explicit_province_wins_over_split(self):
        records = _parse_json([_record(city="Izum, Kharkiv region", province="Donetsk region")])
        ev = normalize_record(records[0], CFG)
        assert ev.province_name == "Donetsk"

    def test_time_of_day_discarded(self):
        records = _parse_json([_record(date="2022-03-07T23:59:59")])
        ev = normalize_record(records[0], CFG)
        assert ev.date.isoformat() == "2022-03-07"

    def test_source_id_used_when_present(self):
        records = _parse_json([_record(id="abc-1")])
        assert normalize_record(records[0], CFG).id == "abc-1"

    def test_content_hash_when_id_absent(self):
        records = _parse_json([_record()] * 2)
        a, b = (normalize_record(r, CFG) for r in records)
        assert a.id == b.id  # same content, same fallback id
        assert len(a.id) == 16

    def test_multiple_urls_split(self):
        records = _parse_json([_record(url="https://a/1 https://b/2")])
        ev = normalize_record(records[0], CFG)
        assert ev.source_urls == ("https://a/1", "https://b/2")

    def test_bad_url_rejects_record(self):
        records = _parse_json([_record(url="not-a-url")])
        with pytest.raises(RecordError):
            normalize_record(records[0], CFG)


class TestNormalizeRecords:
    def test_count_preservation(self):
        records = _parse_json([_record(), _record(lat="95"), _record(desc="x"), _record(date="2022-02-30")])
        events, rejected = normalize_records(records, CFG)
        assert len(events) + len(rejected) == len(records)
        assert len(rejected) == 2
        assert sorted(e.record_index for e in rejected) == [1, 3]

    @pytest.mark.parametrize("bad", [{"lat": "95"}, {"lat": "x"}, {"date": "2022-02-30"},
                                     {"desc": "\ud800"}, {"url": "not-a-url"}],
                             ids=["lat-range", "lat-text", "date", "surrogate", "url"])
    def test_rejected_record_leaves_no_cyclic_garbage(self, bad):
        # the error was kept with its traceback, whose frames hold this batch's
        # records and events in a cycle that a command, run without the collector, never freed
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            events, rejected = normalize_records(
                _parse_json([_record(), _record(**bad), _record(desc="x")]), CFG)
            assert (len(events), len(rejected)) == (2, 1)
            del events, rejected
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not left & {"RawEventRecord", "Event"}

    def test_determinism(self):
        payload = [_record(desc="x"), _record(desc="y", level="minor")]
        one = normalize_records(_parse_json(payload), CFG)[0]
        two = normalize_records(_parse_json(payload), CFG)[0]
        assert one == two
