from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resilink.model import (
    CivilDate,
    Dataset,
    Event,
    GazetteerRef,
    GeoPoint,
    InputFormatError,
    InvalidDateError,
    MalformedDateError,
    OutOfRangeError,
    content_event_id,
    csv_rows,
    decode_utf8,
    event_from_dict,
    event_to_dict,
    events_from_json,
    events_to_json,
    parse_civil_date,
    validate_point,
)


class TestValidatePoint:
    def test_in_range(self):
        p = validate_point(49.9935, 36.2304)
        assert (p.latitude, p.longitude) == (49.9935, 36.2304)

    def test_latitude_out_of_range(self):
        with pytest.raises(OutOfRangeError) as exc:
            validate_point(91.0, 0.0)
        assert exc.value.axis == "latitude"

    def test_longitude_out_of_range(self):
        with pytest.raises(OutOfRangeError) as exc:
            validate_point(0.0, -180.5)
        assert exc.value.axis == "longitude"

    def test_boundaries_inclusive(self):
        p = validate_point(-90.0, 180.0)
        assert (p.latitude, p.longitude) == (-90.0, 180.0)

    def test_nan_rejected(self):
        with pytest.raises(OutOfRangeError):
            validate_point(float("nan"), 0.0)

    @given(st.floats(-90, 90), st.floats(-180, 180))
    def test_revalidation_is_idempotent(self, lat, lon):
        p = validate_point(lat, lon)
        assert validate_point(p.latitude, p.longitude) == p


class TestParseCivilDate:
    def test_midnight_time_discarded(self):
        assert parse_civil_date("2022-03-07T00:00:00") == CivilDate(2022, 3, 7)

    def test_plain_date(self):
        assert parse_civil_date("2022-03-07") == CivilDate(2022, 3, 7)

    def test_impossible_date(self):
        with pytest.raises(InvalidDateError):
            parse_civil_date("2022-02-30")

    @pytest.mark.parametrize("text, message", [
        ("0000-01-01", "not a real calendar date: 0-1-1"),
        ("2023-02-29", "not a real calendar date: 2023-2-29"),
    ])
    def test_impossible_date_message(self, text, message):
        with pytest.raises(InvalidDateError) as info:
            parse_civil_date(text)
        assert str(info.value) == message

    def test_malformed(self):
        for bad in ("07/03/2022", "not a date", "2022-3-7", ""):
            with pytest.raises(MalformedDateError):
                parse_civil_date(bad)

    def test_timezone_designators_discarded(self):
        assert parse_civil_date("2022-03-07T13:45:00Z") == CivilDate(2022, 3, 7)
        assert parse_civil_date("2022-03-07T13:45:00+02:00") == CivilDate(2022, 3, 7)

    @given(st.dates())
    def test_time_suffix_never_changes_the_day(self, d):
        s = d.isoformat()
        assert parse_civil_date(s) == parse_civil_date(s + "T23:59:59")

    def test_ordering(self):
        assert CivilDate(2022, 2, 28) < CivilDate(2022, 3, 1) < CivilDate(2023, 1, 1)


class TestGazetteerRef:
    def test_iri_shape(self):
        assert GazetteerRef(706483).iri == "http://sws.geonames.org/706483/"

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            GazetteerRef(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_iri_round_trips(self, gid):
        ref = GazetteerRef(gid, "Somewhere")
        assert GazetteerRef.from_iri(ref.iri, "Somewhere") == ref


def _event(**kwargs) -> Event:
    base = dict(
        id="e1",
        dataset=Dataset.EOR,
        date=CivilDate(2022, 3, 7),
        point=GeoPoint(49.2128, 37.2573),
    )
    base.update(kwargs)
    return Event(**base)


class TestEvent:
    def test_empty_comment_rejected(self):
        with pytest.raises(ValueError):
            _event(comments=("ok", ""))

    def test_relative_url_rejected(self):
        with pytest.raises(ValueError):
            _event(source_urls=("/relative/path",))

    @pytest.mark.parametrize("url", ["\x01https://x/", " https://x/", "ht\ttps://x/", "https://e\nx/"])
    def test_url_that_urlsplit_must_repair_rejected(self, url):
        with pytest.raises(ValueError):
            _event(source_urls=(url,))

    def test_repeats_kept_once_in_first_seen_order(self):
        ev = _event(source_urls=["https://x/b", "https://x/a", "https://x/b"], comments=("0", "1", "0"))
        assert (ev.source_urls, ev.comments) == (("https://x/b", "https://x/a"), ("0", "1"))

    def test_label_language_must_be_two_lowercase_letters(self):
        with pytest.raises(ValueError):
            _event(city_labels={"EN": "Izyum"})

    def test_labels_are_read_only(self):
        ev = _event(city_labels={"en": "Izyum"})
        with pytest.raises(TypeError):
            ev.city_labels["uk"] = "x"

    def test_content_id_is_deterministic(self):
        a = content_event_id(Dataset.CH, CivilDate(2022, 3, 7), GeoPoint(49.2, 37.2), "x")
        b = content_event_id(Dataset.CH, CivilDate(2022, 3, 7), GeoPoint(49.2, 37.2), "x")
        c = content_event_id(Dataset.CH, CivilDate(2022, 3, 7), GeoPoint(49.2, 37.2), "y")
        assert a == b != c


class TestCanonicalJson:
    def test_optional_fields_omitted(self):
        d = event_to_dict(_event())
        assert set(d) == {"id", "dataset", "date", "lat", "lon"}

    def test_round_trip_minimal(self):
        ev = _event()
        assert event_from_dict(event_to_dict(ev)) == ev

    def test_round_trip_full(self):
        ev = _event(
            description="Hospital destroyed by explosion",
            city=GazetteerRef(689558, "Izyum"),
            province=GazetteerRef(706483, "Kharkiv"),
            country=GazetteerRef(690791, "Ukraine"),
            postal_code="64305",
            source_urls=("https://t.me/x/1",),
            comments=("violence_level: significant",),
            city_labels={"en": "Izyum", "uk": "Ізюм"},
        )
        assert event_from_dict(event_to_dict(ev)) == ev

    def test_unresolved_names_survive(self):
        ev = _event(city_name="Izum", province_name="Kharkiv")
        back = event_from_dict(event_to_dict(ev))
        assert back.city_name == "Izum" and back.province_name == "Kharkiv"
        assert back.city is None

    def test_array_round_trip(self):
        events = [_event(), _event(id="e2", description="x")]
        assert events_from_json(events_to_json(events).encode()) == events

    def test_rerun_is_byte_identical(self):
        events = [_event(city_labels={"uk": "a", "en": "b"})]
        assert events_to_json(events) == events_to_json(events)

    def test_text_is_the_indented_dump_across_many_batches(self):
        # the encoder's pieces are joined 4096 at a time; 600 events make about 18k pieces
        events = [
            _event(id=f"e{i}", description="Школа пошкоджена" if i % 3 else "school hit",
                   comments=("violence_level: significant",), source_urls=(f"https://x/{i}",),
                   city_labels={"en": "Izyum", "uk": "Ізюм"} if i % 2 else {})
            for i in range(600)
        ]
        expected = json.dumps([event_to_dict(ev) for ev in events], ensure_ascii=False, indent=2)
        assert events_to_json(events) == expected
        assert events_to_json([]) == "[]"


class TestDecodeUtf8:
    def test_line_counts_from_the_given_first_line(self):
        with pytest.raises(InputFormatError) as exc:
            decode_utf8(b"a\nb\xff\n", line=7)
        assert (exc.value.line, str(exc.value)) == (8, "line 8: invalid UTF-8")

    def test_valid_text(self):
        assert decode_utf8("Ізюм\n".encode()) == "Ізюм\n"

    def test_byte_order_mark_dropped_on_line_1_only(self):
        # spreadsheet exports and Windows tools start a file with one
        assert decode_utf8("\ufeffa\n\ufeffb\n".encode()) == "a\n\ufeffb\n"
        assert decode_utf8("\ufeff\ufeffa".encode()) == "\ufeffa"
        assert decode_utf8("\ufeffb\n".encode(), line=2) == "\ufeffb\n"


# CSV fields with the csv module's special characters, and characters a str
# splits lines at but the csv module does not
_csv_field = st.lists(st.sampled_from([*"a,\" \x0c\x85 é", "\n", "\r", "\r\n"]),
                      max_size=6).map("".join)
_line_end = st.sampled_from(["\n", "\r\n", "\r"])


def _csv_line(fields: list[str]) -> str:
    return ",".join(
        '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f for f in fields
    )


_csv_text = st.lists(st.tuples(st.lists(_csv_field, max_size=3), _line_end), max_size=6).map(
    lambda rows: "".join(_csv_line(fields) + end for fields, end in rows))


class TestCsvRows:
    @given(text=_csv_text)
    def test_rows_and_lines_are_the_csv_modules(self, text):
        reader = csv.reader(io.StringIO(text, newline=""))
        rows = [(reader.line_num, row) for row in reader]
        expected = rows[:1] + [(line, row) for line, row in rows[1:] if row]
        assert list(csv_rows(text.encode())) == expected

    @given(text=_csv_text.filter(bool), data=st.data())
    def test_invalid_utf8_is_named_by_its_physical_line(self, text, data):
        lines = text.encode().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = b"\xff" + lines[i]
        with pytest.raises(InputFormatError) as exc:
            list(csv_rows(b"".join(lines)))
        assert str(exc.value) == f"line {i + 1}: invalid UTF-8"
