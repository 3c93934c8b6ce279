from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilink import cli
from resilink.analytics import IntegratedDataset, ReportSettings
from resilink.cli import LinkcheckSettings, PipelineConfig, run_subcommand
from resilink.gazetteer import EnrichmentConfig
from resilink.integration import MatchConfig
from resilink.model import CivilDate, Dataset, Event, GeoPoint, events_from_json, events_to_json
from resilink.rdf import EVENT_NS, parse_ntriples
from tests.httpmock import ScriptedHandler, start_server, stop_server

PIPE = Path(__file__).parent / "fixtures" / "pipeline"


def _run(*argv) -> int:
    return run_subcommand([str(a) for a in argv])


def _error_line(capsys) -> str:
    """The one line a failed command wrote to stderr."""
    (line,) = capsys.readouterr().err.strip().splitlines()
    return line


@pytest.fixture()
def workdir(tmp_path) -> Path:
    return tmp_path


@pytest.fixture(scope="module")
def fixture_nt(tmp_path_factory) -> Path:
    """The fixtures' integrated.nt, as `pipeline` writes it."""
    outdir = tmp_path_factory.mktemp("pipeline")
    assert _run("pipeline", "--config", PIPE / "config.json", "--eor-input", PIPE / "eor.json",
                "--ch-input", PIPE / "ch.csv", "--ch-format", "csv", "--outdir", outdir) == 0
    return outdir / "integrated.nt"


# nodes of the fixtures' integrated.nt that the malformed-.nt cases corrupt
_CH_EVENT = f"{EVENT_NS}ch/156e6dd61dc9cbfe"
_SINGLE = f"{EVENT_NS}aggregate/006fe315012e02de7f022eaee835ff66266eefd087220d06a7d210e2c09cf9f7"
_PAIR = f"{EVENT_NS}aggregate/3e0c24dcd4962ec0b746bc7cb168ec7b09ec7a5a84b546a7e28f11969b053e7b"


# a second, different date for _CH_EVENT (dated 2023-01-13), and its coordinates node
_SECOND_DATE = (f"<{_CH_EVENT}> <http://purl.org/dc/terms/date> "
                f'"2021-06-01"^^<http://www.w3.org/2001/XMLSchema#date> .\n').encode()
_GEO = f"<{_CH_EVENT}/geo>".encode()


def _drop_line(data: bytes, needle: bytes) -> bytes:
    """The document without its first line that holds needle."""
    lines = data.split(b"\n")
    index = next(i for i, line in enumerate(lines) if needle in line)
    return b"\n".join(lines[:index] + lines[index + 1:])


def _tiny_events(directory: Path) -> Path:
    path = directory / "tiny.events.json"
    path.write_text(json.dumps([
        {"id": "e1", "dataset": "eor", "date": "2022-03-07", "lat": 50.0, "lon": 36.0}
    ]))
    return path


# Each of these once escaped as a traceback or exited 0 with wrong output.
MALFORMED_CONFIGS = [json.dumps(doc) for doc in [
    [],
    "x",
    {"online": {"username": "demo"}},
    {"analytics": {"months": 5}},
    {"analytics": {"uc6_radius_km": None}},
    {"analytics": {"uc6_radius_km": "nan"}},
    {"analytics": {"grid_deg": 0}},
    {"enrichment": {"languages": 3}},
    {"enrichment": {"reverse_max_km": "nan"}},
    {"match": {"dist_link_km": float("nan")}},
    {"match": {"keywords": [1]}},
    {"match": {"keywords": ["school", ""]}},
    {"match": {"area_token": ""}},
    {"match": {"area_token": " "}},
    {"enrichment": {"languages": []}},
    {"enrichment": {"languages": ["EN"]}},
    {"analytics": {"months": ["2022-13"]}},
    {"analytics": {"months": []}},
    {"adapters": []},
    {"adapters": {"eor": 5}},
    {"linkcheck": []},
    {"linkcheck": {"concurrency": float("inf")}},
    {"gazetteer": {"places": 5}},
    {"overrides": 5},
    # an unknown key, once ignored silently outside match
    {"analytics": {"uc6_radius": 2.0}},
    {"linkcheck": {"timout_s": 5}},
    {"online": {"base_url": "http://127.0.0.1:9", "user": "demo"}},
    {"enrichment": {"language": ["en"]}},
    {"gazetteer": {"place": "places.tsv"}},
    {"linkchek": {"timeout_s": 5}},
    # not a JSON number where a number goes, once read as 1.0 and 2.0
    {"linkcheck": {"timeout_s": True}},
    {"analytics": {"grid_deg": "2"}},
    {"enrichment": {"postal_max_km": True}},
    {"match": {"sim_link": "0.5"}},
    {"linkcheck": {"concurrency": 2.5}},
    {"online": {"base_url": "http://127.0.0.1:9", "username": 5}},
    # each once passed the load and failed only at the first request
    {"online": {"base_url": "file:///tmp"}},
    {"online": {"base_url": "http://127.0.0.1:9/geonames?lang=en"}},
    {"analytics": {"grid_deg": 10 ** 400}},  # overflows a float
    # a wait too long for sleep() or a socket timeout, once an OverflowError traceback at the
    # first request, or a sleep of years
    {"linkcheck": {"timeout_s": 1e300}},
    {"linkcheck": {"politeness_s": 1e300}},
    {"online": {"rate_per_sec": 1e-300, "base_url": "http://127.0.0.1:9", "username": "demo"}},
]] + [
    '{"linkcheck": {"timeout_s": 1e999}}',  # JSON reads 1e999 as inf
    '{"linkcheck": {"politeness_s": 1e999}}',
    "[" * 100_000 + "]" * 100_000,
    # a name given twice, once read as its last value
    '{"match": {"sim_link": 0.5}, "match": {}}',
    '{"match": {"sim_link": 0.5, "sim_link": 0.6}}',
]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_CONFIG_SECTIONS = {
    "adapters": ("eor", "ch", "other"),
    "gazetteer": ("places", "alternate_names", "postal_codes", "other"),
    "match": ("sim_link", "dist_area_km", "keywords", "area_token", "other"),
    "enrichment": ("languages", "reverse_max_km", "postal_max_km", "other"),
    "analytics": ("months", "uc6_radius_km", "grid_deg", "other"),
    "online": ("base_url", "username", "rate_per_sec", "other"),
    "linkcheck": ("timeout_s", "concurrency", "politeness_s", "other"),
}
_CANONICAL_KEYS = (
    "id", "dataset", "date", "description", "lat", "lon", "postal_code", "source_urls",
    "comments", "city_labels",
    *(f"{place}_{what}" for place in ("country", "city", "province") for what in ("geoname_id", "name")),
)
config_documents = _json_values | st.fixed_dictionaries({}, optional={
    "overrides": _json_values,
    "other": _json_values,
    **{
        name: _json_values | st.dictionaries(st.sampled_from(keys), _json_values, max_size=3)
        for name, keys in _CONFIG_SECTIONS.items()
    },
})


# Pieces of report flags: valid values, values one character off, and arbitrary text.
_flag_parts = st.sampled_from(
    ["2022-03", "2022-04", "2022-03\n", "2022-13", "2022-3", "school", "SCHOOL", "en", "uk",
     "EN", " uk", "uk ", "", " ", "\n"]
) | st.text(max_size=8)
report_flag_text = st.lists(_flag_parts, max_size=4).map(",".join) | st.text(max_size=12)


# Text a source field may hold: lone surrogates, C0 controls, NUL, NEL, the
# Unicode line and paragraph separators, CSV syntax, and long strings.
_field_text = st.text(
    st.sampled_from(["\ud800", "\udfff", "\x00", "\x01", "\x1f", "\x7f", "\x85", "\u2028",
                     "\u2029", "\r", "\n", ",", '"', " "])
    | st.characters(exclude_categories=()),  # surrogates included
    max_size=12,
)
_source_text = _field_text | st.builds(lambda text, n: text * n, _field_text, st.integers(50, 500))


def _with_hostile_fields(records: list[dict], edits: list) -> list[dict]:
    records = [dict(r) for r in records]
    for index, name, text in edits:
        records[index % len(records)][name] = text
    return records


def _csv_bytes(records: list[dict]) -> bytes:
    # a lone surrogate cannot be UTF-8: "surrogatepass" writes the bytes a careless writer would
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(records[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return out.getvalue().encode("utf-8", "surrogatepass")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert _run("frobnicate") == 2

    def test_no_arguments(self):
        assert _run() == 2

    def test_missing_required_flag(self):
        assert _run("ingest", "--dataset", "eor") == 2

    def test_linkcheck_refuses_offline(self, workdir):
        code = _run(
            "--offline", "linkcheck",
            "--input", PIPE / "eor.json",
            "--out-csv", workdir / "x.csv",
        )
        assert code == 2

    def test_report_missing_output(self, workdir):
        assert _run("report", "uc2", "--input", workdir / "missing.nt") == 2

    @pytest.mark.parametrize("flag, argv", [
        ("--out", ("ingest", "--dataset", "eor", "--format", "json", "--input", "in.json",
                   "--config", "config.json")),
        ("--out", ("enrich", "--input", "in.json", "--config", "config.json")),
        ("--out", ("convert", "--input", "in.json")),
        *((flag, ("integrate", "--eor", "eor.json", "--ch", "ch.json", "--out", "x.nt"))
          for flag in ("--out", "--pairs", "--counts")),
        *((flag, ("report", "uc1", "--input", "x.nt", "--start", "2022-01-01", "--end", "2022-12-31"))
          for flag in ("--out-nt", "--out-geojson")),
        ("--out", ("report", "uc2", "--input", "x.nt", "--keyword", "school")),
        ("--out", ("report", "uc3", "--input", "x.nt")),
        ("--out", ("report", "uc4", "--input", "x.nt", "--months", "2022-03")),
        ("--out", ("report", "uc5", "--input", "x.nt", "--deaths", "deaths.csv")),
        *((flag, ("report", "uc6", "--input", "x.nt", "--shelters", "shelters.csv"))
          for flag in ("--out", "--out-geojson")),
        *((flag, ("linkcheck", "--input", "in.json")) for flag in ("--out-csv", "--out-json")),
        ("--outdir", ("pipeline", "--config", "config.json", "--eor-input", "eor.json",
                      "--ch-input", "ch.csv")),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2] if v[0] == "report" else v[:1]))
    def test_empty_output_path_is_a_usage_error(self, workdir, capsys, monkeypatch, flag, argv):
        # each once ended in "PosixPath('.') has an empty name" (exit 1), which names no flag;
        # an empty --outdir was the current directory
        monkeypatch.chdir(workdir)
        assert _run(*argv, f"{flag}=") == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.endswith(f"error: argument {flag}: must not be empty")

    @pytest.mark.parametrize("command", ["integrate", "report uc1", "report uc6", "linkcheck"])
    def test_two_output_flags_naming_one_file_are_a_usage_error(self, fixture_nt, workdir, capsys,
                                                                 monkeypatch, command):
        # integrate --out X --pairs X --counts X once exited 0, and X held only the counts
        monkeypatch.chdir(workdir)
        events, ch, shelters = _tiny_events(workdir), workdir / "ch.json", workdir / "shelters.csv"
        ch.write_text("[]")
        shelters.write_text("name,lat,lon\ncentral,49.9935,36.2304\n")
        (workdir / "sub").mkdir()
        os.symlink("out.b", "link")
        argv, clash = {
            "integrate": (("integrate", "--eor", events, "--ch", ch, "--out", "out.a",
                           "--pairs", "out.b", "--counts", "./out.b"),
                          "--pairs and --counts name one file: ./out.b"),
            "report uc1": (("report", "uc1", "--input", fixture_nt, "--start", "2022-01-01",
                            "--end", "2023-01-01", "--out-nt", "out.a", "--out-geojson", "sub/../out.a"),
                           "--out-nt and --out-geojson name one file: sub/../out.a"),
            "report uc6": (("report", "uc6", "--input", fixture_nt, "--shelters", shelters,
                            "--out", "link", "--out-geojson", "out.b"),
                           "--out and --out-geojson name one file: out.b"),
            "linkcheck": (("linkcheck", "--input", events, "--out-csv", workdir / "out.a",
                           "--out-json", "out.a"),
                          "--out-csv and --out-json name one file: out.a"),
        }[command]
        before = set(workdir.iterdir())
        assert _run(*argv) == 2
        assert _error_line(capsys) == f"resilink {command}: {clash}"
        assert set(workdir.iterdir()) == before

    @pytest.mark.parametrize("argv, clash", [
        (("ingest", "--dataset", "eor", "--format", "json", "--input", "in.json", "--config", "config.json",
          "--out", "./in.json"), "--input and --out name one file: ./in.json"),
        (("enrich", "--input", "in.json", "--config", "config.json", "--out", "in.json"),
         "--input and --out name one file: in.json"),
        (("convert", "--input", "in.json", "--config", "config.json", "--out", "sub/../config.json"),
         "--config and --out name one file: sub/../config.json"),
        (("integrate", "--eor", "in.json", "--ch", "ch.json", "--out", "out.nt", "--pairs", "link"),
         "--ch and --pairs name one file: link"),
        (("report", "uc2", "--input", "in.nt", "--keyword", "school", "--out", "in.nt"),
         "--input and --out name one file: in.nt"),
        (("report", "uc5", "--input", "in.nt", "--deaths", "deaths.csv", "--out", "deaths.csv"),
         "--deaths and --out name one file: deaths.csv"),
        (("report", "uc6", "--input", "in.nt", "--shelters", "shelters.csv", "--out-geojson", "shelters.csv"),
         "--shelters and --out-geojson name one file: shelters.csv"),
        (("linkcheck", "--input", "in.json", "--input", "ch.json", "--out-csv", "out.csv", "--out-json", "ch.json"),
         "--input and --out-json name one file: ch.json"),
        (("pipeline", "--config", "config.json", "--eor-input", "in.json", "--ch-input", "sub/ch.enriched.json",
          "--outdir", "sub"), "--ch-input and --outdir's ch.enriched.json name one file: sub/ch.enriched.json"),
        (("pipeline", "--config", "sub/counts.json", "--eor-input", "in.json", "--ch-input", "ch.json",
          "--outdir", "sub"), "--config and --outdir's counts.json name one file: sub/counts.json"),
    ], ids=lambda v: " ".join(v[:2] if v[0] == "report" else v[:1]) if isinstance(v, tuple) else None)
    def test_an_output_naming_an_input_is_a_usage_error(self, workdir, capsys, monkeypatch, argv, clash):
        # integrate --eor e.json --ch c.json --out e.json once exited 0 and left N-Triples in e.json
        monkeypatch.chdir(workdir)
        _tiny_events(workdir).rename("in.json")
        for name, text in (("ch.json", "[]"), ("config.json", "{}"), ("in.nt", ""),
                           ("deaths.csv", "month,deaths\n2022-03,1\n"), ("shelters.csv", "name,lat,lon\n"),
                           ("sub/ch.enriched.json", "[]"), ("sub/counts.json", "{}")):
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_text(text)
        os.symlink("ch.json", "link")
        before = {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()}
        assert _run(*argv) == 2
        command = " ".join(argv[:2] if argv[0] == "report" else argv[:1])
        assert _error_line(capsys) == f"resilink {command}: {clash}"
        assert {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("url", ["notaurl", "ftp://127.0.0.1/", "http://", "//127.0.0.1:9",
                                     "127.0.0.1:9", "file:///tmp/x", "http://127.0.0.1:8080/mock?x=1",
                                     "http://127.0.0.1:8080/mock", "https://127.0.0.1:8080/?x=1",
                                     "http://127.0.0.1:8080/#top", "http://127.0.0.1:8080//"])
    def test_base_override_must_be_an_http_url(self, workdir, capsys, url):
        # "notaurl" once exited 0, with every link of the run reported as a NetworkError;
        # a base's path, query and fragment were once dropped from every request without a word
        out = workdir / "links.json"
        assert _run("linkcheck", "--input", _tiny_events(workdir), "--base-override", url,
                    "--out-json", out) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: argument --base-override: must be an absolute http or https URL" in last
        assert not out.exists()

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9", "http://127.0.0.1:9/", "https://127.0.0.1:9/"])
    def test_base_override_takes_a_scheme_and_host(self, workdir, url):
        # the events hold no URL, so nothing is requested
        assert _run("linkcheck", "--input", _tiny_events(workdir), "--base-override", url,
                    "--out-json", workdir / "links.json") == 0

    @pytest.mark.parametrize("use_case, extra", [
        ("uc1", ("--out", "x.csv")),
        ("uc2", ("--radius-km", "-5")),
        ("uc3", ("--months", "2022-03")),
        ("uc4", ("--keyword", "school")),
        ("uc4", ("--start", "2099-01-01", "--end", "2000-01-01")),
        ("uc5", ("--top", "2")),
        ("uc6", ("--top", "0")),
        ("uc6", ("--langs", "XX")),
        ("uc6", ("--months", "2099-01")),
    ], ids=lambda value: value if isinstance(value, str) else " ".join(value))
    def test_flag_of_another_use_case_is_a_usage_error(self, fixture_nt, workdir, capsys,
                                                       use_case, extra):
        # each was once ignored: the report ran on its own flags and exited 0
        out = workdir / "report.out"
        deaths, shelters = workdir / "deaths.csv", workdir / "shelters.csv"
        deaths.write_text("month,deaths\n2022-03,4\n")
        shelters.write_text("name,lat,lon\ncentral,49.9935,36.2304\n")
        own = {
            "uc1": ("--start", "2022-01-01", "--end", "2023-01-01", "--out-geojson", out),
            "uc2": ("--keyword", "school", "--out", out),
            "uc3": ("--out", out),
            "uc4": ("--months", "2022-03", "--out", out),
            "uc5": ("--deaths", deaths, "--out", out),
            "uc6": ("--shelters", shelters, "--out", out),
        }[use_case]
        assert _run("report", use_case, "--input", fixture_nt, *own, *extra) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("resilink")
        assert not out.exists()


# Each once ended in a traceback or exited 0 with a coerced value: (entry, key named).
_GOOD_EVENT = {"id": "e1", "dataset": "eor", "date": "2022-03-07", "lat": 50.0, "lon": 36.0}
_BAD_EVENTS = [
    pytest.param(1, None, id="not-an-object"),
    pytest.param({k: v for k, v in _GOOD_EVENT.items() if k != "id"}, "id", id="no-id"),
    pytest.param({k: v for k, v in _GOOD_EVENT.items() if k != "lon"}, "lon", id="no-lon"),
    *(pytest.param({**_GOOD_EVENT, key: value}, key, id=f"{key}-{json.dumps(value)}") for key, value in [
        ("comments", [1]),
        ("description", 5),
        ("postal_code", 12),
        ("city_labels", {"en": 7}),
        ("date", 20220301),
        ("lat", True),
        ("city_geoname_id", 1.5),
        ("id", None),
        ("province_name", ["a"]),
        ("source_urls", "https://example.org/a"),
    ]),
    pytest.param({**_GOOD_EVENT, "lat": 10**400}, "lat", id="lat-10**400"),
]


class TestDataErrors:
    @pytest.mark.parametrize("entry, key", _BAD_EVENTS)
    def test_bad_canonical_event_is_one_line_error(self, workdir, capsys, entry, key):
        events = workdir / "events.json"
        events.write_text(json.dumps([_GOOD_EVENT, entry]))
        assert _run("convert", "--input", events, "--out", workdir / "out.nt") == 1
        line = _error_line(capsys)
        assert line.startswith(f"resilink: error: {events}: canonical event JSON entry 1: ")
        assert key is None or repr(key) in line
        assert not (workdir / "out.nt").exists()

    @pytest.mark.parametrize("case", ["integrate --ch", "integrate --eor", "enrich overrides",
                                      "pipeline --ch-input", "enrich alt_names"])
    def test_data_error_names_its_file(self, workdir, capsys, case):
        # each once ended in the message alone, which did not say which input was at fault
        fixtures = workdir / "fixtures"
        shutil.copytree(PIPE.parent, fixtures)
        config = fixtures / "pipeline" / "config.json"
        eor, ch, ch_csv = workdir / "eor.json", workdir / "ch.json", workdir / "ch.csv"
        eor.write_text(json.dumps([_GOOD_EVENT]))
        integrate = ("integrate", "--eor", eor, "--ch", ch, "--out", workdir / "out.nt")
        enrich = ("enrich", "--input", eor, "--config", config, "--out", workdir / "out.json")
        pipeline = ("pipeline", "--config", config, "--eor-input", PIPE / "eor.json",
                    "--ch-input", ch_csv, "--ch-format", "csv", "--outdir", workdir / "out")
        bad, data, argv, message = {  # the file at fault, its bytes, the command, what follows the path
            "integrate --ch": (ch, json.dumps([{**_GOOD_EVENT, "dataset": "ch", "lat": "x"}]).encode(),
                               integrate, ": canonical event JSON entry 0: 'lat' must be a number"),
            "integrate --eor": (eor, b'[{"id": "e1",}]', integrate,
                                ": Expecting property name enclosed in double quotes"),
            "enrich overrides": (config.parent / "overrides.json", b'{"Foo": }', enrich,
                                 ": Expecting value: line 1 column 9 (char 8)"),
            "pipeline --ch-input": (ch_csv, b"date,latitude,longitude,description,location,sources\nx\n",
                                    pipeline, ": line 2: row has 1 columns, header has 6"),
            "enrich alt_names": (config.parent / "../gazetteer/alt_names.tsv",
                                 b"101\t706482\ten\tKharkiv\n102\t706482\tuk\t\xff\n", enrich,
                                 ": line 2: invalid UTF-8"),
        }[case]
        bad.write_bytes(data)
        assert _run(*argv) == 1
        line = _error_line(capsys)
        assert line.startswith(f"resilink: error: {bad}{message}")

    @pytest.mark.parametrize("case", ["csv header", "source JSON", "event JSON", "override JSON",
                                      "override names"])
    def test_a_name_given_twice_is_one_line_error(self, workdir, capsys, case):
        # each once kept the last value given and exited 0
        fixtures = workdir / "fixtures"
        shutil.copytree(PIPE.parent, fixtures)
        config, overrides = workdir / "config.json", fixtures / "pipeline" / "overrides.json"
        config.write_text(json.dumps({"adapters": {d: {"date": "date", "lat": "lat", "lon": "lon"}
                                                   for d in ("eor", "ch")}}))
        source, events, out = workdir / "source", workdir / "events.json", workdir / "out"
        ingest = ("ingest", "--dataset", "ch", "--config", config, "--input", source, "--out", out)
        enrich = ("enrich", "--input", events, "--config", fixtures / "pipeline" / "config.json",
                  "--out", out)
        events.write_text(json.dumps([_GOOD_EVENT]))
        bad, data, argv, message = {  # the file at fault, its bytes, the command, what follows the path
            "csv header": (source, b"id,date,lat,lon,lat\nx,2022-03-07,10.0,36.0,50.0\n",
                           (*ingest, "--format", "csv"),
                           "line 1: the CSV header names the column 'lat' twice"),
            "source JSON": (source, b'[{"date": "2022-03-07", "lat": 10.0, "lon": 36.0, "lat": 50.0}]',
                            (*ingest, "--format", "json"),
                            "source JSON gives the name 'lat' twice in one object"),
            "event JSON": (events, b'[{"id": "e1", "dataset": "eor", "date": "2022-03-07", '
                                   b'"lat": 10.0, "lon": 36.0, "lat": 50.0}]',
                           ("convert", "--input", events, "--out", out),
                           "canonical event JSON gives the name 'lat' twice in one object"),
            "override JSON": (overrides, b'{"Kyiv": 703448, "Kyiv": 111}', enrich,
                              "override table JSON gives the name 'Kyiv' twice in one object"),
            "override names": (overrides, b'{"Kyiv": 703448, " Kyiv  ": 111}', enrich,
                               "override table gives the name 'Kyiv' twice, as geoname ids "
                               "703448 and 111"),
        }[case]
        bad.write_bytes(data)
        assert _run(*argv) == 1
        assert _error_line(capsys) == f"resilink: error: {bad}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convert", "integrate"])
    def test_two_events_with_one_key_are_one_line_error(self, workdir, capsys, command):
        # convert once wrote both under one IRI, and report then refused its two dates;
        # integrate printed the key as a tuple holding an enum repr
        events, ch, out = workdir / "events.json", workdir / "ch.json", workdir / "out.nt"
        events.write_text(json.dumps([{**_GOOD_EVENT, "id": "x"},
                                      {**_GOOD_EVENT, "id": "x", "date": "2022-03-08"}]))
        ch.write_text("[]")
        argv = {"convert": ("convert", "--input", events, "--out", out),
                "integrate": ("integrate", "--eor", events, "--ch", ch, "--out", out)}[command]
        assert _run(*argv) == 1
        assert _error_line(capsys) == "resilink: error: duplicate eor event id: 'x'"
        assert not out.exists()

    def test_integer_coordinates_read_as_floats(self, workdir):
        events = workdir / "events.json"
        events.write_text(json.dumps([{**_GOOD_EVENT, "lat": 49, "lon": 36}]))
        (ev,) = events_from_json(events.read_bytes())
        assert (ev.point.latitude, ev.point.longitude) == (49.0, 36.0)
        assert type(ev.point.latitude) is float
        assert _run("convert", "--input", events, "--out", workdir / "out.nt") == 0

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(_CANONICAL_KEYS), value=_json_values)
    def test_any_canonical_value_ends_in_an_exit_code(self, tmp_path_factory, key, value):
        workdir = tmp_path_factory.mktemp("events")
        events = workdir / "events.json"
        events.write_text(json.dumps([{**_GOOD_EVENT, key: value}]))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run("convert", "--input", events, "--out", workdir / "out.nt")
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("value", [True, 1.9, "706482", 0, -3, None, [706482]],
                             ids=json.dumps)
    def test_override_value_must_be_an_integer_id(self, workdir, capsys, value):
        # true and 1.9 once resolved the name to geoname id 1, and "706482" to 706482
        overrides = workdir / "overrides.json"
        overrides.write_text(json.dumps({"Foo": value}))
        cfg = json.loads((PIPE / "config.json").read_text())
        cfg["gazetteer"] = {k: str(PIPE / v) for k, v in cfg["gazetteer"].items()}
        cfg["overrides"] = str(overrides)
        config = workdir / "config.json"
        config.write_text(json.dumps(cfg))
        events = workdir / "events.json"
        events.write_text(json.dumps([{**_GOOD_EVENT, "city_name": "Foo"}]))
        out = workdir / "out.json"
        assert _run("enrich", "--input", events, "--config", config, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith(f"resilink: error: {overrides}: override table values must be geoname ids")
        assert not out.exists()

    def test_missing_input_file(self, workdir):
        code = _run(
            "ingest", "--dataset", "eor", "--format", "json",
            "--input", workdir / "nope.json",
            "--config", PIPE / "config.json",
            "--out", workdir / "out.json",
        )
        assert code == 1

    def test_malformed_source(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("[{]")
        code = _run(
            "ingest", "--dataset", "eor", "--format", "json",
            "--input", bad,
            "--config", PIPE / "config.json",
            "--out", workdir / "out.json",
        )
        assert code == 1

    def test_config_with_dangling_path(self, workdir):
        cfg = json.loads((PIPE / "config.json").read_text())
        cfg["overrides"] = "does-not-exist.json"
        bad = workdir / "config.json"
        bad.write_text(json.dumps(cfg))
        code = _run(
            "ingest", "--dataset", "eor", "--format", "json",
            "--input", PIPE / "eor.json",
            "--config", bad,
            "--out", workdir / "out.json",
        )
        assert code == 1

    @pytest.mark.parametrize("text", MALFORMED_CONFIGS, ids=lambda text: text[:40])
    def test_malformed_config_is_one_line_error(self, workdir, capsys, text):
        config = workdir / "config.json"
        config.write_text(text)
        code = _run("convert", "--input", _tiny_events(workdir), "--config", config,
                    "--out", workdir / "out.nt")
        assert code == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "config" in line

    def test_config_invalid_utf8_names_the_line(self, workdir, capsys):
        # the decoder's message once came alone: 'utf-8' codec can't decode byte 0xff ...
        config = workdir / "config.json"
        config.write_bytes(b'{\n"match": {"\xff": 1}}\n')
        assert _run("convert", "--input", _tiny_events(workdir), "--config", config,
                    "--out", workdir / "out.nt") == 1
        assert _error_line(capsys) == (
            f"resilink: error: cannot read config {config}: line 2: invalid UTF-8")

    @settings(max_examples=150, deadline=None)
    @given(doc=config_documents)
    def test_any_config_document_ends_in_an_exit_code(self, tmp_path_factory, doc):
        workdir = tmp_path_factory.mktemp("config")
        config = workdir / "config.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run("convert", "--input", _tiny_events(workdir), "--config", config,
                        "--out", workdir / "out.nt")
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_integrate_rejects_a_file_of_the_other_dataset(self, fixture_nt, workdir, capsys):
        # the swapped files were integrated: CH ids went under a_id and counts.json
        # gave the CH count as "a"
        eor, ch = fixture_nt.parent / "eor.enriched.json", fixture_nt.parent / "ch.enriched.json"
        outputs = workdir / "integrated.nt", workdir / "pairs.csv", workdir / "counts.json"
        assert _run("integrate", "--eor", ch, "--ch", eor, "--out", outputs[0],
                    "--pairs", outputs[1], "--counts", outputs[2]) == 1
        first_ch = events_from_json(ch.read_bytes())[0].id
        line = _error_line(capsys)
        assert line == f"resilink: error: --eor file holds a ch event: {first_ch}"
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("radius", ["0", "nan"])
    def test_uc6_radius_must_be_positive(self, workdir, radius):
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        shelters = workdir / "shelters.csv"
        shelters.write_text("name,lat,lon\ncentral,50.0,36.0\n")
        code = _run("report", "uc6", "--input", nt, "--shelters", shelters,
                    "--radius-km", radius, "--out", workdir / "uc6.csv")
        assert code == 1

    @pytest.mark.parametrize("reader", ["events", "source", "overrides", "config", "reply"])
    def test_deeply_nested_json_is_one_line_error(self, workdir, capsys, gaz_index, reader):
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        cfg = json.loads((PIPE / "config.json").read_text())
        cfg["gazetteer"] = {k: str(PIPE / v) for k, v in cfg["gazetteer"].items()}
        cfg["overrides"] = str(deep)
        config = workdir / "config.json"
        config.write_text(json.dumps(cfg))
        argv = {
            "events": ("convert", "--input", deep, "--out", workdir / "out.nt"),
            "source": ("ingest", "--dataset", "eor", "--format", "json", "--input", deep,
                       "--config", PIPE / "config.json", "--out", workdir / "out.json"),
            "overrides": ("enrich", "--input", _tiny_events(workdir), "--config", config,
                          "--out", workdir / "out.json"),
            "config": ("convert", "--input", _tiny_events(workdir), "--config", deep,
                       "--out", workdir / "out.nt"),
            "reply": None,  # an online gazetteer's reply, once a RecursionError traceback
        }[reader]
        if argv is None:
            self._enrich_online(workdir, gaz_index, deep.read_bytes())
        else:
            assert _run(*argv) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "nested too deeply" in line

    @pytest.mark.parametrize("argv", [
        ("uc3", "--top", "-1"),
        ("uc3", "--top", "0"),
        ("uc4", "--start", "2022-01-01", "--end", "2023-01-01", "--top", "-1"),
        ("uc4", "--start", "2022-01-01", "--end", "2023-01-01", "--top", "0"),
        ("uc4", "--months", "2022-03", "--top", "0"),
    ], ids=" ".join)
    def test_top_below_one_is_one_line_error(self, workdir, capsys, argv):
        # --top -1 used to drop the last row (ranked[:-1]); 0 wrote a header only
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        out = workdir / "report.csv"
        assert _run("report", *argv, "--input", nt, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "top" in line
        assert not out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (("uc2", "--keyword", " "), "keyword"),
        (("uc3", "--langs", "en,,uk"), "language codes"),
        (("uc3", "--langs", ""), "language codes"),
        (("uc3", "--langs", "en, uk"), "language codes"),
        (("uc3", "--langs", "EN,uk"), "language codes"),
        (("uc3", "--langs", "en,uk,en"), "language code listed twice"),
    ], ids=["uc2-blank-keyword", "uc3-empty-lang-in-list", "uc3-empty-langs",
            "uc3-space-in-lang", "uc3-upper-case-lang", "uc3-repeated-lang"])
    def test_flag_that_cannot_match_is_one_line_error(self, workdir, capsys, argv, needle):
        # a blank keyword counted every event with a space in a literal; an empty,
        # space-padded or upper-case language code wrote a header-only CSV, and a
        # repeated one wrote its column twice
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        out = workdir / "report.csv"
        assert _run("report", *argv, "--input", nt, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and needle in line
        assert not out.exists()

    @pytest.mark.parametrize("use_case", ["uc2", "uc4", "uc5"])
    @pytest.mark.parametrize("months", ["2022-03\n", "2022-03,2022-03", "\uff12\uff10\uff12\uff12-03"],
                             ids=["trailing-newline", "repeated", "fullwidth-digits"])
    def test_bad_month_list_is_one_line_error(self, workdir, capsys, use_case, months):
        # "2022-03\n" passed the ^YYYY-MM$ check and wrote a quoted two-line row, a
        # repeated month wrote its rows twice, and \d took fullwidth digits for a
        # month that no event can fall in
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        deaths = workdir / "deaths.csv"
        deaths.write_text("month,deaths\n2022-03,4\n")
        flags = {"uc2": ("--keyword", "school"), "uc4": (), "uc5": ("--deaths", deaths)}[use_case]
        out = workdir / "report.csv"
        assert _run("report", use_case, "--months", months, *flags,
                    "--input", nt, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "month" in line
        assert not out.exists()

    @pytest.mark.parametrize("month", ["9999-12", "0000-05"])
    def test_month_at_the_calendar_edge_counts_no_event(self, fixture_nt, workdir, month):
        # uc4 built the day after the month, or a day in year 0, and exited 1 with
        # "year 10000 is out of range" or "year 0 is out of range", while uc2 wrote 0
        uc2, uc4 = workdir / "uc2.csv", workdir / "uc4.csv"
        assert _run("report", "uc2", "--input", fixture_nt, "--keyword", "school",
                    "--months", month, "--out", uc2) == 0
        assert _run("report", "uc4", "--input", fixture_nt, "--months", month,
                    "--top", "3", "--out", uc4) == 0
        assert uc2.read_text() == f"month,count\n{month},0\n"
        assert uc4.read_text() == "month,region,occurrences\n"
        # beside a month that holds events, it changes nothing
        both, alone = workdir / "both.csv", workdir / "alone.csv"
        assert _run("report", "uc4", "--input", fixture_nt, "--months", f"2022-03,{month}",
                    "--top", "3", "--out", both) == 0
        assert _run("report", "uc4", "--input", fixture_nt, "--months", "2022-03",
                    "--top", "3", "--out", alone) == 0
        assert both.read_text() == alone.read_text() != "month,region,occurrences\n"

    def test_label_language_with_trailing_newline_is_one_line_error(self, workdir, capsys):
        # "en\n" passed the ^[a-z]{2}$ check, so convert wrote `"Kyiv"@en` and a line
        # break: an .nt that every report then rejected
        events = workdir / "events.json"
        events.write_text(json.dumps([{"id": "e1", "dataset": "eor", "date": "2022-03-07",
                                       "lat": 50.0, "lon": 36.0, "city_labels": {"en\n": "Kyiv"}}]))
        out = workdir / "events.nt"
        assert _run("convert", "--input", events, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "language" in line
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(use_case=st.sampled_from(["uc2", "uc3", "uc4"]), keyword=report_flag_text,
           langs=report_flag_text, months=report_flag_text)
    def test_any_report_flag_text_ends_in_an_exit_code(self, fixture_nt, tmp_path_factory,
                                                       use_case, keyword, langs, months):
        out = tmp_path_factory.getbasetemp() / "flags.csv"
        flags = {
            "uc2": (f"--keyword={keyword}", f"--months={months}"),
            "uc3": (f"--langs={langs}",),
            "uc4": (f"--months={months}",),
        }[use_case]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run("report", use_case, "--input", fixture_nt, *flags, "--out", out)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            (line,) = err.getvalue().strip().splitlines()
            assert line.startswith("resilink: error: ")

    # every reload error names its node: an event, a single-member aggregate, a paired one
    @pytest.mark.parametrize("corrupt, message", [
        (lambda nt: nt[:-20],
         "line 1470: expected '<iri> <iri> <iri-or-literal> .'"),
        (lambda nt: nt.replace(b"<http://sws.geonames.org/700646/>",
                               b"<sws.geonames.org/700646/>", 1),
         "line 209: IRI must be absolute and N-Triples-safe: 'sws.geonames.org/700646/'"),
        (lambda nt: nt.replace(b"Explosion damaged", b"Explosion \xffdamaged", 1),
         "line 206: invalid UTF-8"),
        (lambda nt: nt.replace(b'"49.823"^^', b'"north"^^', 1),
         f"event node {_CH_EVENT}: could not convert string to float: 'north'"),
        (lambda nt: _drop_line(nt, b"ch/156e6dd61dc9cbfe/geo> <https://schema.org/longitude>"),
         f"event node {_CH_EVENT}: missing coordinates"),
        (lambda nt: nt.replace(b'"2023-01-13"^^', b'"2022-02-30"^^', 1),
         f"event node {_CH_EVENT}: not a real calendar date: 2022-2-30"),
        (lambda nt: nt.replace(b'"2023-01-13"^^', b'"2023-13-45"^^', 1),
         f"event node {_CH_EVENT}: not a real calendar date: 2023-13-45"),
        (lambda nt: nt.replace(b'"2023-01-13"^^', b'"13/01/2023"^^', 1),
         f"event node {_CH_EVENT}: not an ISO-8601 date: '13/01/2023'"),
        (lambda nt: nt.replace(b"<https://t.me/chfeed6/2006>", b"<mailto:desk@example.org>", 1),
         f"event node {_CH_EVENT}: source URL is not absolute: 'mailto:desk@example.org'"),
        (lambda nt: nt.replace(b'"Merefa"@en', b'"Merefa"@eng', 1),
         f"event node {_CH_EVENT}: label language must be two lowercase letters: 'eng'"),
        (lambda nt: nt.replace(b'"violence_level: moderate"', b'""', 1),
         f"event node {EVENT_NS}eor/eor-001: comments must not contain empty strings"),
        (lambda nt: nt.replace(b"<http://sws.geonames.org/700646/>",
                               b"<http://example.org/700646/>", 1),
         f"event node {_CH_EVENT}: not a GeoNames IRI: 'http://example.org/700646/'"),
        (lambda nt: _drop_line(nt, b"<https://linked4resilience.eu/ontology/hasPrimarySource>"),
         f"aggregate node {_SINGLE}: missing hasPrimarySource"),
        (lambda nt: nt.replace(b"hasMember> <https://linked4resilience.eu/event/eor/eor-131>",
                               b"hasMember> <https://example.org/eor-131>", 1),
         f"aggregate node {_SINGLE}: not an event IRI: 'https://example.org/eor-131'"),
        (lambda nt: _drop_line(nt, b"<https://linked4resilience.eu/ontology/hasMember>"),
         f"aggregate node {_SINGLE}: aggregate must have 1 or 2 members"),
        (lambda nt: nt.replace(b"hasPrimarySource> <https://linked4resilience.eu/event/eor/eor-004>",
                               b"hasPrimarySource> <https://linked4resilience.eu/event/eor/eor-131>", 1),
         f"aggregate node {_PAIR}: primary must be one of the members"),
        (lambda nt: nt.replace(b"hasMember> <https://linked4resilience.eu/event/ch/b956ecc840b78757>",
                               b"hasMember> <https://linked4resilience.eu/event/eor/eor-131>", 1),
         f"aggregate node {_PAIR}: paired members must come from distinct datasets"),
        (lambda nt: _drop_line(nt, b"<https://linked4resilience.eu/event/eor/eor-131> "
                                   b"<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"),
         "aggregate member has no event: https://linked4resilience.eu/event/eor/eor-131"),
        (lambda nt: _SECOND_DATE + nt,
         f"event node {_CH_EVENT}: http://purl.org/dc/terms/date has 2 distinct objects"),
        (lambda nt: nt + _SECOND_DATE,
         f"event node {_CH_EVENT}: http://purl.org/dc/terms/date has 2 distinct objects"),
        (lambda nt: nt.replace(b'"49.823"^^', b'"49.9"^^<http://www.w3.org/2001/XMLSchema#decimal>'
                                              b' .\n' + _GEO + b' <https://schema.org/latitude>'
                                              b' "49.823"^^', 1),
         f"event node {_CH_EVENT}: https://schema.org/latitude has 2 distinct objects"),
    ], ids=["truncated-statement", "relative-iri", "invalid-utf8", "non-numeric-latitude",
            "missing-longitude", "impossible-date", "month-out-of-range", "malformed-date",
            "relative-source-url", "label-language", "empty-comment", "not-a-geonames-iri",
            "aggregate-without-primary", "member-not-an-event-iri", "aggregate-without-members",
            "primary-not-a-member", "pair-from-one-dataset", "member-without-event",
            "second-date-first", "second-date-last", "second-latitude"])
    def test_malformed_integrated_nt_is_one_line_error(self, fixture_nt, workdir, capsys,
                                                       corrupt, message):
        bad = workdir / "integrated.nt"
        bad.write_bytes(corrupt(fixture_nt.read_bytes()))
        out = workdir / "uc2.csv"
        assert _run("report", "uc2", "--input", bad, "--keyword", "school", "--out", out) == 1
        line = _error_line(capsys)
        assert line == f"resilink: error: {bad}: {message}"
        assert not out.exists()

    def test_a_repeated_statement_is_one_statement(self, fixture_nt, workdir):
        date = next(line for line in fixture_nt.read_bytes().splitlines(keepends=True)
                    if line.startswith(f"<{_CH_EVENT}> <http://purl.org/dc/terms/date> ".encode()))
        twice = workdir / "integrated.nt"
        twice.write_bytes(date + fixture_nt.read_bytes())
        for nt, out in ((fixture_nt, workdir / "once.csv"), (twice, workdir / "twice.csv")):
            assert _run("report", "uc2", "--input", nt, "--keyword", "school", "--out", out) == 0
        assert (workdir / "twice.csv").read_bytes() == (workdir / "once.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_single_line_mutation_of_the_nt_ends_in_a_named_error(self, fixture_nt,
                                                                      tmp_path_factory, data):
        lines = fixture_nt.read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        subject, predicate, rest = lines[i].split(b" ", 2)
        obj = rest[:-len(b" .\n")]
        other = data.draw(st.sampled_from(lines), label="other line").split(b" ", 2)
        mutation = data.draw(st.sampled_from(
            ["delete", "duplicate", "other object", "other predicate", "literal", "truncate"]))
        if mutation == "delete":
            lines[i:i + 1] = []
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "other object":
            lines[i] = b" ".join((subject, predicate, other[2]))
        elif mutation == "other predicate":
            lines[i] = b" ".join((subject, other[1], rest))
        elif mutation == "literal":
            obj = data.draw(st.sampled_from([b'"north"', b'"nan"', b'"2021-13-01"', b'""']))
            obj += data.draw(st.sampled_from(
                [b"", b"^^<http://www.w3.org/2001/XMLSchema#decimal>", b"@en"]))
            lines[i] = b" ".join((subject, predicate, obj + b" .\n"))
        else:
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 2))] + b"\n"
        bad = tmp_path_factory.getbasetemp() / "mutated.nt"
        bad.write_bytes(b"".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run("report", "uc2", "--input", bad, "--keyword", "school",
                        "--out", bad.with_suffix(".csv"))
        if code != 0:
            assert code == 1
            (line,) = err.getvalue().strip().splitlines()
            named = (rf"line \d+: |(event|aggregate) node {re.escape(EVENT_NS)}\S+: "
                     rf"|aggregate member has no event: {re.escape(EVENT_NS)}\S+$")
            assert re.match(f"resilink: error: {re.escape(str(bad))}: ({named})", line), line

    def test_negative_death_count_is_one_line_error(self, workdir, capsys):
        # used to write the ratio -0.294118 and exit 0
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        deaths = workdir / "deaths.csv"
        deaths.write_text("month,deaths\n2022-03,-5\n")
        out = workdir / "uc5.csv"
        assert _run("report", "uc5", "--input", nt, "--deaths", deaths, "--out", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "negative death count" in line
        assert not out.exists()

    @pytest.mark.parametrize("month", ["2022-13", "2022-00"])
    def test_deaths_month_follows_the_months_rule(self, workdir, capsys, month):
        # a month out of range passed the bare YYYY-MM pattern: uc5 dropped it with a
        # warning and exited 0
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        deaths = workdir / "deaths.csv"
        deaths.write_text(f"month,deaths\n2022-03,4\n{month},5\n")
        out = workdir / "uc5.csv"
        assert _run("report", "uc5", "--input", nt, "--deaths", deaths, "--out", out) == 1
        line = _error_line(capsys)
        assert line == f"resilink: error: {deaths}: line 3: not a YYYY-MM month: '{month}'"
        assert not out.exists()

    @pytest.mark.parametrize("use_case,flag,data,lineno", [
        pytest.param("uc5", "--deaths", b"month,deaths\n2022-03,4\n2022-04,\xff\n", 3, id="uc5"),
        pytest.param("uc6", "--shelters", b'name,lat,lon\r\n"Metro\r\nst\xff",50.0,36.0\r\n', 3,
                     id="uc6"),
        # past the first 8 KB, which a text file's line iterator decodes in one chunk
        pytest.param("uc6", "--shelters",
                     b"name,lat,lon\n" + b"x,50.0,36.0\n" * 1000 + b"\xfe,1,1\n", 1002,
                     id="uc6-past-8k"),
    ])
    def test_report_csv_invalid_utf8_is_one_line_error(self, workdir, capsys, use_case, flag,
                                                       data, lineno):
        # the decoder's message once came alone, naming neither the input nor its line
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        bad, out = workdir / "input.csv", workdir / "out.csv"
        bad.write_bytes(data)
        assert _run("report", use_case, "--input", nt, flag, bad, "--out", out) == 1
        line = _error_line(capsys)
        assert line == f"resilink: error: {bad}: line {lineno}: invalid UTF-8"
        assert not out.exists()

    @pytest.mark.parametrize("command,data,message", [
        pytest.param("uc5", b"month,deaths\r2022-03,4\r2022-04,\xff\r",
                     "invalid UTF-8", id="uc5-invalid-utf8"),
        pytest.param("uc5", b"month,deaths\r2022-03,4\r2022-04\r",
                     "expected 'YYYY-MM,integer'", id="uc5-ragged"),
        pytest.param("uc6", b"name,lat,lon\rx,50.0,36.0\ry\xff,50.0,36.0\r",
                     "invalid UTF-8", id="uc6-invalid-utf8"),
        pytest.param("uc6", b"name,lat,lon\rx,50.0,36.0\ry,50.0\r",
                     "expected 3 columns", id="uc6-ragged"),
        pytest.param("ingest", b"date,lat,lon\r2022-03-07,49.2,37.2\r2022-03-08,49.\xff,37.2\r",
                     "invalid UTF-8", id="ingest-invalid-utf8"),
        pytest.param("ingest", b"date,lat,lon\r2022-03-07,49.2,37.2\r2022-03-08,49.2\r",
                     "row has 2 columns, header has 3", id="ingest-ragged"),
    ])
    def test_report_csv_with_lone_cr_line_ends_names_the_reader_line(
            self, workdir, capsys, command, data, message):
        # invalid UTF-8 once counted LFs alone and read "line 1" where a ragged row read
        # "line 3": in the shelter and deaths CSVs, and then in the source CSV
        bad, out = workdir / "input.csv", workdir / "out.csv"
        bad.write_bytes(data)
        if command == "ingest":
            config = workdir / "config.json"
            config.write_text(json.dumps({"adapters": {"ch": {"date": "date", "lat": "lat",
                                                              "lon": "lon"}}}))
            argv = ("ingest", "--dataset", "ch", "--format", "csv", "--input", bad,
                    "--config", config, "--out", out)
        else:
            nt = workdir / "events.nt"
            assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
            flag = {"uc5": "--deaths", "uc6": "--shelters"}[command]
            argv = ("report", command, "--input", nt, flag, bad, "--out", out)
        assert _run(*argv) == 1
        assert _error_line(capsys) == f"resilink: error: {bad}: line 3: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("kind", [
        "source-json", "source-csv", "event-json", "overrides", "places", "alt_names", "postal",
        "integrated-nt", "shelters", "deaths",
    ])
    def test_invalid_utf8_names_the_path_and_line(self, fixture_nt, workdir, capsys, kind):
        # each input kind once reported invalid UTF-8 in a way of its own: with a byte
        # offset, the decoder's position, "PATH:2:", or without the path
        fixtures = workdir / "fixtures"
        shutil.copytree(PIPE.parent, fixtures)
        pipe = fixtures / "pipeline"
        config, events, nt = pipe / "config.json", workdir / "events.json", workdir / "integrated.nt"
        events.write_text(json.dumps([_GOOD_EVENT], indent=2))
        shutil.copy(fixture_nt, nt)
        shelters, deaths = workdir / "shelters.csv", workdir / "deaths.csv"
        shelters.write_text("name,lat,lon\ncentral,50.0,36.0\n")
        deaths.write_text("month,deaths\n2022-03,4\n")
        out = workdir / "out"
        ingest = ("ingest", "--config", config, "--out", out, "--input")
        enrich = ("enrich", "--input", events, "--config", config, "--out", out)
        bad, argv = {  # the file at fault and the command that reads it
            "source-json": (pipe / "eor.json", (*ingest, pipe / "eor.json", "--dataset", "eor",
                                                "--format", "json")),
            "source-csv": (pipe / "ch.csv", (*ingest, pipe / "ch.csv", "--dataset", "ch",
                                             "--format", "csv")),
            "event-json": (events, ("convert", "--input", events, "--out", out)),
            "overrides": (pipe / "overrides.json", enrich),
            "places": (pipe / "../gazetteer/places.tsv", enrich),
            "alt_names": (pipe / "../gazetteer/alt_names.tsv", enrich),
            "postal": (pipe / "../gazetteer/postal.tsv", enrich),
            "integrated-nt": (nt, ("report", "uc2", "--input", nt, "--keyword", "school",
                                   "--out", out)),
            "shelters": (shelters, ("report", "uc6", "--input", nt, "--shelters", shelters,
                                    "--out", out)),
            "deaths": (deaths, ("report", "uc5", "--input", nt, "--deaths", deaths, "--out", out)),
        }[kind]
        lines = bad.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        bad.write_bytes(b"\n".join(lines))
        assert _run(*argv) == 1
        assert _error_line(capsys) == f"resilink: error: {bad}: line 2: invalid UTF-8"
        assert not out.exists()

    @pytest.mark.parametrize("geoname_id", ["0", "-3"])
    def test_uc1_city_geoname_id_must_be_positive(self, workdir, capsys, geoname_id):
        # 0 used to be taken as "no filter" and wrote the unfiltered selection
        nt = workdir / "events.nt"
        assert _run("convert", "--input", _tiny_events(workdir), "--out", nt) == 0
        out = workdir / "uc1.geojson"
        assert _run("report", "uc1", "--input", nt, "--start", "2022-01-01", "--end", "2023-01-01",
                    "--city-geoname-id", geoname_id, "--out-geojson", out) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and "geoname_id" in line
        assert not out.exists()

    def test_output_path_that_is_a_directory_is_one_line_error(self, workdir, capsys):
        target = workdir / "taken"
        target.mkdir()
        assert _run("convert", "--input", _tiny_events(workdir), "--out", target) == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ")
        assert target.is_dir() and not list(target.iterdir())
        assert not list(workdir.glob("*.tmp"))

    @staticmethod
    def _enrich_online(workdir, gaz_index, body: bytes) -> Path:
        """Run enrich, expecting exit 1, with an online gazetteer that replies body;
        return the path it was told to write."""
        from tests.httpmock import GeoNamesHandler

        server = start_server(GeoNamesHandler, index=gaz_index)
        server.scripted_bodies.append(body)
        try:
            cfg = json.loads((PIPE / "config.json").read_text())
            cfg["gazetteer"] = {k: str(PIPE / v) for k, v in cfg["gazetteer"].items()}
            cfg["overrides"] = str(PIPE / cfg["overrides"])
            cfg["online"] = {"base_url": f"http://127.0.0.1:{server.server_address[1]}",
                             "username": "demo", "rate_per_sec": 1000}
            config = workdir / "config.json"
            config.write_text(json.dumps(cfg))
            far = workdir / "far.json"  # nothing offline is near: the online pass runs
            far.write_text(json.dumps([
                {"id": "far-1", "dataset": "eor", "date": "2022-03-07", "lat": 44.0, "lon": 33.0}
            ]))
            out = workdir / "out.json"
            assert _run("enrich", "--input", far, "--config", config, "--out", out) == 1
        finally:
            stop_server(server)
        return out

    def test_malformed_online_reply_is_one_line_error(self, workdir, capsys, gaz_index):
        out = self._enrich_online(workdir, gaz_index, b'{"geonames": [{"name": "x"}]}')
        line = _error_line(capsys)
        assert line.startswith("resilink: error: malformed reply")
        assert not out.exists()

    def test_oversized_online_reply_is_one_line_error(self, workdir, capsys, gaz_index):
        from resilink.geonames_api import MAX_REPLY_BYTES

        out = self._enrich_online(workdir, gaz_index, b'{"geonames": []}'.ljust(MAX_REPLY_BYTES + 1))
        assert _error_line(capsys) == ("resilink: error: reply from findNearbyPlaceNameJSON "
                                       f"is longer than {MAX_REPLY_BYTES} bytes")
        assert not out.exists()

    def test_linkcheck_concurrency_zero_rejected(self, workdir):
        # a closed local port: nothing leaves the machine even if the check were missing
        code = _run("linkcheck", "--input", _tiny_events(workdir),
                    "--config", PIPE / "config.json",
                    "--base-override", "http://127.0.0.1:9",
                    "--concurrency", "0", "--out-json", workdir / "links.json")
        assert code == 1

    @pytest.mark.parametrize("config, flags, key", [
        ('{"linkcheck": {"timeout_s": 1e999}}', (), "timeout_s"),
        ('{"linkcheck": {"politeness_s": 1e999}}', (), "politeness_s"),
        ("{}", ("--timeout", "inf"), "timeout_s"),
        ("{}", ("--timeout", "0"), "timeout_s"),
        ("{}", ("--timeout", "-1"), "timeout_s"),
        ("{}", ("--timeout", "nan"), "timeout_s"),
        ("{}", ("--timeout", "1e300"), "timeout_s"),
    ], ids=["config-timeout-inf", "config-politeness-inf", "flag-timeout-inf", "flag-timeout-0",
            "flag-timeout-negative", "flag-timeout-nan", "flag-timeout-1e300"])
    def test_bad_linkcheck_timing_is_one_line_error(self, workdir, capsys, config, flags, key):
        # an infinite timeout or delay ended in an OverflowError traceback, and a
        # timeout of 0, -1 or nan in urllib3's message; a flag now obeys the config's rule
        config_file = workdir / "config.json"
        config_file.write_text(config)
        events = workdir / "events.json"
        events.write_text(json.dumps([
            {"id": "e1", "dataset": "eor", "date": "2022-03-07", "lat": 50.0, "lon": 36.0,
             "source_urls": ["https://t.me/a/1", "https://t.me/a/2"]}
        ]))
        out = workdir / "links.json"
        # a closed local port: nothing leaves the machine even if the check were missing
        code = _run("linkcheck", "--input", events, "--config", config_file,
                    "--base-override", "http://127.0.0.1:9", *flags, "--out-json", out)
        assert code == 1
        line = _error_line(capsys)
        assert line.startswith("resilink: error: ") and key in line
        assert not out.exists()


def test_atomic_write_leaves_the_target_when_its_chunks_fail(tmp_path):
    target = tmp_path / "out.nt"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"new\n"
        raise ValueError("chunk failed")

    with pytest.raises(ValueError, match="chunk failed"):
        cli._atomic_write(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp file is left


def test_events_written_in_slices_are_the_whole_text(tmp_path, monkeypatch):
    events = [Event(id=f"e{i}", dataset=Dataset.EOR, date=CivilDate(2022, 3, 7),
                    point=GeoPoint(50.0, 36.0), city_labels={"uk": "Ізюм"}, description="😀 x")
              for i in range(40)]
    monkeypatch.setattr(cli, "_SLICE_CHARS", 7)  # slices end beside two- and four-byte characters
    path = tmp_path / "events.json"
    cli._write_events(path, events)
    assert path.read_bytes() == events_to_json(events).encode("utf-8") + b"\n"


def test_worked_config_loads_its_values_and_defaults():
    cfg = PipelineConfig.load(PIPE / "config.json")
    assert cfg.linkcheck == LinkcheckSettings(timeout_s=2.0, concurrency=8, politeness_s=0.0)
    assert (cfg.match, cfg.enrichment, cfg.analytics, cfg.online) == (
        MatchConfig(), EnrichmentConfig(), ReportSettings(), None
    )
    assert set(cfg.adapters) == {Dataset.EOR, Dataset.CH}
    assert cfg.gazetteer_files == tuple(
        PIPE / "../gazetteer" / name for name in ("places.tsv", "alt_names.tsv", "postal.tsv")
    )
    assert cfg.overrides_path == PIPE / "overrides.json"


def test_cli_import_leaves_requests_unloaded():
    # only linkcheck and the online enrichment pass make HTTP calls, and only
    # nearest-neighbour queries (gazetteer, uc6) use numpy; linkcheck's rate
    # limiter also paces the online gazetteer, which must not pull numpy in.
    # Both HTTP clients speak through http.client, whose ssl import costs start-up;
    # requests and urllib3 are still installed, so an import of them would show here
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for module, unloaded in (
        ("resilink.cli", ("requests", "numpy", "http.client")),
        ("resilink.linkcheck", ("numpy", "requests", "urllib3")),
        ("resilink.geonames_api", ("requests", "urllib3")),
    ):
        code = f"import {module}, sys; print([m for m in {unloaded!r} if m in sys.modules])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stdout, done.stderr)


class TestCyclicCollector:
    """A command runs with the cyclic collector off and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("case, code", [("done", 0), ("data-error", 1), ("usage-error", 2)])
    def test_collector_state_is_restored(self, workdir, monkeypatch, enabled, case, code):
        from resilink import cli

        seen = []
        convert = cli._cmd_convert

        def spy(args, cfg):
            seen.append(gc.isenabled())
            convert(args, cfg)

        monkeypatch.setattr(cli, "_cmd_convert", spy)
        source = _tiny_events(workdir) if case == "done" else workdir / "missing.json"
        flags = ("--rdf-format", "xml") if case == "usage-error" else ()
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert _run("convert", "--input", source, "--out", workdir / "out.nt", *flags) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == ([] if code == 2 else [False])

    def test_a_command_collects_only_the_young_generations(self, workdir):
        # a full pass would walk every old object of a process that embeds the CLI
        passes = []

        def record(phase, info):
            if phase == "stop":
                passes.append((info["generation"], info["collected"]))

        gc.collect()  # no automatic pass reaches generation 2 for a while after this
        gc.callbacks.append(record)
        try:
            assert _run("ingest", "--dataset", "ch", "--format", "csv", "--input", PIPE / "ch.csv",
                        "--config", PIPE / "config.json", "--out", workdir / "ch.json") == 0
        finally:
            gc.callbacks.remove(record)
        assert all(generation < 2 for generation, _ in passes), passes
        assert any(generation == 1 and collected for generation, collected in passes), passes

    def test_pipeline_with_a_rejected_record_leaves_no_event_in_cyclic_garbage(self, workdir):
        # without the collector, a bulk reference cycle is memory that a command never
        # frees; run in a child, as pytest's log capture would keep the rejection alive
        records = json.loads((PIPE / "eor.json").read_text())
        records.append({**records[0], "id": "eor-bad", "latitude": 95.0})
        eor = workdir / "eor.json"
        eor.write_text(json.dumps(records))
        code = ("import gc, json, sys\n"
                "from resilink import cli\n"
                "gc.disable()\n"  # so that nothing collects between the command and the check
                "code = cli.run_subcommand(sys.argv[1:])\n"
                "gc.set_debug(gc.DEBUG_SAVEALL)\n"
                "gc.collect()\n"
                "print(json.dumps([code, sorted({type(o).__name__ for o in gc.garbage})]))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--config", PIPE / "config.json",
             "--eor-input", eor, "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
             "--outdir", workdir / "out"],
            env=env, capture_output=True, text=True)
        assert "rejected record 50: latitude out of range: 95.0" in done.stderr
        exit_code, left = json.loads(done.stdout)
        assert exit_code == 0
        assert not set(left) & {"RawEventRecord", "Event", "GazetteerEntry", "PostalCodeEntry"}


class TestSourceBoundary:
    """Arbitrary text in otherwise valid source records ends in exit 0 or 1, never a traceback."""

    EOR_FIELDS = ("id", "happened", "latitude", "longitude", "description", "country", "city",
                  "province", "url", "violence_level")
    CH_FIELDS = ("date", "latitude", "longitude", "description", "location", "sources")

    def _pipeline(self, workdir: Path, caplog, eor: bytes, ch: bytes, n_records: int) -> None:
        (workdir / "eor.json").write_bytes(eor)
        (workdir / "ch.csv").write_bytes(ch)
        outdir = workdir / "out"
        caplog.clear()
        err = io.StringIO()
        with caplog.at_level(logging.WARNING, logger="resilink"), contextlib.redirect_stderr(err):
            code = _run("pipeline", "--config", PIPE / "config.json",
                        "--eor-input", workdir / "eor.json",
                        "--ch-input", workdir / "ch.csv", "--ch-format", "csv", "--outdir", outdir)
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue() + caplog.text
        if code == 1:
            (line,) = err.getvalue().strip().splitlines()
            assert line.startswith("resilink: error: ")
            return
        written = sum(len(events_from_json((outdir / f"{ds}.events.json").read_bytes()))
                      for ds in ("eor", "ch"))
        rejected = sum(1 for r in caplog.records if r.getMessage().startswith("rejected "))
        assert written + rejected == n_records
        assert _run("report", "uc2", "--input", outdir / "integrated.nt", "--keyword", "school",
                    "--out", workdir / "uc2.csv") == 0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(EOR_FIELDS), _source_text),
                          min_size=1, max_size=4))
    def test_eor_json(self, tmp_path_factory, caplog, edits):
        eor = _with_hostile_fields(json.loads((PIPE / "eor.json").read_text())[:6], edits)
        with (PIPE / "ch.csv").open(newline="") as fp:
            ch = list(csv.DictReader(fp))[:6]
        self._pipeline(tmp_path_factory.mktemp("eor"), caplog,
                       json.dumps(eor).encode("utf-8"), _csv_bytes(ch), len(eor) + len(ch))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(CH_FIELDS), _source_text),
                          min_size=1, max_size=4))
    def test_ch_csv(self, tmp_path_factory, caplog, edits):
        eor = json.loads((PIPE / "eor.json").read_text())[:6]
        with (PIPE / "ch.csv").open(newline="") as fp:
            ch = _with_hostile_fields(list(csv.DictReader(fp))[:6], edits)
        self._pipeline(tmp_path_factory.mktemp("ch"), caplog,
                       json.dumps(eor).encode("utf-8"), _csv_bytes(ch), len(eor) + len(ch))


class TestStageCommands:
    @pytest.mark.parametrize("case", ["ingest csv", "report nt", "convert json", "convert config",
                                      "enrich places.tsv"])
    def test_leading_byte_order_mark_is_dropped(self, workdir, fixture_nt, case):
        # spreadsheet exports and Windows tools write one; each reader once refused it
        shutil.copytree(PIPE.parent, workdir / "fixtures")
        pipe = workdir / "fixtures" / "pipeline"
        events, nt, config = _tiny_events(workdir), workdir / "integrated.nt", workdir / "config.json"
        shutil.copy(fixture_nt, nt)
        config.write_text('{"linkcheck": {"timeout_s": 2.0}}')
        marked, argv = {  # the file that gets the mark, and the command that reads it
            "ingest csv": (pipe / "ch.csv", ("ingest", "--dataset", "ch", "--format", "csv",
                                             "--input", pipe / "ch.csv", "--config", pipe / "config.json")),
            "report nt": (nt, ("report", "uc2", "--input", nt, "--keyword", "school")),
            "convert json": (events, ("convert", "--input", events)),
            "convert config": (config, ("convert", "--input", events, "--config", config)),
            "enrich places.tsv": (workdir / "fixtures" / "gazetteer" / "places.tsv",
                                  ("enrich", "--input", events, "--config", pipe / "config.json")),
        }[case]
        data = marked.read_bytes()
        written = []
        for prefix in (b"", "\ufeff".encode()):
            marked.write_bytes(prefix + data)
            out = workdir / f"out{len(written)}"
            assert _run(*argv, "--out", out) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_ingest_writes_canonical_json(self, workdir):
        out = workdir / "eor.events.json"
        code = _run(
            "ingest", "--dataset", "eor", "--format", "json",
            "--input", PIPE / "eor.json",
            "--config", PIPE / "config.json",
            "--out", out,
        )
        assert code == 0
        events = events_from_json(out.read_bytes())
        assert len(events) == 50
        assert all(e.dataset is Dataset.EOR for e in events)

    def test_ingest_reads_lone_cr_line_ends(self, workdir, capsys):
        # "new-line character seen in unquoted field" once refused a lone-CR source CSV
        crlf = (PIPE / "ch.csv").read_bytes()
        lines = crlf.split(b"\r\n")
        short = b"\r\n".join([*lines[:3], b"2022-03-07,49.2", *lines[3:]])
        outputs = {}
        for name, data in {"crlf": crlf, "cr": crlf.replace(b"\r\n", b"\r"),
                           "crlf-short": short, "cr-short": short.replace(b"\r\n", b"\r")}.items():
            source, out = workdir / f"{name}.csv", workdir / f"{name}.json"
            source.write_bytes(data)
            code = _run("ingest", "--dataset", "ch", "--format", "csv", "--input", source,
                        "--config", PIPE / "config.json", "--out", out)
            outputs[name] = (out.read_bytes() if code == 0
                             else _error_line(capsys).replace(str(source), "SOURCE"))
        assert outputs["cr"] == outputs["crlf"]
        assert outputs["cr-short"] == outputs["crlf-short"] == (
            "resilink: error: SOURCE: line 4: row has 2 columns, header has 6")

    def test_ingest_rejects_a_second_record_with_one_id(self, workdir, caplog):
        config, source, out = workdir / "config.json", workdir / "ch.csv", workdir / "ch.json"
        config.write_text(json.dumps(
            {"adapters": {"ch": {"id": "id", "date": "date", "lat": "lat", "lon": "lon"}}}))
        source.write_text("id,date,lat,lon\nx,2022-03-08,49.2,37.2\nx,2022-03-09,49.3,37.3\n")
        with caplog.at_level(logging.WARNING, logger="resilink"):
            assert _run("ingest", "--dataset", "ch", "--format", "csv", "--input", source,
                        "--config", config, "--out", out) == 0
        assert [e.id for e in events_from_json(out.read_bytes())] == ["x"]
        assert [r.getMessage() for r in caplog.records] == [
            "rejected record 1: duplicate ch event id: 'x'"]

    def test_pipeline_with_a_repeated_source_row_rejects_the_copy(self, workdir, caplog):
        # the copy once reached integrate, which refused the second event with its id
        header, first, *rest = (PIPE / "ch.csv").read_bytes().split(b"\r\n")
        source = workdir / "ch.csv"
        source.write_bytes(b"\r\n".join([header, first, first, *rest]))
        outdir = workdir / "out"
        with caplog.at_level(logging.WARNING, logger="resilink"):
            assert _run("pipeline", "--config", PIPE / "config.json",
                        "--eor-input", PIPE / "eor.json", "--ch-input", source,
                        "--ch-format", "csv", "--outdir", outdir) == 0
        (message,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rejected")]
        assert re.fullmatch(r"rejected record 1: duplicate ch event id: '[0-9a-f]{16}'", message)
        assert json.loads((outdir / "counts.json").read_text())["b"] == 20

    def test_ingest_reruns_byte_identical(self, workdir):
        out = workdir / "a.json"
        args = (
            "ingest", "--dataset", "ch", "--format", "csv",
            "--input", PIPE / "ch.csv",
            "--config", PIPE / "config.json",
            "--out", out,
        )
        assert _run(*args) == 0
        first = out.read_bytes()
        assert _run(*args) == 0
        assert out.read_bytes() == first

    def test_full_pipeline_and_reports(self, workdir):
        outdir = workdir / "out"
        code = _run(
            "pipeline",
            "--config", PIPE / "config.json",
            "--eor-input", PIPE / "eor.json", "--eor-format", "json",
            "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
            "--outdir", outdir,
        )
        assert code == 0

        counts = json.loads((outdir / "counts.json").read_text())
        assert counts == {"a": 50, "b": 20, "identical": 5, "near_distinct": 2, "integrated": 65}

        with (outdir / "pairs.csv").open() as fp:
            rows = list(csv.DictReader(fp))
        assert sum(1 for r in rows if r["verdict"] == "Identical") == 5
        assert sum(1 for r in rows if r["verdict"] == "NearDistinct") == 2

        integrated = outdir / "integrated.nt"
        assert list(parse_ntriples(integrated.read_bytes()))

        # the single stages, run one by one, write the same seven files
        staged = workdir / "staged"
        for dataset, source, fmt in (("eor", "eor.json", "json"), ("ch", "ch.csv", "csv")):
            assert _run("ingest", "--dataset", dataset, "--format", fmt,
                        "--input", PIPE / source, "--config", PIPE / "config.json",
                        "--out", staged / f"{dataset}.events.json") == 0
            assert _run("enrich", "--input", staged / f"{dataset}.events.json",
                        "--config", PIPE / "config.json",
                        "--out", staged / f"{dataset}.enriched.json") == 0
        assert _run("integrate", "--eor", staged / "eor.enriched.json",
                    "--ch", staged / "ch.enriched.json",
                    "--out", staged / "integrated.nt", "--pairs", staged / "pairs.csv",
                    "--counts", staged / "counts.json") == 0
        assert sorted(p.name for p in outdir.iterdir()) == sorted(p.name for p in staged.iterdir())
        for name in ("eor.events.json", "ch.events.json", "eor.enriched.json",
                     "ch.enriched.json", "integrated.nt", "pairs.csv", "counts.json"):
            assert (outdir / name).read_bytes() == (staged / name).read_bytes(), name

        # uc2 over the integrated file
        uc2 = workdir / "uc2.csv"
        assert _run("report", "uc2", "--input", integrated, "--keyword", "school", "--out", uc2) == 0
        with uc2.open() as fp:
            buckets = list(csv.DictReader(fp))
        assert len(buckets) == 15
        march = next(b for b in buckets if b["month"] == "2022-03")
        assert int(march["count"]) >= 1

        # uc1 with inclusive window and city filter
        uc1_nt, uc1_geo = workdir / "uc1.nt", workdir / "uc1.geojson"
        assert _run(
            "report", "uc1", "--input", integrated,
            "--start", "2022-10-01", "--end", "2023-02-28",
            "--city-geoname-id", "706448",
            "--out-nt", uc1_nt, "--out-geojson", uc1_geo,
        ) == 0
        geo = json.loads(uc1_geo.read_text())
        assert geo["type"] == "FeatureCollection"
        assert list(parse_ntriples(uc1_nt.read_bytes()))

        # uc3 multilingual top-5
        uc3 = workdir / "uc3.csv"
        assert _run("report", "uc3", "--input", integrated, "--langs", "en,uk,nl,fr",
                    "--top", "5", "--out", uc3) == 0
        with uc3.open() as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["en", "uk", "nl", "fr", "occurrences"]
        assert 1 <= len(rows) - 1 <= 5

        # uc4 monthly timeline
        uc4 = workdir / "uc4.csv"
        assert _run("report", "uc4", "--input", integrated,
                    "--months", "2022-03,2022-04", "--top", "3", "--out", uc4) == 0
        with uc4.open() as fp:
            rows = list(csv.DictReader(fp))
        assert all(r["month"] in ("2022-03", "2022-04") for r in rows)

        # uc5 against an external deaths file
        deaths = workdir / "deaths.csv"
        deaths.write_text("month,deaths\n2022-03,4\n2022-04,2\n")
        uc5 = workdir / "uc5.csv"
        assert _run("report", "uc5", "--input", integrated, "--deaths", deaths,
                    "--months", "2022-03,2022-04", "--out", uc5) == 0
        text = uc5.read_text()
        assert text.startswith("#")

        # uc6 shelter gap
        shelters = workdir / "shelters.csv"
        shelters.write_text("name,lat,lon\ncentral,49.9935,36.2304\n")
        uc6_geo, uc6_csv = workdir / "uc6.geojson", workdir / "uc6.csv"
        assert _run("report", "uc6", "--input", integrated, "--shelters", shelters,
                    "--out-geojson", uc6_geo, "--out", uc6_csv) == 0
        collection = json.loads(uc6_geo.read_text())
        with uc6_csv.open() as fp:
            cells = list(csv.DictReader(fp))
        assert sum(int(c["count"]) for c in cells) == len(collection["features"])

    def test_repeated_source_url_is_kept_once(self, workdir):
        # the events JSON held the URL twice, while the .nt, a triple set, held it once
        source = workdir / "eor.json"
        source.write_text(json.dumps([
            {"id": "r1", "happened": "2022-03-07", "latitude": 50.0, "longitude": 36.0,
             "url": "https://t.me/a/1 https://t.me/b/2 https://t.me/a/1"}
        ]))
        events, nt = workdir / "eor.events.json", workdir / "eor.nt"
        assert _run("ingest", "--dataset", "eor", "--format", "json", "--input", source,
                    "--config", PIPE / "config.json", "--out", events) == 0
        (ev,) = events_from_json(events.read_bytes())
        assert ev.source_urls == ("https://t.me/a/1", "https://t.me/b/2")
        assert _run("convert", "--input", events, "--out", nt) == 0
        urls = [obj for _, predicate, obj, *_ in parse_ntriples(nt.read_bytes())
                if predicate == "https://schema.org/url"]
        assert sorted(urls) == sorted(ev.source_urls)

    def test_repeated_source_url_in_event_json_is_kept_once(self, workdir):
        # the reader once kept both, so linkcheck wrote the URL's row twice
        events, nt, links = workdir / "e.events.json", workdir / "e.nt", workdir / "links.csv"
        events.write_text(json.dumps([
            {"id": "e1", "dataset": "eor", "date": "2022-03-07", "lat": 50.0, "lon": 36.0,
             "source_urls": ["https://t.me/a/1", "https://t.me/a/1"]}
        ]))
        assert _run("convert", "--input", events, "--out", nt) == 0
        (ev,) = events_from_json(events.read_bytes())
        assert ev.source_urls == ("https://t.me/a/1",)
        (reloaded,) = IntegratedDataset.from_triples(parse_ntriples(nt.read_bytes())).events.values()
        assert reloaded.source_urls == ev.source_urls
        assert _run("linkcheck", "--input", events, "--base-override", "http://127.0.0.1:9",
                    "--out-csv", links) == 0
        with links.open() as fp:
            rows = list(csv.DictReader(fp))
        assert [row["url"] for row in rows] == ["https://t.me/a/1"]

    def test_iri_unsafe_source_url_survives_to_the_reports(self, workdir):
        url = "https://t.me/s/chan?q={a}|b"
        records = json.loads((PIPE / "eor.json").read_text())
        records[0]["url"] = url
        eor = workdir / "eor.json"
        eor.write_text(json.dumps(records))
        outdir = workdir / "out"
        assert _run("pipeline", "--config", PIPE / "config.json",
                    "--eor-input", eor, "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
                    "--outdir", outdir) == 0
        assert _run("report", "uc2", "--input", outdir / "integrated.nt", "--keyword", "school",
                    "--out", workdir / "uc2.csv") == 0
        # event JSON keeps the raw URL; the RDF carries it percent-encoded
        assert url in (outdir / "eor.events.json").read_text()
        assert b"<https://t.me/s/chan?q=%7Ba%7D%7Cb>" in (outdir / "integrated.nt").read_bytes()

    def test_url_with_a_leading_control_character_is_rejected_at_ingest(self, workdir, caplog):
        # urlsplit skips the leading \x01 and finds the scheme behind it
        records = json.loads((PIPE / "eor.json").read_text())
        records[2]["url"] = "\x01https://x/"
        eor = workdir / "eor.json"
        eor.write_text(json.dumps(records))
        outdir = workdir / "out"
        with caplog.at_level(logging.WARNING, logger="resilink"):
            assert _run("pipeline", "--config", PIPE / "config.json",
                        "--eor-input", eor, "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
                        "--outdir", outdir) == 0
        rejected = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rejected ")]
        assert len(rejected) == 1 and "source URL is not absolute" in rejected[0]
        ids = [ev.id for ev in events_from_json((outdir / "eor.events.json").read_bytes())]
        assert len(ids) == len(records) - 1 and "eor-003" not in ids
        assert _run("report", "uc2", "--input", outdir / "integrated.nt", "--keyword", "school",
                    "--out", workdir / "uc2.csv") == 0

    def test_lone_surrogate_is_rejected_at_ingest(self, workdir, caplog):
        # "\ud800" is a valid JSON escape, but no UTF-8 output can hold it
        records = json.loads((PIPE / "eor.json").read_text())
        records[2]["description"] = "school \ud800 hit"
        eor = workdir / "eor.json"
        eor.write_text(json.dumps(records))
        outdir = workdir / "out"
        with caplog.at_level(logging.WARNING, logger="resilink"):
            assert _run("pipeline", "--config", PIPE / "config.json",
                        "--eor-input", eor, "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
                        "--outdir", outdir) == 0
        rejected = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rejected ")]
        assert len(rejected) == 1 and "lone surrogate" in rejected[0]
        ids = [ev.id for ev in events_from_json((outdir / "eor.events.json").read_bytes())]
        assert len(ids) == len(records) - 1 and "eor-003" not in ids
        assert _run("report", "uc2", "--input", outdir / "integrated.nt", "--keyword", "school",
                    "--out", workdir / "uc2.csv") == 0

    def test_outputs_get_the_umask_mode(self, workdir):
        umask = os.umask(0o022)
        try:
            assert _run("pipeline", "--config", PIPE / "config.json",
                        "--eor-input", PIPE / "eor.json", "--ch-input", PIPE / "ch.csv",
                        "--ch-format", "csv", "--outdir", workdir / "out") == 0
        finally:
            os.umask(umask)
        modes = {p.name: oct(p.stat().st_mode & 0o777) for p in (workdir / "out").iterdir()}
        assert len(modes) == 7
        assert set(modes.values()) == {"0o644"}, modes

    def test_convert_turtle(self, workdir):
        events_file = workdir / "ev.json"
        assert _run(
            "ingest", "--dataset", "eor", "--format", "json",
            "--input", PIPE / "eor.json",
            "--config", PIPE / "config.json",
            "--out", events_file,
        ) == 0
        out = workdir / "events.ttl"
        assert _run("convert", "--input", events_file, "--out", out,
                    "--rdf-format", "turtle") == 0
        assert out.read_text().startswith("@prefix")

    def test_enrich_online_fallback(self, workdir, gaz_index):
        from tests.httpmock import GeoNamesHandler

        server = start_server(GeoNamesHandler, index=gaz_index)
        try:
            gazdir = PIPE.parent / "gazetteer"
            cfg = {
                "adapters": json.loads((PIPE / "config.json").read_text())["adapters"],
                "gazetteer": {
                    "places": str(gazdir / "places.tsv"),
                    "alternate_names": str(gazdir / "alt_names.tsv"),
                    "postal_codes": str(gazdir / "postal.tsv"),
                },
                "online": {
                    "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                    "username": "demo",
                    "rate_per_sec": 1000,
                },
            }
            cfg_path = workdir / "config.json"
            cfg_path.write_text(json.dumps(cfg))

            # far from every offline entry: the offline pass resolves nothing
            events_file = workdir / "far.json"
            events_file.write_text(json.dumps([
                {"id": "far-1", "dataset": "eor", "date": "2022-03-07",
                 "lat": 44.0, "lon": 33.0}
            ]))

            out_offline = workdir / "offline.json"
            assert _run("--offline", "enrich", "--input", events_file,
                        "--config", cfg_path, "--out", out_offline) == 0
            (ev,) = events_from_json(out_offline.read_bytes())
            assert ev.city is None and ev.postal_code is None

            out_online = workdir / "online.json"
            assert _run("enrich", "--input", events_file,
                        "--config", cfg_path, "--out", out_online) == 0
            (ev,) = events_from_json(out_online.read_bytes())
            assert ev.city is not None
            assert ev.postal_code is not None
        finally:
            stop_server(server)

    def test_linkcheck_against_mock(self, workdir):
        server = start_server(ScriptedHandler)
        try:
            events_file = workdir / "ev.json"
            assert _run(
                "ingest", "--dataset", "eor", "--format", "json",
                "--input", PIPE / "eor.json",
                "--config", PIPE / "config.json",
                "--out", events_file,
            ) == 0
            out_csv, out_json = workdir / "links.csv", workdir / "links.json"
            code = _run(
                "linkcheck", "--input", events_file,
                "--config", PIPE / "config.json",
                "--base-override", f"http://127.0.0.1:{server.server_address[1]}",
                "--concurrency", "8",
                "--out-csv", out_csv, "--out-json", out_json,
            )
            assert code == 0
            summary = json.loads(out_json.read_text())
            assert "eor" in summary
            assert summary["eor"]["total_urls"] == 50
        finally:
            stop_server(server)
