from __future__ import annotations

import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from resilink import linkcheck
from resilink.linkcheck import (
    MAX_REDIRECTS,
    LinkChecker,
    LinkReportRow,
    LinkState,
    RateLimiter,
    link_report,
    summary_dict,
)
from resilink.cli import run_subcommand
from resilink.model import MAX_WAIT_S, CivilDate, Dataset, Event, GeoPoint, events_to_json
from tests.httpmock import ScriptedHandler, start_server, stop_server


@pytest.fixture(scope="module")
def server():
    srv = start_server(ScriptedHandler, slow_delay_s=1.5)
    yield srv
    stop_server(srv)


@pytest.fixture()
def sleeps(monkeypatch) -> list:
    """The key of each sleep that RateLimiter.wait makes during the test, in order.

    Whether a wait sleeps does not depend on how busy the machine is, so
    tests assert on it instead of on an upper bound of the wall time."""
    got, local, wait, sleep = [], threading.local(), RateLimiter.wait, time.sleep

    def keyed(self, key=None):
        local.key = key
        try:
            wait(self, key)
        finally:
            del local.key

    def recorded(delay):
        if hasattr(local, "key"):
            got.append(local.key)
        sleep(delay)

    monkeypatch.setattr(RateLimiter, "wait", keyed)
    monkeypatch.setattr(linkcheck.time, "sleep", recorded)
    return got


def _checker(server, **kwargs) -> LinkChecker:
    kwargs.setdefault("timeout_s", 0.5)
    kwargs.setdefault("politeness_s", 0.0)
    return LinkChecker(base_override=f"http://127.0.0.1:{server.server_address[1]}", **kwargs)


def _event(i: int, urls: tuple[str, ...], dataset=Dataset.EOR) -> Event:
    return Event(
        id=f"ev-{dataset.value}-{i}",
        dataset=dataset,
        date=CivilDate(2022, 3, 7),
        point=GeoPoint(49.0, 36.0),
        source_urls=urls,
    )


class TestCheckUrl:
    def test_ok(self, server):
        assert _checker(server).check("https://example.com/ok") == (LinkState.VALID, 200)

    def test_broken_404(self, server):
        assert _checker(server).check("https://example.com/gone") == (LinkState.BROKEN, 404)

    def test_broken_410(self, server):
        status, _ = _checker(server).check("https://example.com/deleted")
        assert status is LinkState.BROKEN

    def test_permission_403(self, server):
        assert _checker(server).check("https://example.com/forbidden") == (
            LinkState.PERMISSION_REQUIRED, 403)

    def test_permission_401(self, server):
        status, _ = _checker(server).check("https://example.com/login")
        assert status is LinkState.PERMISSION_REQUIRED

    def test_server_error_is_broken(self, server):
        assert _checker(server).check("https://example.com/oops") == (LinkState.BROKEN, 500)

    def test_timeout(self, server):
        status, http_code = _checker(server).check("https://example.com/slow")
        assert status is LinkState.TIMEOUT
        assert http_code is None

    def test_redirect_followed(self, server):
        assert _checker(server).check("https://example.com/redirect") == (LinkState.VALID, 200)

    def test_redirect_loop_is_broken(self, server):
        status, _ = _checker(server).check("https://example.com/loop")
        assert status is LinkState.BROKEN

    def test_head_falls_back_to_get_on_405(self, server):
        server.request_log.clear()
        status, _ = _checker(server).check("https://example.com/post-only")
        assert status is LinkState.VALID
        assert ("HEAD", "/post-only") in server.request_log
        assert ("GET", "/post-only") in server.request_log

    def test_connection_refused_is_network_error(self):
        checker = LinkChecker(timeout_s=0.5, politeness_s=0.0,
                              base_override="http://127.0.0.1:1")
        status, _ = checker.check("https://example.com/ok")
        assert status is LinkState.NETWORK_ERROR


class TestWhatGoesOut:
    """The requests a check sends, as the mock sees them."""

    @pytest.mark.parametrize("url, target", [
        ("https://example.org/ok/новини", "/ok/%D0%BD%D0%BE%D0%B2%D0%B8%D0%BD%D0%B8"),
        ("https://example.org/ok?q=новини", "/ok?q=%D0%BD%D0%BE%D0%B2%D0%B8%D0%BD%D0%B8"),
        ("https://новини.укр/ok", "/ok"),
        ("https://example.org/ok/a b%20c?q=1%2B1", "/ok/a%20b%20c?q=1%2B1"),  # escapes are kept
        ("https://example.org/ok/1%20/%zz", "/ok/1%2520/%25zz"),  # unless one is not hex
    ], ids=["path", "query", "host", "space-and-escapes", "bad-escape"])
    def test_non_ascii_url_goes_out_utf8_percent_encoded(self, server, url, target):
        server.request_log.clear()
        server.request_targets.clear()
        assert _checker(server).check(url) == (LinkState.VALID, 200)
        assert server.request_targets == [target]
        assert server.request_log == [("HEAD", target.partition("?")[0])]

    def test_head_stays_head_across_a_redirect(self, server):
        server.request_log.clear()
        assert _checker(server).check("https://example.com/redirect") == (LinkState.VALID, 200)
        assert server.request_log == [("HEAD", "/redirect"), ("HEAD", "/ok")]

    def test_one_redirect_too_many_is_broken_with_the_last_code(self, server):
        server.request_log.clear()
        assert _checker(server).check("https://example.com/loop") == (LinkState.BROKEN, 302)
        assert server.request_log == [("HEAD", "/loop")] * (MAX_REDIRECTS + 1)

    def test_only_http_and_https_urls_are_opened(self, server, tmp_path):
        page = tmp_path / "ok"
        page.write_text("ok")
        port = server.server_address[1]
        checker = LinkChecker(timeout_s=0.5, politeness_s=0.0)
        server.request_log.clear()
        for url in (f"file://localhost{page}", f"ftp://127.0.0.1:{port}/ok",
                    "data:text/plain,ok", "http:///ok", f"http://127.0.0.1:{port}99/ok"):
            assert checker.check(url) == (LinkState.NETWORK_ERROR, None), url
        assert server.request_log == []

    def test_a_host_that_cannot_be_encoded_is_a_network_error(self):
        # an empty label once escaped the checker as a ValueError instead of a state
        checker = LinkChecker(timeout_s=0.5, politeness_s=0.0)
        assert checker.check("https://a..b/ok") == (LinkState.NETWORK_ERROR, None)


class TestLinkReport:
    def _events(self):
        return [
            _event(1, ("https://h/ok", "https://h/gone")),
            _event(2, ("https://h/ok",)),          # shared URL, fetched once
            _event(3, ()),                          # -> Missing
            _event(4, ("https://h/forbidden",), Dataset.CH),
            _event(5, ("https://h/ok2",), Dataset.CH),
        ]

    def test_counts_and_fractions(self, server):
        server.request_log.clear()
        events = self._events()
        summary = summary_dict(events, link_report(events, concurrency=4, checker=_checker(server)))
        eor = summary["eor"]
        # 3 URL rows (ok, gone, ok) + 1 missing row; invalid = gone + missing
        assert eor["total_urls"] == 3 and eor["missing_url_events"] == 1
        assert eor["invalid"] == 2
        assert eor["invalid_fraction_urls"] == pytest.approx(2 / 4)
        assert eor["invalid_fraction_events"] == pytest.approx(2 / 3)
        ch = summary["ch"]
        assert ch["invalid"] == 1 and ch["total_urls"] == 2
        assert ch["invalid_fraction_urls"] == pytest.approx(1 / 2)

    def test_per_status_counts_sum_to_denominator(self, server):
        events = self._events()
        summary = summary_dict(events, link_report(events, concurrency=2, checker=_checker(server)))
        for st in summary.values():
            assert sum(st["counts"].values()) == st["total_urls"] + st["missing_url_events"]

    def test_missing_url_event_counted(self, server):
        rows = link_report(self._events(), checker=_checker(server))
        missing_rows = [r for r in rows if r.status is LinkState.MISSING]
        assert [r.event_id for r in missing_rows] == ["ev-eor-3"]

    def test_all_valid_fraction_zero(self, server):
        events = [_event(1, ("https://h/ok",)), _event(2, ("https://h/ok2",))]
        rows = link_report(events, checker=_checker(server))
        assert summary_dict(events, rows)["eor"]["invalid_fraction_urls"] == 0.0

    def test_concurrency_determinism(self, server):
        events = self._events()
        one = link_report(events, concurrency=1, checker=_checker(server))
        eight = link_report(events, concurrency=8, checker=_checker(server))
        assert one == eight
        assert summary_dict(events, one) == summary_dict(events, eight)

    def test_each_url_fetched_once(self, server):
        server.request_log.clear()
        link_report(self._events(), concurrency=8, checker=_checker(server))
        paths = [p for _, p in server.request_log]
        assert paths.count("/ok") == 1  # cited by two events, fetched once

    def test_csv_columns(self, server, tmp_path):
        rows = link_report(self._events(), checker=_checker(server))
        events, config, out = tmp_path / "events.json", tmp_path / "config.json", tmp_path / "links.csv"
        events.write_text(events_to_json(self._events()))
        config.write_text('{"linkcheck": {"politeness_s": 0}}')
        assert run_subcommand([
            "linkcheck", "--input", str(events), "--config", str(config), "--timeout", "0.5",
            "--base-override", f"http://127.0.0.1:{server.server_address[1]}",
            "--out-csv", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "url,status,http_code,event_id"
        assert lines[1:] == [
            f"{r.url},{r.status.value},{'' if r.http_code is None else r.http_code},{r.event_id}"
            for r in rows
        ]
        assert lines[4] == ",Missing,,ev-eor-3"

    def test_events_file_given_twice_counts_twice(self, server, tmp_path):
        events, config = tmp_path / "events.json", tmp_path / "config.json"
        events.write_text(events_to_json(self._events()))
        config.write_text('{"linkcheck": {"politeness_s": 0}}')

        def run(*inputs):
            out_csv, out_json = tmp_path / "links.csv", tmp_path / "links.json"
            assert run_subcommand([
                "linkcheck", *(arg for path in inputs for arg in ("--input", str(path))),
                "--config", str(config), "--timeout", "0.5",
                "--base-override", f"http://127.0.0.1:{server.server_address[1]}",
                "--out-csv", str(out_csv), "--out-json", str(out_json),
            ]) == 0
            return out_csv.read_text().splitlines(), json.loads(out_json.read_text())

        once_csv, once = run(events)
        twice_csv, twice = run(events, events)
        assert twice_csv == once_csv[:1] + once_csv[1:] * 2
        for ds in ("eor", "ch"):
            doubled = {key: once[ds][key] * 2
                       for key in ("total_events", "total_urls", "missing_url_events", "invalid")}
            assert twice[ds] == {
                **once[ds], **doubled,
                "counts": {state: n * 2 for state, n in once[ds]["counts"].items()},
            }  # both event counts count listed events, so the fractions stay
        assert twice["eor"]["total_events"] == 6
        assert twice["eor"]["invalid_fraction_events"] == pytest.approx(2 / 3)

    def test_summary_of_every_state(self, server):
        host = f"http://127.0.0.1:{server.server_address[1]}"
        events = [
            _event(1, (host + "/ok", host + "/gone")),
            _event(2, (host + "/forbidden",)),
            _event(3, ()),
            _event(4, (host + "/slow",)),
            _event(5, ("http://127.0.0.1:1/ok",)),  # connection refused
            _event(6, (host + "/ok2",)),
            _event(7, (host + "/ok",), Dataset.CH),
        ]
        rows = link_report(events, checker=LinkChecker(timeout_s=0.5, politeness_s=0.0))
        assert rows[:2] == [
            LinkReportRow(host + "/ok", LinkState.VALID, 200, "ev-eor-1", Dataset.EOR),
            LinkReportRow(host + "/gone", LinkState.BROKEN, 404, "ev-eor-1", Dataset.EOR),
        ]
        summary = summary_dict(events, rows)
        assert list(summary) == ["ch", "eor"]
        assert summary["ch"] == {
            "total_events": 1, "total_urls": 1, "missing_url_events": 0,
            "counts": {"Valid": 1},  # states that do not occur are left out
            "invalid": 0, "invalid_fraction_urls": 0.0, "invalid_fraction_events": 0.0,
        }
        eor = summary["eor"]
        assert list(eor) == ["total_events", "total_urls", "missing_url_events", "counts",
                             "invalid", "invalid_fraction_urls", "invalid_fraction_events"]
        assert list(eor["counts"].items()) == [
            ("Valid", 2), ("Broken", 1), ("PermissionRequired", 1), ("Missing", 1),
            ("Timeout", 1), ("NetworkError", 1),
        ]
        assert (eor["total_events"], eor["total_urls"], eor["missing_url_events"]) == (6, 6, 1)
        # every state but Valid is invalid: 5 of 7 rows, and events 1-5 of 6
        assert eor["invalid"] == 5
        assert eor["invalid_fraction_urls"] == 5 / 7
        assert eor["invalid_fraction_events"] == 5 / 6

    def test_summary_of_events_listed_twice_keeps_its_fractions(self):
        events = [_event(1, ("https://h/ok", "https://h/gone")), _event(2, ("https://h/ok",)),
                  _event(3, ()), _event(4, ("https://h/gone",), Dataset.CH)]
        states = {"https://h/ok": (LinkState.VALID, 200), "https://h/gone": (LinkState.BROKEN, 404),
                  "": (LinkState.MISSING, None)}
        rows = [LinkReportRow(url, *states[url], ev.id, ev.dataset)
                for ev in events for url in ev.source_urls or ("",)]
        once, twice = summary_dict(events, rows), summary_dict(events * 2, rows * 2)
        assert once["eor"]["invalid_fraction_events"] == 2 / 3  # events 1 and 3
        assert once["ch"]["invalid_fraction_events"] == 1.0
        for ds in ("eor", "ch"):
            assert twice[ds]["total_events"] == 2 * once[ds]["total_events"]
            for key in ("invalid_fraction_urls", "invalid_fraction_events"):
                assert twice[ds][key] == once[ds][key]

    def test_politeness_spacing(self, server):
        checker = _checker(server, politeness_s=0.15)
        events = [_event(1, ("https://h/ok",)), _event(2, ("https://h/ok2",))]
        t0 = time.monotonic()
        link_report(events, concurrency=8, checker=checker)
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.15  # second request to the same host waited its slot

    def test_politeness_is_per_host(self, server, sleeps):
        other = start_server(ScriptedHandler)
        try:
            hosts = [f"http://127.0.0.1:{srv.server_address[1]}" for srv in (server, other)]
            events = [_event(1, (hosts[0] + "/ok",)), _event(2, (hosts[1] + "/ok",)),
                      _event(3, (hosts[0] + "/ok2",))]
            checker = LinkChecker(timeout_s=0.5, politeness_s=0.15)
            t0 = time.monotonic()
            rows = link_report(events, concurrency=8, checker=checker)
            elapsed = time.monotonic() - t0
        finally:
            stop_server(other)
        assert {row.status for row in rows} == {LinkState.VALID}
        # the first host's second request waits one slot; the other host waits on neither
        assert elapsed >= 0.15
        assert sleeps in ([], [urlsplit(hosts[0]).netloc])


class TestRateLimiter:
    def test_keys_are_spaced_apart_independently(self, sleeps):
        limiter = RateLimiter(0.15)
        t0 = time.monotonic()
        limiter.wait("a")
        limiter.wait("b")
        assert sleeps == []
        limiter.wait("a")
        assert time.monotonic() - t0 >= 0.15
        assert sleeps in ([], ["a"])

    def test_zero_interval_never_waits(self, sleeps):
        limiter = RateLimiter(0.0)
        for _ in range(100):
            limiter.wait("a")
        assert sleeps == []

    @pytest.mark.parametrize("interval", [-0.1, float("inf"), float("nan"), MAX_WAIT_S + 1])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            RateLimiter(interval)
