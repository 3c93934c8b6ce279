from __future__ import annotations

import time

import pytest

from resilink.linkcheck import (
    LinkChecker,
    LinkState,
    LinkStatus,
    RateLimiter,
    link_report,
    summary_dict,
)
from resilink.cli import run_subcommand
from resilink.model import CivilDate, Dataset, Event, GeoPoint, events_to_json
from tests.httpmock import ScriptedHandler, start_server, stop_server


@pytest.fixture(scope="module")
def server():
    srv = start_server(ScriptedHandler, slow_delay_s=1.5)
    yield srv
    stop_server(srv)


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
        st = _checker(server).check("https://example.com/ok")
        assert (st.status, st.http_code) == (LinkState.VALID, 200)

    def test_broken_404(self, server):
        st = _checker(server).check("https://example.com/gone")
        assert (st.status, st.http_code) == (LinkState.BROKEN, 404)

    def test_broken_410(self, server):
        st = _checker(server).check("https://example.com/deleted")
        assert st.status is LinkState.BROKEN

    def test_permission_403(self, server):
        st = _checker(server).check("https://example.com/forbidden")
        assert (st.status, st.http_code) == (LinkState.PERMISSION_REQUIRED, 403)

    def test_permission_401(self, server):
        st = _checker(server).check("https://example.com/login")
        assert st.status is LinkState.PERMISSION_REQUIRED

    def test_server_error_is_broken(self, server):
        st = _checker(server).check("https://example.com/oops")
        assert (st.status, st.http_code) == (LinkState.BROKEN, 500)

    def test_timeout(self, server):
        st = _checker(server).check("https://example.com/slow")
        assert st.status is LinkState.TIMEOUT
        assert st.http_code is None

    def test_redirect_followed(self, server):
        st = _checker(server).check("https://example.com/redirect")
        assert (st.status, st.http_code) == (LinkState.VALID, 200)

    def test_redirect_loop_is_broken(self, server):
        st = _checker(server).check("https://example.com/loop")
        assert st.status is LinkState.BROKEN

    def test_head_falls_back_to_get_on_405(self, server):
        server.request_log.clear()
        st = _checker(server).check("https://example.com/post-only")
        assert st.status is LinkState.VALID
        assert ("HEAD", "/post-only") in server.request_log
        assert ("GET", "/post-only") in server.request_log

    def test_connection_refused_is_network_error(self):
        checker = LinkChecker(timeout_s=0.5, politeness_s=0.0,
                              base_override="http://127.0.0.1:1")
        st = checker.check("https://example.com/ok")
        assert st.status is LinkState.NETWORK_ERROR

    def test_missing_invariant(self):
        with pytest.raises(ValueError):
            LinkStatus(url="https://x/ok", status=LinkState.MISSING)
        with pytest.raises(ValueError):
            LinkStatus(url="", status=LinkState.TIMEOUT, http_code=200)


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
        report = link_report(self._events(), concurrency=4, checker=_checker(server))
        eor = report.stats[Dataset.EOR]
        # 3 URL rows (ok, gone, ok) + 1 missing row; invalid = gone + missing
        assert eor.total_urls == 3 and eor.missing_events == 1
        assert eor.invalid == 2
        assert eor.invalid_fraction_urls == pytest.approx(2 / 4)
        assert eor.invalid_fraction_events == pytest.approx(2 / 3)
        ch = report.stats[Dataset.CH]
        assert ch.invalid == 1 and ch.total_urls == 2
        assert ch.invalid_fraction_urls == pytest.approx(1 / 2)

    def test_per_status_counts_sum_to_denominator(self, server):
        report = link_report(self._events(), concurrency=2, checker=_checker(server))
        for st in report.stats.values():
            assert sum(st.counts.values()) == st.total_urls + st.missing_events

    def test_missing_url_event_counted(self, server):
        report = link_report(self._events(), checker=_checker(server))
        missing_rows = [r for r in report.rows if r.status is LinkState.MISSING]
        assert [r.event_id for r in missing_rows] == ["ev-eor-3"]

    def test_all_valid_fraction_zero(self, server):
        events = [_event(1, ("https://h/ok",)), _event(2, ("https://h/ok2",))]
        report = link_report(events, checker=_checker(server))
        assert report.stats[Dataset.EOR].invalid_fraction_urls == 0.0

    def test_concurrency_determinism(self, server):
        one = link_report(self._events(), concurrency=1, checker=_checker(server))
        eight = link_report(self._events(), concurrency=8, checker=_checker(server))
        assert one.rows == eight.rows
        assert summary_dict(one) == summary_dict(eight)

    def test_each_url_fetched_once(self, server):
        server.request_log.clear()
        link_report(self._events(), concurrency=8, checker=_checker(server))
        paths = [p for _, p in server.request_log]
        assert paths.count("/ok") == 1  # cited by two events, fetched once

    def test_csv_columns(self, server, tmp_path):
        report = link_report(self._events(), checker=_checker(server))
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
            for r in report.rows
        ]
        assert lines[4] == ",Missing,,ev-eor-3"

    def test_politeness_spacing(self, server):
        checker = _checker(server, politeness_s=0.15)
        events = [_event(1, ("https://h/ok",)), _event(2, ("https://h/ok2",))]
        t0 = time.monotonic()
        link_report(events, concurrency=8, checker=checker)
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.15  # second request to the same host waited its slot

    def test_politeness_is_per_host(self, server):
        other = start_server(ScriptedHandler)
        try:
            hosts = [f"http://127.0.0.1:{srv.server_address[1]}" for srv in (server, other)]
            events = [_event(1, (hosts[0] + "/ok",)), _event(2, (hosts[1] + "/ok",)),
                      _event(3, (hosts[0] + "/ok2",))]
            checker = LinkChecker(timeout_s=0.5, politeness_s=0.15)
            t0 = time.monotonic()
            report = link_report(events, concurrency=8, checker=checker)
            elapsed = time.monotonic() - t0
        finally:
            stop_server(other)
        assert {row.status for row in report.rows} == {LinkState.VALID}
        # the first host's second request waits one slot; the other host waits on neither
        assert 0.15 <= elapsed < 0.3


class TestRateLimiter:
    def test_keys_are_spaced_apart_independently(self):
        limiter = RateLimiter(0.15)
        t0 = time.monotonic()
        limiter.wait("a")
        limiter.wait("b")
        assert time.monotonic() - t0 < 0.15
        limiter.wait("a")
        assert time.monotonic() - t0 >= 0.15

    def test_zero_interval_never_waits(self):
        limiter = RateLimiter(0.0)
        t0 = time.monotonic()
        for _ in range(100):
            limiter.wait("a")
        assert time.monotonic() - t0 < 0.1

    @pytest.mark.parametrize("interval", [-0.1, float("inf"), float("nan")])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            RateLimiter(interval)
