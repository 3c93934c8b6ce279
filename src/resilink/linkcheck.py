"""Source-URL validation with bounded concurrency and per-host politeness.

Checks each distinct URL exactly once (HEAD, falling back to GET on 405)
and classifies the outcome; the report's rows are counted per dataset.
Results are deterministic regardless of worker count because outcomes are
keyed by URL and assembled in event order afterwards. The politeness
scheduler, :class:`RateLimiter`, also paces the GeoNames client.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Sequence
from urllib.parse import urlsplit, urlunsplit

import requests

from .model import Dataset, Event

USER_AGENT = "resilink-linkcheck/0.1 (+https://linked4resilience.eu/)"

MAX_REDIRECTS = 5


class LinkState(str, Enum):
    VALID = "Valid"
    BROKEN = "Broken"
    PERMISSION_REQUIRED = "PermissionRequired"
    MISSING = "Missing"
    TIMEOUT = "Timeout"
    NETWORK_ERROR = "NetworkError"


@dataclass(frozen=True)
class LinkReportRow:
    """One row of the report: an event's URL and its outcome, or "" and Missing."""

    url: str
    status: LinkState
    http_code: int | None
    event_id: str
    dataset: Dataset


class RateLimiter:
    """Spaces the calls that share a key at least interval_s apart; 0 never waits."""

    def __init__(self, interval_s: float):
        if not 0 <= interval_s < math.inf:
            raise ValueError(f"interval must be >= 0 and finite: {interval_s!r}")
        self._interval = interval_s
        self._lock = threading.Lock()
        self._next: dict[Hashable, float] = {}

    def wait(self, key: Hashable = None) -> None:
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next.get(key, now))
            self._next[key] = slot + self._interval
        delay = slot - time.monotonic()
        if delay > 0:
            time.sleep(delay)


class LinkChecker:
    """HTTP checker with a per-host politeness delay.

    ``base_override`` reroutes every request to the given scheme://host
    while keeping path and query; used to point the whole run at a local
    mock server. Sessions are per-thread; the politeness scheduler is
    shared.
    """

    def __init__(
        self,
        timeout_s: float = 10.0,
        politeness_s: float = 0.2,
        base_override: str | None = None,
    ):
        self.timeout_s = timeout_s
        self.base_override = base_override
        self._local = threading.local()
        self._politeness = RateLimiter(politeness_s)

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            session.max_redirects = MAX_REDIRECTS
            session.headers["User-Agent"] = USER_AGENT
            self._local.session = session
        return session

    def _effective_url(self, url: str) -> str:
        if self.base_override is None:
            return url
        base = urlsplit(self.base_override)
        parts = urlsplit(url)
        return urlunsplit((base.scheme, base.netloc, parts.path, parts.query, ""))

    def check(self, url: str) -> tuple[LinkState, int | None]:
        """(state, HTTP code or None) of one URL; every outcome is a state, never an exception."""
        target = self._effective_url(url)
        self._politeness.wait(urlsplit(target).netloc)
        session = self._session()
        try:
            resp = session.request("HEAD", target, allow_redirects=True, timeout=self.timeout_s)
            if resp.status_code == 405:
                resp = session.request(
                    "GET", target, allow_redirects=True, timeout=self.timeout_s, stream=True
                )
                resp.close()
            code = resp.status_code
        except requests.Timeout:
            return LinkState.TIMEOUT, None
        except requests.TooManyRedirects as exc:
            return LinkState.BROKEN, exc.response.status_code if exc.response is not None else None
        except requests.RequestException:
            return LinkState.NETWORK_ERROR, None
        if 200 <= code < 400:
            return LinkState.VALID, code
        if code in (401, 403):
            return LinkState.PERMISSION_REQUIRED, code
        return LinkState.BROKEN, code


def link_report(
    events: Iterable[Event],
    concurrency: int = 8,
    checker: LinkChecker | None = None,
) -> list[LinkReportRow]:
    """One row per URL of each event, in event order; an event without a URL gets a Missing row.

    Each distinct URL is fetched once; its outcome applies to every event
    citing it, so the rows do not depend on the worker count.
    """
    events = list(events)
    checker = checker or LinkChecker()
    unique_urls = list(dict.fromkeys(url for ev in events for url in ev.source_urls))
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = dict(zip(unique_urls, pool.map(checker.check, unique_urls)))
    outcomes[""] = (LinkState.MISSING, None)  # a source URL is never empty
    return [
        LinkReportRow(url, *outcomes[url], ev.id, ev.dataset)
        for ev in events
        for url in ev.source_urls or ("",)
    ]


def summary_dict(events: Iterable[Event], rows: Sequence[LinkReportRow]) -> dict:
    """JSON-ready per-dataset summary of link_report's rows for these events.

    Every state but Valid is invalid, Missing included. Both invalidity
    bases are reported, because the natural denominator is a matter of
    interpretation: invalid rows over all rows (URLs + missing-URL events),
    and invalid events over total_events. Both event counts count listed
    events, so an event listed twice counts twice in each and the fraction
    does not move. An event is invalid when one of its URLs is, or when it
    has none; a URL's state is the same for every event citing it.
    """
    out = {}
    events = list(events)
    for ds in sorted({ev.dataset for ev in events}, key=lambda ds: ds.value):
        ds_events = [ev for ev in events if ev.dataset is ds]
        ds_rows = [row for row in rows if row.dataset is ds]
        counts = Counter(row.status for row in ds_rows)
        invalid = [row for row in ds_rows if row.status is not LinkState.VALID]
        invalid_urls = {row.url for row in invalid}  # "" when an event has no URL
        invalid_events = sum(
            any(url in invalid_urls for url in ev.source_urls or ("",)) for ev in ds_events
        )
        out[ds.value] = {
            "total_events": len(ds_events),
            "total_urls": len(ds_rows) - counts[LinkState.MISSING],
            "missing_url_events": counts[LinkState.MISSING],
            "counts": {state.value: counts[state] for state in LinkState if counts[state]},
            "invalid": len(invalid),
            "invalid_fraction_urls": len(invalid) / len(ds_rows) if ds_rows else 0.0,
            "invalid_fraction_events": invalid_events / len(ds_events),
        }
    return out
