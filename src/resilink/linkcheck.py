"""Source-URL validation with bounded concurrency and per-host politeness.

Checks each distinct URL exactly once (HEAD, falling back to GET on 405)
and classifies the outcome; the report's rows are counted per dataset.
Results are deterministic regardless of worker count because outcomes are
keyed by URL and assembled in event order afterwards. The GeoNames client
shares the politeness scheduler, :class:`RateLimiter`, and :func:`http_response`.
"""

from __future__ import annotations

import http.client
import re
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Iterator, Sequence
from urllib.parse import quote, urljoin, urlsplit, urlunsplit

from .model import MAX_WAIT_S, Dataset, Event

USER_AGENT = "resilink-linkcheck/0.1 (+https://linked4resilience.eu/)"

MAX_REDIRECTS = 5
_REDIRECT_CODES = frozenset({301, 302, 303, 307, 308})


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
        if not 0 <= interval_s <= MAX_WAIT_S:
            raise ValueError(f"interval must be >= 0 and at most {MAX_WAIT_S:g} s: {interval_s!r}")
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


@contextmanager
def http_response(method: str, url: str, timeout_s: float) -> Iterator[http.client.HTTPResponse]:
    """The open response to method at url after at most MAX_REDIRECTS redirects, method kept.

    Opens http and https URLs with a host only, UTF-8 percent-encoded where the URI grammar
    needs it. Raises TimeoutError, another OSError or HTTPException (InvalidURL before any I/O).
    """
    for redirects_left in range(MAX_REDIRECTS, -1, -1):
        try:
            parts = urlsplit(url)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError("not an http or https URL with a host")
            parts.port, parts.hostname.encode("idna")  # a port out of range, an empty label
        except ValueError as exc:
            raise http.client.InvalidURL(f"{exc}: {url!r}") from exc
        bad_escape = re.search(r"%(?![0-9A-Fa-f]{2})[^\W_]{2}", url)  # then every % is encoded
        target = quote(urlunsplit(("", "", parts.path or "/", parts.query, "")),
                       safe="!#$&'()*+,/:;=?@[]~" + ("" if bad_escape else "%"))
        connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        conn = connection(parts.netloc.rpartition("@")[2], timeout=timeout_s)
        try:
            conn.request(method, target, headers={"User-Agent": USER_AGENT})
            resp = conn.getresponse()
            location = resp.getheader("Location")
            if not (redirects_left and location and resp.status in _REDIRECT_CODES):
                yield resp
                return
        finally:
            conn.close()
        url = urljoin(url, location)


class LinkChecker:
    """HTTP checker with a per-host politeness delay.

    ``base_override`` reroutes every request to the given scheme://host
    while keeping path and query; used to point the whole run at a local
    mock server. The politeness scheduler is shared by every worker.
    """

    def __init__(
        self,
        timeout_s: float = 10.0,
        politeness_s: float = 0.2,
        base_override: str | None = None,
    ):
        self.timeout_s = timeout_s
        self.base_override = base_override
        self._politeness = RateLimiter(politeness_s)

    def check(self, url: str) -> tuple[LinkState, int | None]:
        """(state, HTTP code or None) of one URL; every outcome is a state, never an exception."""
        if self.base_override is not None:
            base, parts = urlsplit(self.base_override), urlsplit(url)
            url = urlunsplit((base.scheme, base.netloc, parts.path, parts.query, ""))
        self._politeness.wait(urlsplit(url).netloc)
        try:
            with http_response("HEAD", url, self.timeout_s) as resp:
                code, location = resp.status, resp.getheader("Location")
            if code == 405:
                with http_response("GET", url, self.timeout_s) as resp:  # its body is never read
                    code, location = resp.status, resp.getheader("Location")
        except TimeoutError:
            return LinkState.TIMEOUT, None
        except (OSError, http.client.HTTPException):
            return LinkState.NETWORK_ERROR, None
        if 200 <= code < 400 and not (location and code in _REDIRECT_CODES):  # one redirect too many
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
