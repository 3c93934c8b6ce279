"""Source-URL validation with bounded concurrency and per-host politeness.

Checks each distinct URL exactly once (HEAD, falling back to GET on 405)
and classifies the outcome; counts are aggregated per dataset. Results are
deterministic regardless of worker count because statuses are keyed by URL
and assembled in event order afterwards. The politeness scheduler,
:class:`RateLimiter`, also paces the GeoNames client.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping
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


INVALID_STATES = frozenset(
    {LinkState.BROKEN, LinkState.PERMISSION_REQUIRED, LinkState.MISSING,
     LinkState.TIMEOUT, LinkState.NETWORK_ERROR}
)


@dataclass(frozen=True)
class LinkStatus:
    """Outcome for one URL; Missing marks an event that had no URL at all."""

    url: str
    status: LinkState
    http_code: int | None = None

    def __post_init__(self):
        if (self.status is LinkState.MISSING) != (self.url == ""):
            raise ValueError("Missing status is reserved for events without a URL")
        if self.status in (LinkState.MISSING, LinkState.TIMEOUT, LinkState.NETWORK_ERROR):
            if self.http_code is not None:
                raise ValueError(f"{self.status.value} cannot carry an HTTP code")


@dataclass(frozen=True)
class LinkReportRow:
    url: str
    status: LinkState
    http_code: int | None
    event_id: str
    dataset: Dataset


@dataclass(frozen=True)
class DatasetLinkStats:
    """Per-dataset tallies; both invalidity bases are reported because the
    natural denominator (URLs vs events) is a matter of interpretation."""

    dataset: Dataset
    total_events: int
    total_urls: int
    missing_events: int
    counts: Mapping[LinkState, int]
    invalid: int
    invalid_fraction_urls: float
    invalid_fraction_events: float

    def __post_init__(self):
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))


@dataclass(frozen=True)
class LinkReport:
    rows: tuple[LinkReportRow, ...]
    stats: Mapping[Dataset, DatasetLinkStats]

    def __post_init__(self):
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))


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

    def check(self, url: str) -> LinkStatus:
        """Classify one URL; every outcome is a status, never an exception."""
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
            return LinkStatus(url, LinkState.TIMEOUT)
        except requests.TooManyRedirects as exc:
            code = exc.response.status_code if exc.response is not None else None
            return LinkStatus(url, LinkState.BROKEN, code)
        except requests.RequestException:
            return LinkStatus(url, LinkState.NETWORK_ERROR)
        if 200 <= code < 400:
            return LinkStatus(url, LinkState.VALID, code)
        if code in (401, 403):
            return LinkStatus(url, LinkState.PERMISSION_REQUIRED, code)
        return LinkStatus(url, LinkState.BROKEN, code)


def _dataset_stats(dataset: Dataset, rows: list[LinkReportRow], total_events: int) -> DatasetLinkStats:
    tally = Counter(row.status for row in rows)
    counts = {state: tally[state] for state in LinkState}
    missing = counts[LinkState.MISSING]
    total_urls = len(rows) - missing
    invalid = sum(counts[s] for s in INVALID_STATES)
    denominator = total_urls + missing
    events_with_invalid = len(
        {row.event_id for row in rows if row.status in INVALID_STATES}
    )
    return DatasetLinkStats(
        dataset=dataset,
        total_events=total_events,
        total_urls=total_urls,
        missing_events=missing,
        counts=counts,
        invalid=invalid,
        invalid_fraction_urls=invalid / denominator if denominator else 0.0,
        invalid_fraction_events=events_with_invalid / total_events if total_events else 0.0,
    )


def link_report(
    events: Iterable[Event],
    concurrency: int = 8,
    checker: LinkChecker | None = None,
) -> LinkReport:
    """Check every event's URLs and aggregate per-dataset statistics.

    Each distinct URL is fetched once; its status applies to every event
    citing it. Events without any URL contribute one Missing row. The
    invalid fraction over URLs uses total URLs + missing-URL events as the
    denominator, so per-status counts always sum to it.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    events = list(events)
    checker = checker or LinkChecker()

    unique_urls = list(dict.fromkeys(url for ev in events for url in ev.source_urls))
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        statuses = dict(zip(unique_urls, pool.map(checker.check, unique_urls)))

    rows: list[LinkReportRow] = []
    for ev in events:
        if not ev.source_urls:
            rows.append(LinkReportRow("", LinkState.MISSING, None, ev.id, ev.dataset))
            continue
        for url in ev.source_urls:
            st = statuses[url]
            rows.append(LinkReportRow(url, st.status, st.http_code, ev.id, ev.dataset))

    stats = {
        ds: _dataset_stats(ds, [r for r in rows if r.dataset is ds], total)
        for ds, total in Counter(ev.dataset for ev in events).items()
    }
    return LinkReport(rows=tuple(rows), stats=stats)


def summary_dict(report: LinkReport) -> dict:
    """JSON-ready per-dataset summary."""
    out = {}
    for ds, st in sorted(report.stats.items(), key=lambda kv: kv[0].value):
        out[ds.value] = {
            "total_events": st.total_events,
            "total_urls": st.total_urls,
            "missing_url_events": st.missing_events,
            "counts": {state.value: n for state, n in st.counts.items() if n},
            "invalid": st.invalid,
            "invalid_fraction_urls": st.invalid_fraction_urls,
            "invalid_fraction_events": st.invalid_fraction_events,
        }
    return out
