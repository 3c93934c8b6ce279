"""Cross-dataset duplicate detection and aggregate-event minting.

Candidate pairs share a city and a date across the two datasets; each pair
is then classified by three ordered rules (shared social-media link,
"area" reports with a wider radius, facility keywords with a tight
radius). Description similarity is the Ratcliff/Obershelp ratio, equal
to difflib's with autojunk off. Each longest matching block of a small
range is found by a ``str.find`` scan, which is quick on ordinary
descriptions but cubic at worst; a range larger than ``_SCAN_CELLS``
goes to a suffix automaton, linear in the range, so the worst case over
a pair stays quadratic where difflib's is cubic. Above a fixed amount of
work, ``integrate`` computes the similarities on every CPU the process
may use: one forked worker per CPU, each placed on a CPU of its own,
writes them into one shared array filled with NaN, which no similarity
in [0, 1] is. The parent only waits, and its own CPUs stay as they
were; once the workers are reaped it computes each pair still NaN, then
classifies the pairs, so the results do not depend on the number of
CPUs or on which workers die. Within one dataset,
distinct records are assumed to describe distinct events, so matching
is cross-dataset only and one-to-one.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import NoReturn, Sequence
from urllib.parse import urlsplit, urlunsplit

from .gazetteer import haversine_km
from .ingest import clean_location_string
from .model import AggregateEvent, Dataset, Event, EventKey, events_by_key
from .rdf import aggregate_iri, event_iri

DEFAULT_KEYWORDS = (
    "theater",
    "church",
    "school",
    "hospital",
    "building",
    "house",
    "flat",
    "station",
)


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and vocabulary for pair classification.

    Similarities are strict lower bounds and distances strict upper bounds.
    The keyword list is an extension point; the defaults cover the facility
    vocabulary used by the damage reports.
    """

    sim_link: float = 0.55
    sim_area: float = 0.75
    sim_keyword: float = 0.55
    dist_link_km: float = 2.0
    dist_area_km: float = 2.0
    dist_keyword_km: float = 1.0
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    area_token: str = "area"

    def __post_init__(self):
        for name in ("sim_link", "sim_area", "sim_keyword"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]: {value}")
        for name in ("dist_link_km", "dist_area_km", "dist_keyword_km"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        # a blank token is a substring of every description, so its rule would cover every pair
        if not self.area_token.strip():
            raise ValueError(f"area_token must not be blank: {self.area_token!r}")
        if not all(k.strip() for k in self.keywords):
            raise ValueError(f"keywords must not be blank: {list(self.keywords)!r}")
        object.__setattr__(self, "keywords", tuple(k.lower() for k in self.keywords))
        object.__setattr__(self, "area_token", self.area_token.lower())


class Verdict(str, Enum):
    IDENTICAL = "Identical"
    NEAR_DISTINCT = "NearDistinct"
    UNCLASSIFIED = "Unclassified"


class MatchRule(str, Enum):
    SHARED_LINK = "SharedLink"
    AREA = "Area"
    KEYWORD = "Keyword"
    NONE = "None"


@dataclass(frozen=True)
class MatchPair:
    """One classified candidate pair; a is the first dataset's event id."""

    a: str
    b: str
    distance_km: float
    similarity: float
    verdict: Verdict
    rule: MatchRule
    city_basis: str  # how city equality was established: geoname_id | name

    def __post_init__(self):
        if self.verdict is Verdict.IDENTICAL and self.rule is MatchRule.NONE:
            raise ValueError("an Identical pair must carry a rule")


@dataclass(frozen=True)
class IntegrationCounts:
    a: int
    b: int
    identical: int
    near_distinct: int
    integrated: int


@dataclass(frozen=True)
class IntegrationResult:
    pairs: tuple[MatchPair, ...]
    aggregates: tuple[AggregateEvent, ...]
    counts: IntegrationCounts


# ---------------------------------------------------------------------------
# String similarity (Ratcliff/Obershelp)

# Ranges of at most this many cells, (ahi - alo) * (bhi - blo), are
# scanned with str.find; larger ones use the suffix automaton. The scan's
# C-level search beats building the automaton's per-state dicts up to
# about 256 x 256 characters and loses beyond it.
_SCAN_CELLS = 1 << 16

# The candidate pairs' similarities are computed in forked workers only
# when their cells, len(a) * len(b) summed over the pairs, exceed this.
# Below it the fork costs about what the extra CPU saves. Timed on a 2-CPU
# VM by 20 alternating in-process `cli._integrate` runs per size, one
# worker per CPU, the median forked run against the serial one was +3 ms
# at 6.0 M cells, -10 ms at 7.6 M, -17 ms at 10.0 M, -85 ms at 14.0 M and
# -36 ms at 20.0 M, and forking won 8, 14, 17, 19 and 19 of the 20 runs.
# Unplaced, one worker beside a parent that took a share lost 8-41 ms up
# to 14.1 M cells, because the kernel left it on the parent's CPU. A
# larger heap costs more page faults after the fork, so the bound sits
# above the break-even.
_FORK_CELLS = 10_000_000
# Pairs go out in chunks of this many, costliest first, so that a slow pair
# is taken early and no CPU waits idle at the end for another's last chunk.
_CHUNK_PAIRS = 8
# One 4-byte token per chunk is written to the queue pipe before the first
# fork; 1,024 tokens fill one page, the least a Linux pipe holds.
_MAX_CHUNKS = 1024


def _longest_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int) -> tuple[int, int, int]:
    """(i, j, k): the longest common block a[i:i+k] == b[j:j+k] in the ranges.

    Ties go to the smallest i, then the smallest j; k is 0 when the ranges
    share no character. Ranges of at most ``_SCAN_CELLS`` cells are
    scanned, larger ones go to the suffix automaton, so no range pays the
    scan's cubic worst case on more than that many cells.
    """
    if (ahi - alo) * (bhi - blo) <= _SCAN_CELLS:
        return _scan_block(a, alo, ahi, b, blo, bhi)
    return _automaton_block(a, alo, ahi, b, blo, bhi)


def _scan_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int) -> tuple[int, int, int]:
    """_longest_block by a str.find scan; cubic at worst, fast on short ranges.

    Each start x in a's range asks for the earliest occurrence in b's
    range of a needle one longer than the best block so far, and on a hit
    keeps growing at x. A longer needle's earliest occurrence cannot start
    before the shorter one's, so each search resumes at the last hit.
    Only a strict improvement is kept, which gives the earliest block in
    a, and each hit is the earliest occurrence of its needle in b.
    """
    find = b.find
    i = j = k = 0
    x = alo
    while x + k < ahi:
        y = find(a[x:x + k + 1], blo, bhi)
        while y >= 0:
            i, j, k = x, y, k + 1
            if x + k == ahi:
                break
            y = find(a[x:x + k + 1], y, bhi)
        x += 1
    return i, j, k


def _automaton_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int) -> tuple[int, int, int]:
    """_longest_block by a suffix automaton, in time linear in the ranges.

    The automaton of b[blo:bhi] is built and a[alo:ahi] streamed through it.
    """
    # per state: transitions, suffix link, longest length, earliest end in b
    nxt = [{}]
    link = [-1]
    length = [0]
    first = [-1]
    last = 0
    for pos in range(blo, bhi):
        c = b[pos]
        cur = len(length)
        nxt.append({})
        length.append(length[last] + 1)
        first.append(pos)
        link.append(0)
        p = last
        while p != -1:
            t = nxt[p]
            if c in t:
                break
            t[c] = cur
            p = link[p]
        if p != -1:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = cur + 1
                nxt.append(nxt[q].copy())
                length.append(length[p] + 1)
                link.append(link[q])
                first.append(first[q])
                while p != -1:
                    t = nxt[p]
                    if t.get(c) != q:
                        break
                    t[c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    # l is the longest match ending at pos, held by `state`; keeping only a
    # strict improvement gives the earliest block in a, and first[state] the
    # earliest occurrence of that block in b
    i = j = k = 0
    state = l = 0
    for pos in range(alo, ahi):
        c = a[pos]
        t = nxt[state]
        while c not in t:
            if not state:
                break  # c is not in b's range: the match restarts empty
            state = link[state]
            l = length[state]
            t = nxt[state]
        else:
            state = t[c]
            l += 1
            if l > k:
                i, j, k = pos - l + 1, first[state] - l + 1, l
    return i, j, k


def similarity(a: str, b: str) -> float:
    """Ratcliff/Obershelp ratio 2*M/(len(a)+len(b)) after lowercasing.

    M is the total length of matched blocks found by taking the longest
    matching block and repeating on the left and right remainders; ties
    go to the block that starts earliest in a, then earliest in b. The
    lengths are those of the lowercased texts, so the result equals
    ``difflib.SequenceMatcher(None, a.lower(), b.lower(),
    autojunk=False).ratio()``. Two empty strings rate 1.0.

    Each block is found by ``_longest_block``: a scan on small ranges,
    a suffix automaton, linear in its ranges, on large ones. The scan's
    cost is bounded by the cutoff, so the worst case over a pair is
    quadratic. The work queue is explicit, so long texts need no deep
    recursion.
    """
    a, b = a.lower(), b.lower()
    n = len(a) + len(b)
    if not n:
        return 1.0
    matched = 0
    queue = [(0, len(a), 0, len(b))]
    while queue:
        alo, ahi, blo, bhi = queue.pop()
        i, j, k = _longest_block(a, alo, ahi, b, blo, bhi)
        if k:
            matched += k
            if alo < i and blo < j:
                queue.append((alo, i, blo, j))
            if i + k < ahi and j + k < bhi:
                queue.append((i + k, ahi, j + k, bhi))
    return 2.0 * matched / n


def _fork_cpus() -> list[int]:
    """The sorted CPUs this process may use and fork workers onto.

    Empty when the platform cannot fork or report the process's CPUs, or
    when another thread runs: a forked child would inherit the locks that
    thread holds, held for ever.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    if threading.active_count() != 1:
        return []
    return sorted(os.sched_getaffinity(0))


def _worker(queue_r: int, values: memoryview, texts: Sequence[tuple[str, str]], chunks: list[list[int]],
            cpu: int) -> NoReturn:
    """A forked worker: placed on cpu, it writes into the shared array values
    the similarities of the chunks it takes, until the queue pipe is empty.

    Every token is in the pipe before the first fork and each read asks for
    exactly one, so the workers each get whole tokens. A pair is delivered
    once written, and one it never writes stays NaN. A CPU the kernel
    refuses leaves the worker where it runs. It leaves through os._exit,
    non-zero on a failure, so no cleanup of the parent's runs twice and no
    exception unwinds into the parent's code.
    """
    code = 1
    try:
        try:
            os.sched_setaffinity(0, (cpu,))
        except OSError:  # e.g. a CPU offline or outside the process's cpuset
            pass
        while token := os.read(queue_r, 4):
            for i in chunks[int.from_bytes(token, "little")]:
                values[i] = similarity(*texts[i])
        code = 0
    finally:
        os._exit(code)


def _similarities(texts: Sequence[tuple[str, str]]) -> list[float]:
    """similarity(a, b) of each pair, in order, on the CPUs this process may use.

    The pairs are computed in this process unless they are two or more,
    their cells exceed ``_FORK_CELLS``, the process may use two CPUs or
    more and it is safe to fork. Otherwise one worker is forked per CPU,
    never more than the chunks, and worker n runs only on CPU n of this
    process's sorted CPUs: a forked child starts on its parent's CPU, and
    the kernel may leave it there, so that two workers take turns on one
    CPU. The workers take chunks of pairs, costliest first, from one pipe
    and write each similarity into one shared array filled with NaN, while
    this process waits; its own CPUs are never changed. A pair still NaN
    once every worker is reaped, because a worker died or a fork failed, is
    computed here. Every worker is reaped before this returns or raises,
    and the similarities never depend on where each process ran.
    """
    cells = [len(a) * len(b) for a, b in texts]
    if len(texts) < 2 or sum(cells) <= _FORK_CELLS or len(cpus := _fork_cpus()) < 2:
        return [similarity(a, b) for a, b in texts]
    size = max(_CHUNK_PAIRS, -(-len(texts) // _MAX_CHUNKS))
    order = sorted(range(len(texts)), key=cells.__getitem__, reverse=True)
    chunks = [order[k:k + size] for k in range(0, len(order), size)]
    values = memoryview(mmap.mmap(-1, 8 * len(texts))).cast("d")  # shared with the workers
    values[:] = array("d", [math.nan]) * len(texts)

    queue_r, queue_w = os.pipe()
    os.write(queue_w, b"".join(k.to_bytes(4, "little") for k in range(len(chunks))))
    os.close(queue_w)
    pids: list[int] = []  # forked workers, until reaped
    try:
        for cpu in cpus[:len(chunks)]:  # one worker per CPU, and no more than the chunks
            try:
                pid = os.fork()
            except OSError:  # no more workers: this process computes what they leave
                break
            if pid == 0:
                _worker(queue_r, values, texts, chunks, cpu)
            pids.append(pid)
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
    finally:
        os.close(queue_r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [similarity(*texts[i]) if math.isnan(v) else v for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# Candidate generation and classification

def normalize_url(u: str) -> str:
    """Lowercase scheme and authority, strip fragment and trailing slashes."""
    parts = urlsplit(u)
    return urlunsplit(
        (parts.scheme.lower(), parts.netloc.lower(), parts.path.rstrip("/"), parts.query, "")
    )


def shares_link(a: Event, b: Event) -> bool:
    """True iff the two events cite at least one common (normalized) URL."""
    if not a.source_urls or not b.source_urls:
        return False
    return bool(
        {normalize_url(u) for u in a.source_urls} & {normalize_url(u) for u in b.source_urls}
    )


def _matching_city_name(ev: Event) -> str | None:
    if ev.city is not None and ev.city.preferred_name:
        return ev.city.preferred_name
    return ev.city_name


def _city_equality(a: Event, b: Event) -> str | None:
    """None when the cities differ; otherwise which basis matched."""
    if a.city is not None and b.city is not None:
        return "geoname_id" if a.city.geoname_id == b.city.geoname_id else None
    na, nb = _matching_city_name(a), _matching_city_name(b)
    if na is None or nb is None:
        return None
    if clean_location_string(na).lower() == clean_location_string(nb).lower():
        return "name"
    return None


def candidate_pairs(
    a_events: Sequence[Event], b_events: Sequence[Event]
) -> list[tuple[Event, Event, str]]:
    """Cross-dataset pairs with equal dates and equal cities, with the city basis.

    City equality compares geoname ids when both sides are resolved (basis
    "geoname_id") and falls back to cleaned, lowercased names otherwise
    (basis "name"); events with neither are never paired. Within-dataset
    pairs are never formed.
    """
    by_date: dict = {}
    for b in b_events:
        by_date.setdefault(b.date, []).append(b)
    pairs = []
    for a in a_events:
        for b in by_date.get(a.date, ()):
            basis = _city_equality(a, b)
            if basis is not None:
                pairs.append((a, b, basis))
    return pairs


def classify_pair(
    a: Event, b: Event, city_basis: str, cfg: MatchConfig = MatchConfig(),
    sim: float | None = None,
) -> MatchPair:
    """Apply the three ordered rules to one candidate pair from candidate_pairs.

    The first rule that yields Identical wins; a NearDistinct verdict from
    an earlier rule survives only if no later rule upgrades the pair. Pairs
    no rule covers stay Unclassified and are kept for manual examination.
    ``sim`` is the descriptions' similarity, computed here when not given.
    """
    d = haversine_km(a.point, b.point)
    s = similarity(a.description or "", b.description or "") if sim is None else sim
    desc_a = (a.description or "").lower()
    desc_b = (b.description or "").lower()

    verdict, rule = Verdict.UNCLASSIFIED, MatchRule.NONE
    if shares_link(a, b) and s > cfg.sim_link and d < cfg.dist_link_km:
        verdict, rule = Verdict.IDENTICAL, MatchRule.SHARED_LINK
    else:
        near: MatchRule | None = None
        if cfg.area_token in desc_a or cfg.area_token in desc_b:
            if s > cfg.sim_area and d < cfg.dist_area_km:
                verdict, rule = Verdict.IDENTICAL, MatchRule.AREA
            else:
                near = MatchRule.AREA
        if verdict is not Verdict.IDENTICAL and any(
            kw in desc_a or kw in desc_b for kw in cfg.keywords
        ):
            if s > cfg.sim_keyword and d < cfg.dist_keyword_km:
                verdict, rule = Verdict.IDENTICAL, MatchRule.KEYWORD
            elif near is None:
                near = MatchRule.KEYWORD
        if verdict is not Verdict.IDENTICAL and near is not None:
            verdict, rule = Verdict.NEAR_DISTINCT, near

    return MatchPair(
        a=a.id,
        b=b.id,
        distance_km=d,
        similarity=s,
        verdict=verdict,
        rule=rule,
        city_basis=city_basis,
    )


def _richness(ev: Event) -> int:
    count = sum(
        1 for v in (ev.description, ev.country, ev.city, ev.province, ev.postal_code) if v
    )
    return count + len(ev.source_urls) + len(ev.comments) + len(ev.city_labels)


def choose_primary(a: Event, b: Event) -> EventKey:
    """The member with more populated optional items; ties go to EoR."""
    ra, rb = _richness(a), _richness(b)
    if ra > rb:
        return a.key
    if rb > ra:
        return b.key
    return a.key if a.dataset is Dataset.EOR else b.key


def integrate(
    a_events: Sequence[Event], b_events: Sequence[Event], cfg: MatchConfig = MatchConfig()
) -> IntegrationResult:
    """Run the full matching pass and mint aggregate events.

    One-to-one matching: when an event appears in several Identical pairs,
    the highest-similarity pair survives (ties: smaller distance, then
    lexicographic ids) and the others are demoted to Unclassified. Every
    source event ends up in exactly one aggregate (a pair aggregate for a
    surviving match, a singleton otherwise), so the integrated event count
    is |A| + |B| - |S|.
    """
    events_by_key([*a_events, *b_events])  # refuses two events with one key

    candidates = candidate_pairs(a_events, b_events)
    sims = _similarities([(a.description or "", b.description or "") for a, b, _ in candidates])
    pairs = [classify_pair(a, b, basis, cfg, s) for (a, b, basis), s in zip(candidates, sims)]

    survivors: set[tuple[str, str]] = set()
    used_a: set[str] = set()
    used_b: set[str] = set()
    identical = [p for p in pairs if p.verdict is Verdict.IDENTICAL]
    for p in sorted(identical, key=lambda p: (-p.similarity, p.distance_km, p.a, p.b)):
        if p.a not in used_a and p.b not in used_b:
            used_a.add(p.a)
            used_b.add(p.b)
            survivors.add((p.a, p.b))

    final_pairs = tuple(
        replace(p, verdict=Verdict.UNCLASSIFIED)
        if p.verdict is Verdict.IDENTICAL and (p.a, p.b) not in survivors else p
        for p in pairs
    )

    aggregates = [
        AggregateEvent(
            iri=aggregate_iri([event_iri(*a.key), event_iri(*b.key)]),
            members=(a.key, b.key),
            primary=choose_primary(a, b),
        )
        for (a, b, _), p in zip(candidates, final_pairs)
        if p.verdict is Verdict.IDENTICAL
    ]
    for events, used in ((a_events, used_a), (b_events, used_b)):
        for ev in events:
            if ev.id in used:
                continue
            aggregates.append(
                AggregateEvent(
                    iri=aggregate_iri([event_iri(*ev.key)]),
                    members=(ev.key,),
                    primary=ev.key,
                )
            )

    counts = IntegrationCounts(
        a=len(a_events),
        b=len(b_events),
        identical=len(survivors),
        near_distinct=sum(1 for p in final_pairs if p.verdict is Verdict.NEAR_DISTINCT),
        integrated=len(aggregates),
    )
    assert counts.integrated == counts.a + counts.b - counts.identical
    return IntegrationResult(pairs=final_pairs, aggregates=tuple(aggregates), counts=counts)
