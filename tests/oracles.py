"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: the similarity oracles
find blocks by exhaustive scanning and with the standard library's
difflib, the distance oracle uses the spherical law of cosines, and the
nearest-neighbor oracle is a pure-Python linear scan.
"""

from __future__ import annotations

import math
import re
from difflib import SequenceMatcher

EARTH_RADIUS_KM = 6371.0


def brute_force_ratio(a: str, b: str) -> float:
    """Ratcliff/Obershelp by exhaustive longest-block search.

    All (i, j) starting positions are scanned and common-prefix lengths
    measured directly; ties prefer the earliest start in a, then in b.
    """

    def longest(alo: int, ahi: int, blo: int, bhi: int) -> tuple[int, int, int]:
        best_k, best_i, best_j = 0, alo, blo
        for i in range(alo, ahi):
            for j in range(blo, bhi):
                k = 0
                while i + k < ahi and j + k < bhi and a[i + k] == b[j + k]:
                    k += 1
                if k > best_k:
                    best_k, best_i, best_j = k, i, j
        return best_k, best_i, best_j

    def total(alo: int, ahi: int, blo: int, bhi: int) -> int:
        k, i, j = longest(alo, ahi, blo, bhi)
        if k == 0:
            return 0
        return k + total(alo, i, blo, j) + total(i + k, ahi, j + k, bhi)

    if not a and not b:
        return 1.0
    matched = total(0, len(a), 0, len(b))
    return 2.0 * matched / (len(a) + len(b))


def difflib_ratio(a: str, b: str) -> float:
    """Ratcliff/Obershelp as difflib computes it, lowercased, with autojunk off."""
    return SequenceMatcher(None, a.lower(), b.lower(), autojunk=False).ratio()


def law_of_cosines_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance via the spherical law of cosines."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, c)))


def scalar_haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Pure-Python haversine for the linear-scan oracles."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def scan_nearest(query_lat: float, query_lon: float, coords: list[tuple[float, float]]) -> tuple[int, float] | None:
    """Index and distance of the nearest coordinate, first-wins on ties."""
    best = None
    for i, (lat, lon) in enumerate(coords):
        d = scalar_haversine_km(query_lat, query_lon, lat, lon)
        if best is None or d < best[1]:
            best = (i, d)
    return best


RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def turtle_statements(text: str) -> list[str]:
    """Expand the writer's Turtle back into N-Triples statement lines, in order.

    Reads the shape the writer produces: an `@prefix` block, then per
    subject a blank line, the subject as `<iri>`, and one `predicate object`
    line per statement, indented four spaces and ending in ` ;` (or ` .`
    for the subject's last). `a`, prefixed names and prefixed datatypes are
    expanded by string work alone, and a prefixed name's local part must be
    one the writer may shorten to; literals are kept as written, since both
    formats escape them the same way.
    """
    prefixes: dict[str, str] = {}

    def name(token: str) -> str:
        if token.startswith("<"):
            return token
        prefix, colon, local = token.partition(":")
        assert colon and prefix in prefixes, token
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", local), f"local name {local!r}"
        return f"<{prefixes[prefix]}{local}>"

    def term(token: str) -> str:
        if not token.startswith('"'):
            return name(token)
        close = token.rindex('"')  # a quote inside the literal is escaped as \"
        suffix = token[close + 1:]
        if suffix.startswith("^^"):
            return token[: close + 1] + "^^" + name(suffix[2:])
        return token

    statements = []
    subject = None
    for line in text.split("\n"):
        if line.startswith("@prefix "):
            assert subject is None and not statements, line
            _, label, iri, dot = line.split(" ")
            assert label.endswith(":") and iri[0] + iri[-1] == "<>" and dot == ".", line
            prefixes[label[:-1]] = iri[1:-1]
        elif line.startswith("    "):
            assert subject is not None, line
            body, end = line[4:-2], line[-2:]
            assert end in (" ;", " ."), line
            predicate, obj = body.split(" ", 1)
            predicate = f"<{RDF_TYPE_IRI}>" if predicate == "a" else name(predicate)
            statements.append(f"{subject} {predicate} {term(obj)} .")
            if end == " .":
                subject = None
        elif line:
            assert subject is None and line[0] + line[-1] == "<>", line
            subject = line
    assert subject is None, "last statement group not closed"
    return statements
