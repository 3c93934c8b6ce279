"""Output checks for the benchmark's timed commands.

Each check reads what a command wrote and compares it with the planted
truth from ``generate.py`` or with an independent reference. It returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from generate import haversine_km, point_key

EVENT_NS = "https://linked4resilience.eu/event/"
_PRIMARY_RE = re.compile(
    r"^<([^>]+)> <https://linked4resilience\.eu/ontology/hasPrimarySource> <"
    + re.escape(EVENT_NS) + r"(eor|ch)/([^>]+)> \.$",
    re.MULTILINE,
)
# Events this close to the uc6 radius are left out of the reference
# comparison: the program's scalar haversine and numpy's may round apart.
UC6_EDGE_KM = 1e-6


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def ch_points(path: Path) -> dict[str, str]:
    """CH event id -> point key, from a canonical event JSON file."""
    return {d["id"]: point_key(d["lat"], d["lon"]) for d in json.loads(path.read_text("utf-8"))}


def check_counts(path: Path, n_a: int, n_b: int, identical: int | None) -> list[str]:
    """``integrated == a + b - identical``, no record lost, and (when given) the planted count."""
    problems: list[str] = []
    c = _read_json(path, problems)
    if c is None:
        return problems
    if c["integrated"] != c["a"] + c["b"] - c["identical"]:
        problems.append(f"counts.json: integrated {c['integrated']} != a + b - identical")
    if (c["a"], c["b"]) != (n_a, n_b):
        problems.append(f"counts.json: a={c['a']} b={c['b']}, expected {n_a} and {n_b}")
    if identical is not None and c["identical"] != identical:
        problems.append(f"counts.json: identical={c['identical']}, planted {identical}")
    return problems


def check_pairs(path: Path, truth: dict, ch_ids: dict[str, str]) -> list[str]:
    """Every planted shared-link pair is Identical; every decoy lost the one-to-one resolution."""
    problems: list[str] = []
    by_point = {key: cid for cid, key in ch_ids.items()}
    try:
        with path.open(encoding="utf-8", newline="") as fp:
            rows = {(r["a_id"], r["b_id"]): (r["verdict"], r["rule"]) for r in csv.DictReader(fp)}
    except (OSError, KeyError, csv.Error) as exc:
        return [f"cannot read {path.name}: {exc}"]
    for label, pairs, expected in (
        ("planted", truth["planted_pairs"], ("Identical", "SharedLink")),
        ("decoy", truth["decoy_pairs"], ("Unclassified", "SharedLink")),
    ):
        wrong = [(a, k) for a, k in pairs if rows.get((a, by_point.get(k))) != expected]
        if wrong:
            problems.append(
                f"pairs.csv: {len(wrong)} of {len(pairs)} {label} pairs are not "
                f"{'/'.join(expected)}, e.g. {wrong[0]}"
            )
    return problems


def check_cities(eor_path: Path, ch_path: Path, truth: dict) -> list[str]:
    """Events whose city string is a gazetteer name resolve to their true city."""
    problems: list[str] = []
    for path, want, key in (
        (eor_path, truth["eor_city"], lambda d: d["id"]),
        (ch_path, truth["ch_city"], lambda d: point_key(d["lat"], d["lon"])),
    ):
        docs = _read_json(path, problems)
        if docs is None:
            continue
        got = {key(d): d.get("city_geoname_id") for d in docs}
        wrong = [k for k, gid in want.items() if got.get(k) != gid]
        if wrong:
            problems.append(f"{path.name}: {len(wrong)} of {len(want)} named events "
                            f"resolved to another city, e.g. {wrong[0]}")
    return problems


def check_uc2(path: Path, truth: dict) -> list[str]:
    """uc2's monthly buckets equal the planted count of keyword events per month."""
    try:
        with path.open(encoding="utf-8", newline="") as fp:
            got = {r["month"]: int(r["count"]) for r in csv.DictReader(fp)}
    except (OSError, KeyError, ValueError, csv.Error) as exc:
        return [f"cannot read {path.name}: {exc}"]
    want = truth["school_per_month"]
    problems = [f"uc2: month {m} missing from the output" for m in want if m not in got]
    wrong = {m: (n, want.get(m, 0)) for m, n in got.items() if n != want.get(m, 0)}
    if wrong:
        problems.append(f"uc2: {len(wrong)} months differ (got, planted): {wrong}")
    return problems


def primary_iris(nt_path: Path) -> dict[str, str]:
    """Primary source event IRI of every aggregate, scanned straight from the N-Triples text."""
    text = nt_path.read_text(encoding="utf-8")
    return {m.group(1): f"{EVENT_NS}{m.group(2)}/{m.group(3)}" for m in _PRIMARY_RE.finditer(text)}


def check_uc6(
    geojson_path: Path,
    grid_path: Path,
    nt_path: Path,
    points: dict[str, tuple[float, float]],
    shelters: np.ndarray,
    radius_km: float,
    n_aggregates: int,
) -> list[str]:
    """uc6's uncovered set equals a numpy haversine reference over the primary events.

    ``points`` maps event IRIs to coordinates; ``shelters`` is an (n, 2)
    array of latitude and longitude.
    """
    problems: list[str] = []
    doc = _read_json(geojson_path, problems)
    if doc is None:
        return problems
    got = {f["properties"]["event"] for f in doc["features"]}
    primaries = sorted(set(primary_iris(nt_path).values()))
    if len(primaries) != n_aggregates:
        return [f"uc6: {len(primaries)} primary sources in the .nt, expected {n_aggregates}"]
    coords = np.array([points[iri] for iri in primaries])
    nearest = np.empty(len(primaries))
    for lo in range(0, len(primaries), 1024):
        block = coords[lo:lo + 1024]
        d = haversine_km(block[:, :1], block[:, 1:], shelters[None, :, 0], shelters[None, :, 1])
        nearest[lo:lo + 1024] = d.min(axis=1)
    decided = np.abs(nearest - radius_km) >= UC6_EDGE_KM
    want = {iri for iri, far, ok in zip(primaries, nearest > radius_km, decided) if far and ok}
    edge = {iri for iri, ok in zip(primaries, decided) if not ok}
    missing, extra = want - got, (got - want) - edge
    if missing or extra:
        problems.append(f"uc6: {len(missing)} uncovered events missing and {len(extra)} "
                        f"reported in error, against the numpy reference")
    try:
        with grid_path.open(encoding="utf-8", newline="") as fp:
            cells = sum(int(r["count"]) for r in csv.DictReader(fp))
    except (OSError, KeyError, ValueError, csv.Error) as exc:
        return problems + [f"cannot read {grid_path.name}: {exc}"]
    if cells != len(got):
        problems.append(f"uc6: grid counts sum to {cells}, {len(got)} events uncovered")
    return problems
