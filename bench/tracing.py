"""Layer spans for the traced benchmark run, recorded from outside the program.

Run as a script, this is the child process of a traced command: it wraps
the public functions of each resilink module by attribute patching, then
calls ``resilink.cli.run_subcommand`` and writes the spans as JSON::

    python3 bench/tracing.py SPANS_OUT RUN_ID -- <resilink arguments>

Imported, it turns one such file into per-layer metrics. Each wrapper
patches the name its caller looks up: ``cli`` imports the event JSON
helpers by name, ``enrich_event`` calls the module-level lookup
functions, and the CLI reaches everything else through module
attributes. Only per-event or coarser calls are wrapped, never
``haversine_km`` or ``Term``.

Times are self times (a span's duration minus the time its traced
children cover), except the two whole-layer calls
``gazetteer.enrich_s`` and ``integration.integrate_s``, which are
inclusive; their traced parts are reported beside them, and
``integration.resolve_s`` is what ``integrate`` spends outside candidate
generation and classification. ``cli.self_s`` is the command's wall time
outside its layer spans, so it holds ``cli.startup_s`` and interpreter exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute). A span name may cover several functions.
SPANS = {
    "cli": [("resilink.cli", "run_subcommand")],
    "ingest.parse": [("resilink.ingest", "parse_dataset")],
    "ingest.normalize": [("resilink.ingest", "normalize_records")],
    "model.json_read": [("resilink.cli", "events_from_json")],
    "model.json_write": [("resilink.cli", "events_to_json")],
    "gazetteer.load": [("resilink.gazetteer", "load_gazetteer")],
    "gazetteer.enrich": [("resilink.gazetteer", "enrich_events")],
    "gazetteer.name": [("resilink.gazetteer", "lookup_city_by_name")],
    "gazetteer.reverse": [("resilink.gazetteer", "reverse_geocode")],
    "gazetteer.postal": [("resilink.gazetteer", "postal_code_for")],
    "integration.integrate": [("resilink.integration", "integrate")],
    "integration.candidates": [("resilink.integration", "candidate_pairs")],
    "integration.classify": [("resilink.integration", "classify_pair")],
    "integration.similarity": [("resilink.integration", "similarity")],
    "rdf.emit": [("resilink.rdf", "emit_event_triples"), ("resilink.rdf", "emit_aggregate_triples")],
    "rdf.serialize": [("resilink.rdf", "serialize_bytes")],
    "rdf.parse": [("resilink.rdf", "parse_ntriples")],
    "rdf.reload": [("resilink.analytics", "IntegratedDataset.from_triples")],
    "analytics.uc2": [("resilink.analytics", "uc2_monthly_keyword_series")],
    "analytics.uc6": [("resilink.analytics", "uc6_shelter_gap")],
}

# Functions that are counted but get no span of their own.
COUNTED = {
    "gazetteer.nearest_place_calls": ("resilink.gazetteer", "GazetteerIndex.nearest_place"),
    "analytics.load_shelters": ("resilink.analytics", "load_shelters"),
}


def _counters(name: str, args: tuple, result) -> dict[str, int]:
    """Work counts taken from a wrapped call's arguments and result."""
    if name == "ingest.parse":
        return {"ingest.records": len(result)}
    if name == "ingest.normalize":
        return {"ingest.rejected": len(result[1])}
    if name == "model.json_read":
        data = args[0]
        return {"model.json_bytes": len(data.encode("utf-8") if isinstance(data, str) else data)}
    if name == "model.json_write":
        return {"model.json_bytes": len(result.encode("utf-8"))}
    if name in ("gazetteer.reverse", "gazetteer.postal"):
        return {name + "_hits": int(result is not None)}
    if name == "integration.integrate":
        demoted = sum(
            1 for p in result.pairs if p.verdict.value == "Unclassified" and p.rule.value != "None"
        )
        return {"integration.identical": result.counts.identical, "integration.demoted": demoted}
    if name == "integration.candidates":
        return {"integration.candidate_pairs": len(result)}
    if name == "rdf.emit":
        return {"rdf.triples": len(result)}
    if name == "rdf.serialize":
        return {"rdf.nt_bytes": len(result)}
    if name == "analytics.uc6":
        return {"analytics.uc6_uncovered": len(result[0]["features"])}
    if name == "analytics.load_shelters":
        return {"analytics.shelters": len(result)}
    return {}


class Tracer:
    """Spans kept in memory until the traced command exits.

    A span is ``[name, start, end, parent, run_id]``, with ``parent`` the
    index of the enclosing span or -1; all spans of one command share the
    tracer's run id. Times are ``time.perf_counter()`` readings, which
    on Linux come from the system-wide monotonic clock, so the parent
    process can compare them with its own spawn time.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self.counts.update(_counters(name, args, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            self.counts.update(_counters(name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        def patch(module: str, attr: str, wrap) -> None:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if isinstance(owner, type) and isinstance(owner.__dict__[leaf], classmethod):
                setattr(owner, leaf, staticmethod(wrap(original)))
            else:
                setattr(owner, leaf, wrap(original))

        for name, targets in SPANS.items():
            for module, attr in targets:
                patch(module, attr, functools.partial(self.span, name))
        for name, (module, attr) in COUNTED.items():
            patch(module, attr, functools.partial(self.counted, name))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Turning spans into per-layer metrics

PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "ingest.parse_s": "s", "ingest.normalize_s": "s",
    "ingest.records": "count", "ingest.rejected": "count",
    "model.json_read_s": "s", "model.json_write_s": "s", "model.json_bytes": "bytes",
    "gazetteer.load_s": "s", "gazetteer.load_calls": "count",
    "gazetteer.enrich_s": "s",
    "gazetteer.name_s": "s", "gazetteer.name_calls": "count",
    "gazetteer.reverse_s": "s", "gazetteer.reverse_calls": "count",
    "gazetteer.reverse_hit_ratio": "ratio",
    "gazetteer.postal_s": "s", "gazetteer.postal_calls": "count",
    "gazetteer.postal_hit_ratio": "ratio",
    "gazetteer.nearest_place_calls": "count",
    "integration.integrate_s": "s", "integration.candidates_s": "s",
    "integration.candidate_pairs": "count", "integration.classify_s": "s",
    "integration.similarity_s": "s", "integration.similarity_calls": "count",
    "integration.similarity_max_s": "s", "integration.resolve_s": "s",
    "integration.identical_ratio": "ratio", "integration.demoted": "count",
    "rdf.emit_s": "s", "rdf.triples": "count", "rdf.serialize_s": "s", "rdf.nt_bytes": "bytes",
    "rdf.parse_s": "s", "rdf.reload_s": "s",
    "analytics.uc2_s": "s", "analytics.uc6_s": "s",
    "analytics.uc6_uncovered": "count", "analytics.shelters": "count",
    "trace.spans": "count", "trace.overhead_s": "s",
}

_INCLUSIVE = ("gazetteer.enrich", "integration.integrate")


def command_layers(doc: dict, spawned_at: float, wall_s: float) -> dict[str, float]:
    """Per-layer sums for one traced command, given the parent's spawn time and wall time."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    longest: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _, _), inner in zip(spans, child_time):
        self_s[name] += end - start - inner
        total_s[name] += end - start
        calls[name] += 1
        longest[name] = max(longest[name], end - start)

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}_s"] = total_s[name] if name in _INCLUSIVE else self_s[name]
    # The command's wall time outside its layer spans: interpreter start and
    # import (cli.startup_s is that part), argument and config handling, the
    # CLI's own file reads and writes, and interpreter exit.
    del out["cli_s"]
    out["cli.self_s"] = wall_s - (child_time[0] if spans else 0.0)
    out["cli.startup_s"] = spans[0][1] - spawned_at if spans else 0.0
    out["integration.resolve_s"] = self_s["integration.integrate"]
    out["integration.similarity_max_s"] = longest["integration.similarity"]
    for name in ("gazetteer.load", "gazetteer.name", "gazetteer.reverse", "gazetteer.postal",
                 "integration.similarity"):
        out[f"{name}_calls"] = calls[name]
    out.update(doc["counts"])
    out["trace.spans"] = len(spans)
    return out


def _ratio(hits: float, total: float) -> float:
    """A hit ratio; 0 when the layer made no calls on this workload."""
    return hits / total if total else 0.0


def pass_layers(commands: list[dict[str, float]]) -> dict[str, float]:
    """Sum one pass's commands and derive the ratios and maxima."""
    summed: Counter[str] = Counter()
    for c in commands:
        summed.update(c)
    out = {name: float(summed.get(name, 0.0)) for name in PER_LAYER_UNITS}
    out["integration.similarity_max_s"] = max(
        (c.get("integration.similarity_max_s", 0.0) for c in commands), default=0.0
    )
    out["gazetteer.reverse_hit_ratio"] = _ratio(
        summed["gazetteer.reverse_hits"], summed["gazetteer.reverse_calls"])
    out["gazetteer.postal_hit_ratio"] = _ratio(
        summed["gazetteer.postal_hits"], summed["gazetteer.postal_calls"])
    out["integration.identical_ratio"] = _ratio(
        summed["integration.identical"], summed["integration.candidate_pairs"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_OUT RUN_ID -- <resilink arguments>", file=sys.stderr)
        return 2
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from resilink import cli

    code = cli.run_subcommand(cli_args)
    with open(out_path, "w", encoding="utf-8") as fp:
        json.dump(tracer.dump(), fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
