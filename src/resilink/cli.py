"""Command-line pipeline orchestration.

Subcommands mirror the pipeline stages: ingest, enrich, convert,
integrate, report uc1..uc6, linkcheck, plus a pipeline meta-command that
chains ingest -> enrich -> integrate. Stages communicate through the
documented file formats and all outputs are written atomically, so any
stage can be re-run in isolation; pipeline passes events between stages
in memory but writes the same files. Exit codes: 0 success, 1 data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import logging
import math
import os
import secrets
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from urllib.parse import urlsplit

from . import analytics, gazetteer, ingest, integration, rdf
from .model import (
    Dataset,
    Event,
    GazetteerRef,
    ResilinkError,
    events_from_json,
    events_to_json,
    parse_civil_date,
)

log = logging.getLogger("resilink")

USERNAME_ENV = "GEONAMES_USERNAME"


class ConfigError(ResilinkError):
    pass


@dataclass(frozen=True)
class OnlineSettings:
    """The online geocoder that fills what the offline gazetteer left unresolved."""

    base_url: str = ""
    username: str = ""  # empty: read from $GEONAMES_USERNAME
    rate_per_sec: float = 1.0

    def __post_init__(self):
        if not self.base_url:
            raise ValueError("base_url must be a non-empty URL string")
        if not self.rate_per_sec > 0:  # also rejects NaN
            raise ValueError(f"rate_per_sec must be positive: {self.rate_per_sec!r}")


@dataclass(frozen=True)
class LinkcheckSettings:
    """Request timeout, worker count and per-host politeness delay of linkcheck."""

    timeout_s: float = 10.0
    concurrency: int = 8
    politeness_s: float = 0.2

    def __post_init__(self):
        if not 0 < self.timeout_s < math.inf:  # also rejects NaN
            raise ValueError(f"timeout_s must be positive and finite: {self.timeout_s!r}")
        if not 0 <= self.politeness_s < math.inf:
            raise ValueError(f"politeness_s must be >= 0 and finite: {self.politeness_s!r}")
        if not (self.concurrency >= 1 and self.concurrency % 1 == 0):
            raise ValueError(f"concurrency must be a count >= 1: {self.concurrency!r}")
        object.__setattr__(self, "concurrency", int(self.concurrency))


_DOCUMENT_KEYS = (
    "adapters", "gazetteer", "overrides", "match", "enrichment", "analytics", "online", "linkcheck"
)
_GAZETTEER_KEYS = ("places", "alternate_names", "postal_codes")


@dataclass
class PipelineConfig:
    """Everything the stages need, loaded from one JSON document."""

    adapters: dict[Dataset, ingest.AdapterConfig] = field(default_factory=dict)
    gazetteer_files: tuple[Path | None, ...] = (None,) * len(_GAZETTEER_KEYS)
    overrides_path: Path | None = None
    match: integration.MatchConfig = field(default_factory=integration.MatchConfig)
    enrichment: gazetteer.EnrichmentConfig = field(default_factory=gazetteer.EnrichmentConfig)
    analytics: analytics.ReportSettings = field(default_factory=analytics.ReportSettings)
    online: OnlineSettings | None = None
    linkcheck: LinkcheckSettings = field(default_factory=LinkcheckSettings)

    @classmethod
    def load(cls, path: str | Path) -> PipelineConfig:
        """Read one config document; every malformed value raises ConfigError."""
        base = Path(path).parent
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _object(raw, "document", _DOCUMENT_KEYS)

        adapters = {}
        for name, mapping in _object(raw.get("adapters", {}), "adapters").items():
            if not all(isinstance(v, str) for v in _object(mapping, f"adapters.{name}").values()):
                raise ConfigError(f"config adapters.{name} must map fields to source field names")
            try:
                adapters[Dataset(name)] = ingest.AdapterConfig.from_dict(mapping)
            except ValueError as exc:
                raise ConfigError(f"config adapters.{name}: {exc}") from exc

        gaz = _object(raw.get("gazetteer", {}), "gazetteer", _GAZETTEER_KEYS)
        return cls(
            adapters=adapters,
            gazetteer_files=tuple(
                _resolve_path(gaz.get(key), base, f"gazetteer.{key}") for key in _GAZETTEER_KEYS
            ),
            overrides_path=_resolve_path(raw.get("overrides"), base, "overrides"),
            match=_section(raw, "match", integration.MatchConfig),
            enrichment=_section(raw, "enrichment", gazetteer.EnrichmentConfig),
            analytics=_section(raw, "analytics", analytics.ReportSettings),
            online=None if raw.get("online") is None else _section(raw, "online", OnlineSettings),
            linkcheck=_section(raw, "linkcheck", LinkcheckSettings),
        )

    def load_index(self) -> gazetteer.GazetteerIndex:
        for name, p in zip(_GAZETTEER_KEYS, self.gazetteer_files):
            if p is None:
                raise ConfigError(f"config is missing gazetteer.{name}")
        return gazetteer.load_gazetteer(*self.gazetteer_files)

    def load_overrides(self) -> gazetteer.OverrideTable:
        if self.overrides_path is None:
            return gazetteer.EMPTY_OVERRIDES
        # the constructor's value error names the override table and the value already
        mapping = _parse_file(self.overrides_path, gazetteer.OverrideTable.json_mapping)
        return gazetteer.OverrideTable(mapping)


def _object(value, label: str, keys=None) -> dict:
    """value, which must be a JSON object; given keys, each of its keys must be among them."""
    if not isinstance(value, dict):
        raise ConfigError(f"config {label} must be a JSON object")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"config {label} has an unknown key: {key!r}")
    return value


def _section(raw: dict, name: str, cls):
    """The config section `name` as an instance of the dataclass cls.

    Each key must name a field of cls and hold the JSON type of that
    field's default: a list of strings, a number or a string. The values'
    rules are the constructor's, and its ValueError becomes one ConfigError.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    section = _object(raw.get(name, {}), name, defaults)
    kwargs = {}
    try:
        for key, value in section.items():
            default = defaults[key]
            if isinstance(default, tuple):
                if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                    raise ConfigError(f"config {name}.{key} must be a list of strings")
                value = tuple(value)
            elif isinstance(default, str):
                if not isinstance(value, str):
                    raise ConfigError(f"config {name}.{key} must be a string")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config {name}.{key} must be a number: {value!r}")
            elif isinstance(default, float):
                value = float(value)  # overflows on a JSON integer beyond the float range
            kwargs[key] = value
        return cls(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config {name}: {exc}") from exc


def _resolve_path(value, base: Path, label: str) -> Path | None:
    """Resolve a config path relative to the config file and require it to exist."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"config {label} must be a path string")
    p = Path(value)
    if not p.is_absolute():
        p = base / p
    if not p.exists():
        raise ConfigError(f"config path for {label} does not exist: {p}")
    return p


def _atomic_write(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks, in order, as the file at path; it appears whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # created as open() would create it, so the umask sets the mode (mkstemp forces 0600)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.writelines(chunks)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | Path, doc) -> None:
    _atomic_write(path, json.dumps(doc, indent=2).encode("utf-8"), b"\n")


def _write_csv(path: str | Path, rows: list[tuple]) -> None:
    """Write the rows, the header row first, as one CSV file, atomically."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _with_flags(section, **flags):
    """The config section with each flag that was given put in; its constructor checks them."""
    return replace(section, **{name: value for name, value in flags.items() if value is not None})


def _parse_file(path: str | Path, parse):
    """parse(the bytes of path), with the path in front of a data error's message."""
    try:
        return parse(Path(path).read_bytes())  # the bytes go when parse lets go of them
    except (ResilinkError, ValueError) as exc:
        raise ResilinkError(f"{path}: {exc}") from exc


def _read_events(path: str | Path) -> list[Event]:
    return _parse_file(path, events_from_json)


def _write_events(path: str | Path, events) -> None:
    _atomic_write(path, events_to_json(events).encode("utf-8"), b"\n")


# ---------------------------------------------------------------------------
# Stage implementations

def _ingest(path: str | Path, dataset: Dataset, fmt: str, cfg: PipelineConfig) -> list[Event]:
    """Parse and normalize one source file; rejected records are only logged."""
    if dataset not in cfg.adapters:
        raise ConfigError(f"config has no adapter for dataset {dataset.value!r}")
    records = _parse_file(path, lambda data: ingest.parse_dataset(
        data, dataset, ingest.SourceFormat(fmt), cfg.adapters[dataset]
    ))
    events, rejected = ingest.normalize_records(records, cfg.adapters[dataset])
    for err in rejected:
        log.warning("rejected %s", err)
    log.info("ingest %s: %d events, %d rejected", dataset.value, len(events), len(rejected))
    return events


def _cmd_ingest(args, cfg: PipelineConfig) -> None:
    _write_events(args.out, _ingest(args.input, Dataset(args.dataset), args.format, cfg))


def _online_fill(events, cfg: PipelineConfig):
    """Second enrichment pass through the online service for leftovers."""
    from .geonames_api import GeoNamesClient  # imports requests: only online runs pay for it

    settings = cfg.online
    username = settings.username or os.environ.get(USERNAME_ENV)
    if not username:
        raise ConfigError(
            f"online enrichment needs an account name (config online.username or ${USERNAME_ENV})"
        )
    client = GeoNamesClient(
        base_url=settings.base_url, username=username, rate_per_sec=settings.rate_per_sec
    )
    out = []
    for ev in events:
        if ev.city is None:
            entry = client.find_nearby_place(ev.point.latitude, ev.point.longitude)
            if entry is not None and entry.feature_class == "P":
                ev = replace(ev, city=GazetteerRef(entry.geoname_id, entry.name), city_name=None)
        if ev.postal_code is None:
            postal = client.find_nearby_postal(ev.point.latitude, ev.point.longitude)
            if postal is not None:
                ev = replace(ev, postal_code=postal.postal_code)
        out.append(ev)
    return out


def _enrich(events: list[Event], index, overrides, cfg: PipelineConfig,
            offline: bool) -> list[Event]:
    enriched, stats = gazetteer.enrich_events(index, overrides, events, cfg.enrichment)
    if cfg.online is not None and not offline:
        enriched = _online_fill(enriched, cfg)
    log.info(
        "enrich: %d events; resolved %s; unresolved %s",
        stats.total, stats.resolved, stats.unresolved,
    )
    return enriched


def _cmd_enrich(args, cfg: PipelineConfig) -> None:
    events = _read_events(args.input)
    enriched = _enrich(events, cfg.load_index(), cfg.load_overrides(), cfg, args.offline)
    _write_events(args.out, enriched)


def _cmd_convert(args, cfg: PipelineConfig) -> None:
    events = _read_events(args.input)
    lines = []
    for ev in events:
        lines.extend(rdf.emit_event_triples(ev))
    _atomic_write(args.out, rdf.serialize_bytes(lines, rdf.RdfFormat(args.rdf_format)))


def _integrate(a_events: list[Event], b_events: list[Event], cfg: PipelineConfig,
               out, pairs, counts, fmt: rdf.RdfFormat) -> None:
    """Match the two datasets and write the integrated RDF plus optional reports."""
    result = integration.integrate(a_events, b_events, cfg.match)
    c = result.counts
    log.info(
        "integrate: |A|=%d |B|=%d identical=%d near-distinct=%d integrated=%d",
        c.a, c.b, c.identical, c.near_distinct, c.integrated,
    )
    lines = []
    for ev in a_events + b_events:
        lines.extend(rdf.emit_event_triples(ev))
    for agg in result.aggregates:
        lines.extend(rdf.emit_aggregate_triples(agg))
    _atomic_write(out, rdf.serialize_bytes(lines, fmt))
    if pairs:
        _write_csv(pairs, [
            ("a_id", "b_id", "verdict", "rule", "distance_km", "similarity"),
            *((p.a, p.b, p.verdict.value, p.rule.value, f"{p.distance_km:.6f}", f"{p.similarity:.6f}")
              for p in result.pairs),
        ])
    if counts:
        _write_json(counts, {
            "a": c.a, "b": c.b, "identical": c.identical,
            "near_distinct": c.near_distinct, "integrated": c.integrated,
        })


def _read_events_of(path: str, dataset: Dataset) -> list[Event]:
    """The events of path, each of which must belong to dataset."""
    events = _read_events(path)
    for ev in events:
        if ev.dataset is not dataset:
            raise ResilinkError(f"--{dataset.value} file holds a {ev.dataset.value} event: {ev.id}")
    return events


def _cmd_integrate(args, cfg: PipelineConfig) -> None:
    _integrate(
        _read_events_of(args.eor, Dataset.EOR), _read_events_of(args.ch, Dataset.CH), cfg,
        args.out, args.pairs, args.counts, rdf.RdfFormat(args.rdf_format),
    )


def _load_dataset(path: str) -> analytics.IntegratedDataset:
    # decoded here, so that the file's bytes are freed before the load
    return analytics.IntegratedDataset.from_triples(
        rdf.parse_ntriples(Path(path).read_bytes().decode("utf-8"))
    )


def _months(args, cfg: PipelineConfig) -> list[str]:
    return args.months.split(",") if args.months else list(cfg.analytics.months)


def _uc1(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    city = GazetteerRef(args.city_geoname_id) if args.city_geoname_id is not None else None
    start, end = parse_civil_date(args.start), parse_civil_date(args.end)
    if args.out_nt:
        lines = analytics.uc1_wkt_triples(ds, city, start, end)
        _atomic_write(args.out_nt, rdf.serialize_bytes(lines))
    if args.out_geojson:
        points = analytics.uc1_event_points(ds, city, start, end)
        _write_json(args.out_geojson, analytics.points_feature_collection(points))


def _uc2(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    buckets = analytics.uc2_monthly_keyword_series(ds, args.keyword, _months(args, cfg))
    _write_csv(args.out, [("month", "count"), *((b.month_year, b.count) for b in buckets)])


def _uc3(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    langs = args.langs.split(",")
    rows = analytics.uc3_multilingual_city_report(ds, langs, args.top)
    _write_csv(args.out, [
        (*langs, "occurrences"),
        *((*(row.names[lang] for lang in langs), row.occurrences) for row in rows),
    ])


def _uc4(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    if args.months:
        timeline = analytics.uc4_monthly_timeline(ds, args.months.split(","), args.top)
        _write_csv(args.out, [
            ("month", "region", "occurrences"),
            *((month, r.region, r.occurrences) for month, ranks in timeline for r in ranks),
        ])
    else:
        start, end = parse_civil_date(args.start), parse_civil_date(args.end)
        ranks = analytics.uc4_top_regions(ds, start, end, args.top)
        _write_csv(args.out, [("region", "occurrences"), *((r.region, r.occurrences) for r in ranks)])


def _uc5(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    attacks = analytics.monthly_event_counts(ds, _months(args, cfg))
    with open(args.deaths, encoding="utf-8", newline="") as fp:
        deaths = analytics.read_deaths_csv(fp)
    _write_csv(args.out, [
        ("# proof-of-concept: joins unvalidated external data; not for operational decisions",),
        ("month", "attacks", "deaths", "ratio"),
        *((r.month_year, r.attacks, r.deaths, "" if r.ratio is None else f"{r.ratio:.6f}")
          for r in analytics.uc5_ratio_series(attacks, deaths)),
    ])


def _uc6(ds: analytics.IntegratedDataset, args, cfg: PipelineConfig) -> None:
    settings = _with_flags(cfg.analytics, uc6_radius_km=args.radius_km)
    with open(args.shelters, encoding="utf-8", newline="") as fp:
        shelters = analytics.load_shelters(fp)
    collection, grid = analytics.uc6_shelter_gap(
        ds, shelters, radius_km=settings.uc6_radius_km, grid_deg=settings.grid_deg
    )
    if args.out_geojson:
        _write_json(args.out_geojson, collection)
    if args.out:
        _write_csv(args.out, [
            ("cell_lat", "cell_lon", "count"),
            *((rdf.format_decimal(c.cell_lat), rdf.format_decimal(c.cell_lon), c.count)
              for c in grid),
        ])


def _cmd_report(args, cfg: PipelineConfig) -> None:
    """Load the dataset once and run the use case's handler (_uc1 .. _uc6) on it."""
    args.use_case_handler(_load_dataset(args.input), args, cfg)


def _cmd_linkcheck(args, cfg: PipelineConfig) -> None:
    from . import linkcheck  # imports requests: only this command pays for it

    settings = _with_flags(cfg.linkcheck, timeout_s=args.timeout, concurrency=args.concurrency)
    events = []
    for path in args.input:
        events.extend(_read_events(path))
    checker = linkcheck.LinkChecker(
        timeout_s=settings.timeout_s,
        politeness_s=settings.politeness_s,
        base_override=args.base_override,
    )
    rows = linkcheck.link_report(events, concurrency=settings.concurrency, checker=checker)
    if args.out_csv:
        _write_csv(args.out_csv, [
            ("url", "status", "http_code", "event_id"),
            *((row.url, row.status.value, row.http_code, row.event_id) for row in rows),
        ])  # csv writes a missing http_code (None) as an empty field
    if args.out_json:
        _write_json(args.out_json, linkcheck.summary_dict(events, rows))


def _cmd_pipeline(args, cfg: PipelineConfig) -> None:
    """Ingest and enrich both datasets, then integrate them.

    The gazetteer is loaded once and events pass between the stages in
    memory; the intermediate files are still written, byte for byte as
    the single stages write them.
    """
    outdir = Path(args.outdir)
    index, overrides = cfg.load_index(), cfg.load_overrides()
    enriched = []
    for dataset, path, fmt in (
        (Dataset.EOR, args.eor_input, args.eor_format),
        (Dataset.CH, args.ch_input, args.ch_format),
    ):
        events = _ingest(path, dataset, fmt, cfg)
        _write_events(outdir / f"{dataset.value}.events.json", events)
        enriched.append(_enrich(events, index, overrides, cfg, args.offline))
        _write_events(outdir / f"{dataset.value}.enriched.json", enriched[-1])
    del index, events  # integration needs neither; keep them out of its peak memory
    _integrate(
        *enriched, cfg, outdir / "integrated.nt", outdir / "pairs.csv", outdir / "counts.json",
        rdf.RdfFormat.NTRIPLES,
    )


# ---------------------------------------------------------------------------
# Argument grammar

def _output(path: str) -> str:
    """The type of every output flag: any path but the empty one."""
    if not path:
        raise argparse.ArgumentTypeError("must not be empty")
    return path


def _base_url(url: str) -> str:
    """The type of --base-override: an http or https scheme and a host, and nothing after them.

    Each request keeps its own path and query, so a base's path, query or
    fragment would be dropped without a word; they are refused instead.
    """
    parts = urlsplit(url)
    if (parts.scheme not in ("http", "https") or not parts.hostname
            or parts.path not in ("", "/") or parts.query or parts.fragment):
        raise argparse.ArgumentTypeError("must be an absolute http or https URL with a host "
                                         f"and no path, query or fragment: {url!r}")
    return url


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilink",
        description="Damage-event linked-data pipeline: ingest, enrich, convert, integrate, report.",
    )
    parser.add_argument("--offline", action="store_true",
                        help="forbid all network use (linkcheck refuses to run)")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("ingest", _cmd_ingest, "parse a source file into canonical event JSON")
    p.add_argument("--dataset", required=True, choices=[d.value for d in Dataset])
    p.add_argument("--format", required=True, choices=[f.value for f in ingest.SourceFormat])
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, type=_output)

    p = command("enrich", _cmd_enrich, "resolve places, postal codes and labels")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, type=_output)

    p = command("convert", _cmd_convert, "emit event triples as N-Triples or Turtle")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=False)
    p.add_argument("--out", required=True, type=_output)
    p.add_argument("--rdf-format", default="ntriples", choices=["ntriples", "turtle"])

    p = command("integrate", _cmd_integrate, "detect cross-dataset duplicates and mint aggregates")
    p.add_argument("--eor", required=True, help="enriched EoR event JSON")
    p.add_argument("--ch", required=True, help="enriched CH event JSON")
    p.add_argument("--config", required=False)
    p.add_argument("--out", required=True, type=_output, help="integrated dataset (.nt/.ttl)")
    p.add_argument("--pairs", type=_output, help="pair report CSV")
    p.add_argument("--counts", type=_output, help="counts summary JSON")
    p.add_argument("--rdf-format", default="ntriples", choices=["ntriples", "turtle"])

    report = command("report", _cmd_report, "run one use-case report over an integrated dataset")
    use_cases = report.add_subparsers(dest="use_case", required=True)
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--input", required=True, help="integrated dataset .nt")
    dataset.add_argument("--config", required=False)

    def use_case(name, handler, help):
        p = use_cases.add_parser(name, parents=[dataset], help=help)
        p.set_defaults(use_case_handler=handler)
        return p

    months = "comma-separated YYYY-MM list"
    p = use_case("uc1", _uc1, "event points in a date window, optionally in one city")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--city-geoname-id", type=int)
    p.add_argument("--out-nt", type=_output)
    p.add_argument("--out-geojson", type=_output)
    p = use_case("uc2", _uc2, "monthly counts of events that mention a keyword")
    p.add_argument("--keyword", required=True)
    p.add_argument("--months", help=months)
    p.add_argument("--out", required=True, type=_output)
    p = use_case("uc3", _uc3, "most-hit cities with their names in several languages")
    p.add_argument("--langs", default="en,uk,nl,fr")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True, type=_output)
    p = use_case("uc4", _uc4, "top regions in a date window or per month")
    p.add_argument("--months", help=f"{months}, instead of --start/--end")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True, type=_output)
    p = use_case("uc5", _uc5, "deaths per attack, joined with an external month,deaths CSV")
    p.add_argument("--deaths", required=True, help="external month,deaths CSV")
    p.add_argument("--months", help=months)
    p.add_argument("--out", required=True, type=_output)
    p = use_case("uc6", _uc6, "events with no shelter nearby, and their density grid")
    p.add_argument("--shelters", required=True, help="shelter name,lat,lon CSV")
    p.add_argument("--radius-km", type=float)
    p.add_argument("--out", type=_output)
    p.add_argument("--out-geojson", type=_output)

    p = command("linkcheck", _cmd_linkcheck, "validate source URLs against the live web or a mock")
    p.add_argument("--input", required=True, action="append",
                   help="canonical event JSON (repeatable)")
    p.add_argument("--config", required=False)
    p.add_argument("--out-csv", type=_output)
    p.add_argument("--out-json", type=_output)
    p.add_argument("--concurrency", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--base-override", type=_base_url,
                   help="redirect all traffic to this base URL (testing)")

    p = command("pipeline", _cmd_pipeline, "ingest + enrich + integrate in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--eor-input", required=True)
    p.add_argument("--eor-format", default="json", choices=["json", "csv"])
    p.add_argument("--ch-input", required=True)
    p.add_argument("--ch-format", default="json", choices=["json", "csv"])
    p.add_argument("--outdir", required=True, type=_output)

    return parser


def _report_usage_error(args) -> str | None:
    """What a use case's flags break beyond argparse's checks, or None.

    uc1 and uc6 write at least one of their two outputs, and uc4 takes
    either --months or both --start and --end.
    """
    if args.use_case == "uc4":
        if args.months and (args.start or args.end):
            return "give --months or --start/--end, not both"
        if not (args.months or args.start and args.end):
            return "missing --months or --start/--end"
    if args.use_case == "uc1" and not (args.out_nt or args.out_geojson):
        return "missing --out-nt or --out-geojson"
    if args.use_case == "uc6" and not (args.out or args.out_geojson):
        return "missing --out or --out-geojson"
    return None


def run_subcommand(argv: list[str]) -> int:
    """Execute exactly one pipeline stage; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.command == "linkcheck" and args.offline:
        print("resilink: linkcheck refuses to run with --offline", file=sys.stderr)
        return 2
    if args.command == "report" and (problem := _report_usage_error(args)):
        print(f"resilink report {args.use_case}: {problem}", file=sys.stderr)
        return 2

    try:
        cfg = PipelineConfig.load(args.config) if getattr(args, "config", None) else PipelineConfig()
        # The parser's reference cycles are the only ones a command leaves in bulk:
        # free them, then run without the cyclic collector, whose passes would only
        # walk the gazetteer's and the events' objects, none of them in a cycle.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            args.handler(args, cfg)
        finally:
            if gc_was_enabled:
                gc.enable()
    except (ResilinkError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"resilink: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
