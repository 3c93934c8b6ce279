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
import io
import json
import logging
import math
import os
import secrets
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

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


@dataclass
class OnlineSettings:
    base_url: str
    username: str | None = None
    rate_per_sec: float = 1.0


@dataclass
class PipelineConfig:
    """Everything the stages need, loaded from one JSON document."""

    adapters: dict[Dataset, ingest.AdapterConfig] = field(default_factory=dict)
    gazetteer_places: Path | None = None
    gazetteer_alt_names: Path | None = None
    gazetteer_postal: Path | None = None
    overrides_path: Path | None = None
    match: integration.MatchConfig = field(default_factory=integration.MatchConfig)
    enrichment: gazetteer.EnrichmentConfig = field(default_factory=gazetteer.EnrichmentConfig)
    months: tuple[str, ...] = analytics.DEFAULT_MONTHS
    uc6_radius_km: float = 1.0
    grid_deg: float = 0.005
    online: OnlineSettings | None = None
    linkcheck_timeout_s: float = 10.0
    linkcheck_concurrency: int = 8
    linkcheck_politeness_s: float = 0.2

    @classmethod
    def load(cls, path: str | Path) -> PipelineConfig:
        """Read one config document; every malformed value raises ConfigError."""
        base = Path(path).parent
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _object(raw, "document")

        adapters = {}
        for name, mapping in _object(raw.get("adapters", {}), "adapters").items():
            if not all(isinstance(v, str) for v in _object(mapping, f"adapters.{name}").values()):
                raise ConfigError(f"config adapters.{name} must map fields to source field names")
            try:
                adapters[Dataset(name)] = ingest.AdapterConfig.from_dict(mapping)
            except ValueError as exc:
                raise ConfigError(f"config adapters.{name}: {exc}") from exc

        gaz = _object(raw.get("gazetteer", {}), "gazetteer")
        cfg = cls(
            adapters=adapters,
            gazetteer_places=_resolve_path(gaz.get("places"), base, "gazetteer.places"),
            gazetteer_alt_names=_resolve_path(
                gaz.get("alternate_names"), base, "gazetteer.alternate_names"
            ),
            gazetteer_postal=_resolve_path(
                gaz.get("postal_codes"), base, "gazetteer.postal_codes"
            ),
            overrides_path=_resolve_path(raw.get("overrides"), base, "overrides"),
        )

        match_raw = _object(raw.get("match", {}), "match")
        _strings(match_raw, "keywords", (), "match")
        if not isinstance(match_raw.get("area_token", ""), str):
            raise ConfigError("config match.area_token must be a string")
        try:
            cfg.match = integration.MatchConfig.from_dict(match_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config match: {exc}") from exc

        enrich_raw = _object(raw.get("enrichment", {}), "enrichment")
        default = gazetteer.EnrichmentConfig()
        try:
            cfg.enrichment = gazetteer.EnrichmentConfig(
                languages=_strings(enrich_raw, "languages", default.languages, "enrichment"),
                reverse_max_km=_number(
                    enrich_raw, "reverse_max_km", default.reverse_max_km, "enrichment"
                ),
                postal_max_km=_number(
                    enrich_raw, "postal_max_km", default.postal_max_km, "enrichment"
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"config enrichment: {exc}") from exc

        analytics_raw = _object(raw.get("analytics", {}), "analytics")
        cfg.months = _strings(analytics_raw, "months", analytics.DEFAULT_MONTHS, "analytics")
        try:
            analytics.check_months(cfg.months)
        except ValueError as exc:
            raise ConfigError(f"config analytics.months: {exc}") from exc
        cfg.uc6_radius_km = _positive(analytics_raw, "uc6_radius_km", 1.0, "analytics")
        cfg.grid_deg = _positive(analytics_raw, "grid_deg", 0.005, "analytics")
        if math.isinf(cfg.grid_deg):
            raise ConfigError("config analytics.grid_deg must be finite")

        if raw.get("online") is not None:
            online_raw = _object(raw["online"], "online")
            base_url = online_raw.get("base_url")
            username = online_raw.get("username")
            if not isinstance(base_url, str) or not base_url:
                raise ConfigError("config online.base_url must be a non-empty URL string")
            if username is not None and not isinstance(username, str):
                raise ConfigError("config online.username must be a string")
            cfg.online = OnlineSettings(
                base_url=base_url,
                username=username,
                rate_per_sec=_positive(online_raw, "rate_per_sec", 1.0, "online"),
            )

        lc = _object(raw.get("linkcheck", {}), "linkcheck")
        cfg.linkcheck_timeout_s = _positive(lc, "timeout_s", 10.0, "linkcheck")
        concurrency = _number(lc, "concurrency", 8, "linkcheck")
        if not (concurrency >= 1 and concurrency.is_integer()):
            raise ConfigError(f"config linkcheck.concurrency must be a count >= 1: {concurrency}")
        cfg.linkcheck_concurrency = int(concurrency)
        cfg.linkcheck_politeness_s = _number(lc, "politeness_s", 0.2, "linkcheck")
        if not cfg.linkcheck_politeness_s >= 0:
            raise ConfigError("config linkcheck.politeness_s must not be negative")
        return cfg

    def load_index(self) -> gazetteer.GazetteerIndex:
        for name, p in (
            ("places", self.gazetteer_places),
            ("alternate_names", self.gazetteer_alt_names),
            ("postal_codes", self.gazetteer_postal),
        ):
            if p is None:
                raise ConfigError(f"config is missing gazetteer.{name}")
        return gazetteer.load_gazetteer(
            self.gazetteer_places, self.gazetteer_alt_names, self.gazetteer_postal
        )

    def load_overrides(self) -> gazetteer.OverrideTable:
        if self.overrides_path is None:
            return gazetteer.EMPTY_OVERRIDES
        return gazetteer.OverrideTable.from_json(self.overrides_path.read_text(encoding="utf-8"))


def _object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config {label} must be a JSON object")
    return value


def _strings(section: dict, key: str, default: tuple[str, ...], label: str) -> tuple[str, ...]:
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"config {label}.{key} must be a list of strings")
    return tuple(value)


def _number(section: dict, key: str, default: float, label: str) -> float:
    value = section.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config {label}.{key} must be a number: {value!r}") from None


def _positive(section: dict, key: str, default: float, label: str) -> float:
    value = _number(section, key, default, label)
    if not value > 0:  # also false for NaN
        raise ConfigError(f"config {label}.{key} must be positive: {value!r}")
    return value


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


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # created as open() would create it, so the umask sets the mode (mkstemp forces 0600)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _read_events(path: str) -> list[Event]:
    return events_from_json(Path(path).read_bytes())


def _write_events(path: str | Path, events) -> None:
    _atomic_write_text(Path(path), events_to_json(events) + "\n")


# ---------------------------------------------------------------------------
# Stage implementations

def _ingest(path: str | Path, dataset: Dataset, fmt: str, cfg: PipelineConfig) -> list[Event]:
    """Parse and normalize one source file; rejected records are only logged."""
    if dataset not in cfg.adapters:
        raise ConfigError(f"config has no adapter for dataset {dataset.value!r}")
    data = Path(path).read_bytes()
    records = ingest.parse_dataset(
        data, dataset, ingest.SourceFormat(fmt), cfg.adapters[dataset]
    )
    events, rejected = ingest.normalize_records(records, cfg.adapters[dataset])
    for err in rejected:
        log.warning("rejected %s", err)
    log.info("ingest %s: %d events, %d rejected", dataset.value, len(events), len(rejected))
    return events


def _cmd_ingest(args, cfg: PipelineConfig) -> int:
    _write_events(args.out, _ingest(args.input, Dataset(args.dataset), args.format, cfg))
    return 0


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


def _cmd_enrich(args, cfg: PipelineConfig) -> int:
    events = _read_events(args.input)
    enriched = _enrich(events, cfg.load_index(), cfg.load_overrides(), cfg, args.offline)
    _write_events(args.out, enriched)
    return 0


def _cmd_convert(args, cfg: PipelineConfig) -> int:
    events = _read_events(args.input)
    triples = []
    for ev in events:
        triples.extend(rdf.emit_event_triples(ev))
    _atomic_write_bytes(Path(args.out), rdf.serialize_bytes(triples, rdf.RdfFormat(args.rdf_format)))
    return 0


def _integrate(a_events: list[Event], b_events: list[Event], cfg: PipelineConfig,
               out, pairs, counts, fmt: rdf.RdfFormat) -> None:
    """Match the two datasets and write the integrated RDF plus optional reports."""
    result = integration.integrate(a_events, b_events, cfg.match)
    c = result.counts
    log.info(
        "integrate: |A|=%d |B|=%d identical=%d near-distinct=%d integrated=%d",
        c.a, c.b, c.identical, c.near_distinct, c.integrated,
    )
    triples = []
    for ev in a_events + b_events:
        triples.extend(rdf.emit_event_triples(ev))
    for agg in result.aggregates:
        triples.extend(rdf.emit_aggregate_triples(agg))
    _atomic_write_bytes(Path(out), rdf.serialize_bytes(triples, fmt))
    if pairs:
        buf = io.StringIO()
        integration.write_pair_report(result.pairs, buf)
        _atomic_write_text(Path(pairs), buf.getvalue())
    if counts:
        counts_doc = {
            "a": c.a, "b": c.b, "identical": c.identical,
            "near_distinct": c.near_distinct, "integrated": c.integrated,
        }
        _atomic_write_text(Path(counts), json.dumps(counts_doc, indent=2) + "\n")


def _cmd_integrate(args, cfg: PipelineConfig) -> int:
    _integrate(
        _read_events(args.eor), _read_events(args.ch), cfg,
        args.out, args.pairs, args.counts, rdf.RdfFormat(args.rdf_format),
    )
    return 0


def _load_dataset(path: str) -> analytics.IntegratedDataset:
    # decoded here, so that the file's bytes are freed before the load
    return analytics.IntegratedDataset.from_ntriples(Path(path).read_bytes().decode("utf-8"))


def _cmd_report(args, cfg: PipelineConfig) -> int:
    ds = _load_dataset(args.input)
    uc = args.use_case
    if uc == "uc1":
        city = GazetteerRef(args.city_geoname_id) if args.city_geoname_id is not None else None
        start, end = parse_civil_date(args.start), parse_civil_date(args.end)
        points = analytics.uc1_event_points(ds, city, start, end)
        if args.out_nt:
            triples = analytics.uc1_wkt_triples(ds, city, start, end)
            _atomic_write_bytes(Path(args.out_nt), rdf.serialize_bytes(triples))
        if args.out_geojson:
            doc = analytics.points_feature_collection(points)
            _atomic_write_text(Path(args.out_geojson), json.dumps(doc, indent=2) + "\n")
    elif uc == "uc2":
        months = args.months.split(",") if args.months else list(cfg.months)
        buckets = analytics.uc2_monthly_keyword_series(ds, args.keyword, months)
        buf = io.StringIO()
        analytics.write_month_csv(buckets, buf)
        _atomic_write_text(Path(args.out), buf.getvalue())
    elif uc == "uc3":
        langs = args.langs.split(",")
        rows = analytics.uc3_multilingual_city_report(ds, langs, args.top)
        buf = io.StringIO()
        analytics.write_city_names_csv(rows, langs, buf)
        _atomic_write_text(Path(args.out), buf.getvalue())
    elif uc == "uc4":
        buf = io.StringIO()
        if args.months:
            timeline = analytics.uc4_monthly_timeline(ds, args.months.split(","), args.top)
            analytics.write_region_timeline_csv(timeline, buf)
        else:
            start, end = parse_civil_date(args.start), parse_civil_date(args.end)
            rows = analytics.uc4_top_regions(ds, start, end, args.top)
            analytics.write_region_csv(rows, buf)
        _atomic_write_text(Path(args.out), buf.getvalue())
    elif uc == "uc5":
        months = args.months.split(",") if args.months else list(cfg.months)
        attacks = analytics.monthly_event_counts(ds, months)
        with open(args.deaths, encoding="utf-8") as fp:
            deaths = analytics.read_deaths_csv(fp)
        rows = analytics.uc5_ratio_series(attacks, deaths)
        buf = io.StringIO()
        analytics.write_ratio_csv(rows, buf)
        _atomic_write_text(Path(args.out), buf.getvalue())
    elif uc == "uc6":
        with open(args.shelters, encoding="utf-8") as fp:
            shelters = analytics.load_shelters(fp)
        radius_km = cfg.uc6_radius_km if args.radius_km is None else args.radius_km
        collection, grid = analytics.uc6_shelter_gap(
            ds, shelters, radius_km=radius_km, grid_deg=cfg.grid_deg
        )
        if args.out_geojson:
            _atomic_write_text(Path(args.out_geojson), json.dumps(collection, indent=2) + "\n")
        if args.out:
            buf = io.StringIO()
            analytics.write_grid_csv(grid, buf)
            _atomic_write_text(Path(args.out), buf.getvalue())
    else:  # unreachable through argparse
        raise ConfigError(f"unknown use case {uc!r}")
    return 0


def _cmd_linkcheck(args, cfg: PipelineConfig) -> int:
    from . import linkcheck  # imports requests: only this command pays for it

    events = []
    for path in args.input:
        events.extend(_read_events(path))
    checker = linkcheck.LinkChecker(
        timeout_s=args.timeout if args.timeout is not None else cfg.linkcheck_timeout_s,
        politeness_s=cfg.linkcheck_politeness_s,
        base_override=args.base_override,
    )
    report = linkcheck.link_report(
        events,
        concurrency=cfg.linkcheck_concurrency if args.concurrency is None else args.concurrency,
        checker=checker,
    )
    if args.out_csv:
        buf = io.StringIO()
        linkcheck.write_link_csv(report, buf)
        _atomic_write_text(Path(args.out_csv), buf.getvalue())
    if args.out_json:
        _atomic_write_text(
            Path(args.out_json), json.dumps(linkcheck.summary_dict(report), indent=2) + "\n"
        )
    return 0


def _cmd_pipeline(args, cfg: PipelineConfig) -> int:
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
    return 0


# ---------------------------------------------------------------------------
# Argument grammar

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilink",
        description="Damage-event linked-data pipeline: ingest, enrich, convert, integrate, report.",
    )
    parser.add_argument("--offline", action="store_true",
                        help="forbid all network use (linkcheck refuses to run)")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a source file into canonical event JSON")
    p.add_argument("--dataset", required=True, choices=[d.value for d in Dataset])
    p.add_argument("--format", required=True, choices=[f.value for f in ingest.SourceFormat])
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("enrich", help="resolve places, postal codes and labels")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("convert", help="emit event triples as N-Triples or Turtle")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=False)
    p.add_argument("--out", required=True)
    p.add_argument("--rdf-format", default="ntriples", choices=["ntriples", "turtle"])

    p = sub.add_parser("integrate", help="detect cross-dataset duplicates and mint aggregates")
    p.add_argument("--eor", required=True, help="enriched EoR event JSON")
    p.add_argument("--ch", required=True, help="enriched CH event JSON")
    p.add_argument("--config", required=False)
    p.add_argument("--out", required=True, help="integrated dataset (.nt/.ttl)")
    p.add_argument("--pairs", help="pair report CSV")
    p.add_argument("--counts", help="counts summary JSON")
    p.add_argument("--rdf-format", default="ntriples", choices=["ntriples", "turtle"])

    p = sub.add_parser("report", help="run one use-case report over an integrated dataset")
    p.add_argument("use_case", choices=["uc1", "uc2", "uc3", "uc4", "uc5", "uc6"])
    p.add_argument("--input", required=True, help="integrated dataset .nt")
    p.add_argument("--config", required=False)
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--months", help="comma-separated YYYY-MM list")
    p.add_argument("--keyword")
    p.add_argument("--langs", default="en,uk,nl,fr")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--city-geoname-id", type=int)
    p.add_argument("--deaths", help="external month,deaths CSV (uc5)")
    p.add_argument("--shelters", help="shelter name,lat,lon CSV (uc6)")
    p.add_argument("--radius-km", type=float)
    p.add_argument("--out")
    p.add_argument("--out-nt")
    p.add_argument("--out-geojson")

    p = sub.add_parser("linkcheck", help="validate source URLs against the live web or a mock")
    p.add_argument("--input", required=True, action="append",
                   help="canonical event JSON (repeatable)")
    p.add_argument("--config", required=False)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.add_argument("--concurrency", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--base-override", help="redirect all traffic to this base URL (testing)")

    p = sub.add_parser("pipeline", help="ingest + enrich + integrate in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--eor-input", required=True)
    p.add_argument("--eor-format", default="json", choices=["json", "csv"])
    p.add_argument("--ch-input", required=True)
    p.add_argument("--ch-format", default="json", choices=["json", "csv"])
    p.add_argument("--outdir", required=True)

    return parser


_REQUIRED_REPORT_ARGS = {
    "uc1": ("start", "end"),
    "uc2": ("keyword", "out"),
    "uc3": ("out",),
    "uc4": ("out",),
    "uc5": ("deaths", "out"),
    "uc6": ("shelters",),
}


def run_subcommand(argv: list[str]) -> int:
    """Execute exactly one pipeline stage; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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

    if args.command == "report":
        missing = [
            f"--{name.replace('_', '-')}"
            for name in _REQUIRED_REPORT_ARGS[args.use_case]
            if getattr(args, name) in (None, "")
        ]
        if args.use_case == "uc1" and not args.out_nt and not args.out_geojson:
            missing.append("--out-nt or --out-geojson")
        if args.use_case == "uc4" and not args.months and not (args.start and args.end):
            missing.append("--months or --start/--end")
        if args.use_case == "uc6" and not args.out and not args.out_geojson:
            missing.append("--out or --out-geojson")
        if missing:
            print(
                f"resilink report {args.use_case}: missing {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2

    try:
        cfg = PipelineConfig.load(args.config) if getattr(args, "config", None) else PipelineConfig()
        handler = {
            "ingest": _cmd_ingest,
            "enrich": _cmd_enrich,
            "convert": _cmd_convert,
            "integrate": _cmd_integrate,
            "report": _cmd_report,
            "linkcheck": _cmd_linkcheck,
            "pipeline": _cmd_pipeline,
        }[args.command]
        return handler(args, cfg)
    except (ResilinkError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"resilink: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
