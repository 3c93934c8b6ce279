"""Seeded inputs for the benchmark workloads, with the planted truth beside them.

Everything is drawn from one ``numpy`` generator seeded by the workload
seed, so the same seed always yields byte-identical files. The program
under test only ever receives the files written here; ``truth.json`` sits
next to them for the output checks and is never passed to the program.

Event counts are a third of the real run's 9,308 EoR and 1,105 CH events,
so that a run holds several passes (see bench/README.md). They are checked
against a national-size gazetteer (30k populated places, 5k of them with
en/uk/nl/fr labels, 25 ADM1 regions, one country, 20k postal centroids,
uniform over lat 44-52 and lon 22-40).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_PLACES = 30_000
N_LABELLED = 5_000
N_ADM1 = 25
N_POSTAL = 20_000
N_EOR = 3_103
N_CH = 368
COPY_SHARE = 0.40
N_SHELTERS = 1_000
LAT_RANGE = (44.0, 52.0)
LON_RANGE = (22.0, 40.0)
START_DATE = datetime.date(2022, 2, 24)

# Descriptions are 5-40 words drawn from this damage vocabulary. It holds
# the "area" token and facility keywords, so every matching rule can fire.
VOCABULARY = (
    "missile", "strike", "school", "hospital", "residential", "building", "damaged",
    "destroyed", "shelling", "drone", "fire", "bridge", "church", "area",
)
VIOLENCE_LEVELS = ("minor", "moderate", "significant", "severe")
UC2_KEYWORD = "school"

# Events scatter around their city centre. Non-duplicate CH events keep
# more than SEPARATION_KM from every same-day EoR event, which is beyond
# every matching rule's distance limit, so the only Identical pairs are
# the planted ones and the uc2 truth is exact.
EVENT_SIGMA_KM = 2.5
SHELTER_SIGMA_KM = 2.0
SEPARATION_KM = 2.5

COUNTRY_ID = 690_791
COUNTRY_NAME = "Ukraine"

_SYLLABLES = (
    "ka", "ro", "vi", "no", "len", "mar", "pol", "dar", "sta", "bor", "ven", "tri",
    "zha", "myr", "hor", "lu", "sel", "kiv", "dan", "pe", "ly", "ton", "ba", "rud",
    "chu", "mo", "zi", "ne", "gra", "hal",
)
_CYRILLIC = str.maketrans(
    "abcdefghijklmnoprstuvyz", "абцдефгхійклмнопрстувиз"
)


@dataclass(frozen=True)
class Place:
    gid: int
    name: str
    lat: float
    lon: float
    admin1: str
    labels: dict[str, str] = field(default_factory=dict)


@dataclass
class SynthEvent:
    """One generated event and what the program should make of it."""

    id: str  # the native id (EoR) or the id written into enriched CH files
    dataset: str
    date: datetime.date
    lat: float
    lon: float
    description: str
    city: Place  # the true city
    city_string: str  # what the source file says ("" when blank)
    named: bool  # the city string is a gazetteer name of the true city
    urls: list[str]
    violence: str | None = None
    has_country: bool = True

    @property
    def point_key(self) -> str:
        return point_key(self.lat, self.lon)


def point_key(lat: float, lon: float) -> str:
    return f"{lat:.6f},{lon:.6f}"


@dataclass
class World:
    places: list[Place]
    adm1: dict[str, tuple[int, str]]  # admin1 code -> (gid, name)
    postal: list[tuple[str, float, float]]


@dataclass
class Corpus:
    world: World
    cities: list[Place]
    eor: list[SynthEvent]
    ch: list[SynthEvent]
    planted: list[tuple[str, str]]  # (EoR id, CH point key): must end Identical
    decoys: list[tuple[str, str]]  # second copies: must lose the one-to-one resolution


def haversine_km(lat1, lon1, lat2, lon2):
    """Haversine on a 6371 km sphere; numpy-broadcasting, independent of the program."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp, dl = p2 - p1, np.radians(np.asarray(lon2) - np.asarray(lon1))
    h = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * 6371.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))


class _Draw:
    """The one random stream behind a workload's inputs."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def word(self, lo: int, hi: int) -> str:
        n = int(self.rng.integers(lo, hi + 1))
        return "".join(_SYLLABLES[i] for i in self.rng.integers(0, len(_SYLLABLES), n))

    def description(self) -> str:
        n = int(self.rng.integers(5, 41))
        return " ".join(VOCABULARY[i] for i in self.rng.integers(0, len(VOCABULARY), n))

    def near(self, lat: float, lon: float, sigma_km: float) -> tuple[float, float]:
        dy, dx = self.rng.normal(0.0, sigma_km, 2)
        return _offset(lat, lon, dy, dx)


def _offset(lat: float, lon: float, north_km: float, east_km: float) -> tuple[float, float]:
    # Six decimals survive the program's seven-digit RDF rendering exactly.
    return (
        round(float(lat + north_km / 111.195), 6),
        round(float(lon + east_km / (111.195 * math.cos(math.radians(lat)))), 6),
    )


def _admin1_of(lat: float, lon: float) -> str:
    row = min(4, int((lat - LAT_RANGE[0]) / (LAT_RANGE[1] - LAT_RANGE[0]) * 5))
    col = min(4, int((lon - LON_RANGE[0]) / (LON_RANGE[1] - LON_RANGE[0]) * 5))
    return f"{row * 5 + col + 1:02d}"


def make_world(draw: _Draw) -> World:
    """Places with globally unique lowercase names and labels, ADM1 rows, postal centroids."""
    used: set[str] = {COUNTRY_NAME.lower()}
    lats = np.round(draw.rng.uniform(*LAT_RANGE, N_PLACES), 5)
    lons = np.round(draw.rng.uniform(*LON_RANGE, N_PLACES), 5)
    places = []
    for i in range(N_PLACES):
        while True:
            stem = draw.word(2, 4)
            name = stem.capitalize()
            labels = (
                {"en": name, "uk": stem.translate(_CYRILLIC).capitalize(),
                 "nl": name + "sk", "fr": name + "e"}
                if i < N_LABELLED else {}
            )
            keys = {name.lower(), *(v.lower() for v in labels.values())}
            if not keys & used:
                break
        used |= keys
        lat, lon = float(lats[i]), float(lons[i])
        places.append(Place(2_000_000 + i, name, lat, lon, _admin1_of(lat, lon), labels))
    adm1 = {}
    for j in range(N_ADM1):
        while True:
            name = draw.word(2, 3).capitalize() + " Oblast"
            if name.lower() not in used:
                break
        used.add(name.lower())
        adm1[f"{j + 1:02d}"] = (3_000_000 + j, name)
    plats = np.round(draw.rng.uniform(*LAT_RANGE, N_POSTAL), 5)
    plons = np.round(draw.rng.uniform(*LON_RANGE, N_POSTAL), 5)
    postal = [(f"{10_000 + k:05d}", float(plats[k]), float(plons[k])) for k in range(N_POSTAL)]
    return World(places, adm1, postal)


def make_corpus(
    seed: int, n_cities: int, n_days: int, miss_share: float, n_decoys: int, adversarial: bool
) -> Corpus:
    """EoR events, CH near-copies of them drawn without replacement, and other CH events.

    ``miss_share`` of EoR city strings miss the gazetteer (blank or a
    village name), so reverse geocoding runs on them. Copies are taken
    from named EoR events only, so both sides resolve to the same city.
    Decoys are second CH copies of an already copied EoR event, farther
    away than the first copy, so they must lose the one-to-one resolution.
    """
    draw = _Draw(seed)
    world = make_world(draw)
    pick = draw.rng.choice(N_LABELLED, size=n_cities, replace=False)
    cities = [world.places[int(i)] for i in pick]
    seen_desc: set[str] = set()
    seen_points: set[str] = set()

    def unique_description() -> str:
        while True:
            d = draw.description()
            if d not in seen_desc:
                seen_desc.add(d)
                return d

    def claim(lat: float, lon: float) -> bool:
        key = point_key(lat, lon)
        if key in seen_points:
            return False
        seen_points.add(key)
        return True

    def city_and_day() -> tuple[Place, datetime.date]:
        city = cities[int(draw.rng.integers(n_cities))]
        return city, START_DATE + datetime.timedelta(days=int(draw.rng.integers(n_days)))

    eor = []
    for i in range(N_EOR):
        city, date = city_and_day()
        while not claim(*(point := draw.near(city.lat, city.lon, EVENT_SIGMA_KM))):
            pass
        u = draw.rng.random()
        if u < miss_share / 2:
            city_string, named = "", False
        elif u < miss_share:
            city_string, named = "Selo " + draw.word(2, 3).capitalize(), False
        else:
            use_uk = draw.rng.random() < 0.15
            city_string, named = (city.labels["uk"] if use_uk else city.name), True
        eor.append(SynthEvent(
            id=f"eor-{i:05d}", dataset="eor", date=date, lat=point[0], lon=point[1],
            description=unique_description(), city=city, city_string=city_string,
            named=named, urls=[f"https://t.me/region{city.admin1}/{100_000 + i}"],
            violence=VIOLENCE_LEVELS[int(draw.rng.integers(len(VIOLENCE_LEVELS)))],
            has_country=draw.rng.random() >= 0.1,
        ))
    if adversarial:
        # A long near-periodic description; its CH partner comes below.
        eor[0].description = "ab" * 250

    ch: list[SynthEvent] = []
    planted: list[tuple[str, str]] = []
    decoys: list[tuple[str, str]] = []

    def add_ch(date, lat, lon, description, city, city_string, urls) -> str:
        k = len(ch)
        ch.append(SynthEvent(
            id=hashlib.sha256(f"ch|{seed}|{k}".encode()).hexdigest()[:16], dataset="ch",
            date=date, lat=lat, lon=lon, description=description, city=city,
            city_string=city_string, named=True,
            urls=urls + [f"https://twitter.com/ch/status/{500_000 + k}"],
        ))
        return ch[-1].point_key

    def copy_of(src: SynthEvent, distance_km: float) -> str:
        bearing = draw.rng.uniform(0.0, 2.0 * math.pi)
        while not claim(*(point := _offset(src.lat, src.lon, distance_km * math.cos(bearing),
                                           distance_km * math.sin(bearing)))):
            bearing += 0.1
        # Case changes only: similarity() lowercases, so the copy rates 1.0.
        desc = src.description.upper() if len(ch) % 2 else src.description.capitalize()
        return add_ch(src.date, *point, desc, src.city, src.city_string, [src.urls[0]])

    sources = [e for e in eor[int(adversarial):] if e.named]
    n_copies = round(N_CH * COPY_SHARE)
    for n, s in enumerate(draw.rng.choice(len(sources), size=n_copies, replace=False)):
        src = sources[int(s)]
        planted.append((src.id, copy_of(src, float(draw.rng.uniform(0.05, 0.3)))))
        if n < n_decoys:
            decoys.append((src.id, copy_of(src, float(draw.rng.uniform(0.8, 1.5)))))

    eor_by_date: dict[datetime.date, list[SynthEvent]] = {}
    for e in eor:
        eor_by_date.setdefault(e.date, []).append(e)

    def separated(city: Place, date: datetime.date) -> tuple[float, float] | None:
        lat, lon = draw.near(city.lat, city.lon, EVENT_SIGMA_KM)
        same_day = eor_by_date.get(date, [])
        if same_day and np.min(haversine_km(
            lat, lon, np.array([e.lat for e in same_day]), np.array([e.lon for e in same_day])
        )) <= SEPARATION_KM:
            return None
        return (lat, lon) if claim(lat, lon) else None

    if adversarial:
        src = eor[0]
        while (point := separated(src.city, src.date)) is None:
            pass
        add_ch(src.date, *point, "ax" * 250, src.city, src.city.name, [])
    while len(ch) < N_CH:
        city, date = city_and_day()
        point = separated(city, date)
        if point is not None:
            add_ch(date, *point, unique_description(), city, city.name, [])
    return Corpus(world, cities, eor, ch, planted, decoys)


# ---------------------------------------------------------------------------
# Writers


def write_gazetteer(world: World, out: Path) -> dict[str, Path]:
    paths = {"places": out / "places.tsv", "alternate_names": out / "alt_names.tsv",
             "postal_codes": out / "postal.tsv"}
    rows = [f"{COUNTRY_ID}\t{COUNTRY_NAME}\t{COUNTRY_NAME}\t\t49.0\t31.0\tA\tPCLI\tUA\t00"]
    for code, (gid, name) in world.adm1.items():
        rows.append(f"{gid}\t{name}\t{name}\t\t48.0\t31.0\tA\tADM1\tUA\t{code}")
    rows += [
        f"{p.gid}\t{p.name}\t{p.name}\t\t{p.lat}\t{p.lon}\tP\tPPL\tUA\t{p.admin1}"
        for p in world.places
    ]
    paths["places"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    alt = []
    for p in world.places:
        for lang, label in p.labels.items():
            alt.append(f"{len(alt) + 1}\t{p.gid}\t{lang}\t{label}")
    paths["alternate_names"].write_text("\n".join(alt) + "\n", encoding="utf-8")
    paths["postal_codes"].write_text(
        "\n".join(f"UA\t{code}\tP{code}\t{lat}\t{lon}" for code, lat, lon in world.postal) + "\n",
        encoding="utf-8",
    )
    return paths


def write_sources(corpus: Corpus, out: Path) -> tuple[Path, Path]:
    """The raw EoR JSON and CH CSV that `resilink pipeline` ingests."""
    eor_path, ch_path = out / "eor.json", out / "ch.csv"
    records = []
    for e in corpus.eor:
        rec = {
            "id": e.id, "happened": f"{e.date.isoformat()}T00:00:00",
            "latitude": e.lat, "longitude": e.lon, "description": e.description,
            "city": e.city_string, "province": corpus.world.adm1[e.city.admin1][1],
            "url": e.urls[0], "violence_level": e.violence,
        }
        if e.has_country:
            rec["country"] = COUNTRY_NAME
        records.append(rec)
    eor_path.write_text(json.dumps(records, ensure_ascii=False, indent=1), encoding="utf-8")
    with ch_path.open("w", encoding="utf-8", newline="") as fp:
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(("date", "latitude", "longitude", "description", "location", "sources"))
        for e in corpus.ch:
            w.writerow((e.date.isoformat(), e.lat, e.lon, e.description, e.city_string,
                        " ".join(e.urls)))
    return eor_path, ch_path


def write_config(gazetteer: dict[str, Path], out: Path) -> Path:
    cfg = {
        "adapters": {
            "eor": {"id": "id", "date": "happened", "lat": "latitude", "lon": "longitude",
                    "description": "description", "country": "country", "city": "city",
                    "province": "province", "url": "url", "violence_level": "violence_level"},
            "ch": {"date": "date", "lat": "latitude", "lon": "longitude",
                   "description": "description", "city": "location", "url": "sources"},
        },
        "gazetteer": {k: p.name for k, p in gazetteer.items()},
    }
    path = out / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def _enriched_dict(e: SynthEvent, world: World) -> dict:
    """An event as `resilink enrich` would leave it, with the true city resolved."""
    gid, province = world.adm1[e.city.admin1]
    d = {
        "id": e.id, "dataset": e.dataset, "date": e.date.isoformat(),
        "description": e.description, "lat": e.lat, "lon": e.lon,
        "country_geoname_id": COUNTRY_ID, "country_name": COUNTRY_NAME,
        "city_geoname_id": e.city.gid, "city_name": e.city.name,
        "province_geoname_id": gid, "province_name": province,
        "postal_code": f"{10_000 + e.city.gid % N_POSTAL:05d}",
        "source_urls": e.urls,
    }
    if e.violence:
        d["comments"] = [f"violence_level: {e.violence}"]
    d["city_labels"] = dict(sorted(e.city.labels.items()))
    return d


def write_enriched(corpus: Corpus, out: Path) -> tuple[Path, Path]:
    paths = (out / "eor.enriched.json", out / "ch.enriched.json")
    for path, events in zip(paths, (corpus.eor, corpus.ch)):
        docs = [_enriched_dict(e, corpus.world) for e in events]
        path.write_text(json.dumps(docs, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return paths


def write_shelters(corpus: Corpus, seed: int, out: Path) -> Path:
    """1,000 shelters clustered around the event cities."""
    draw = _Draw(seed + 7_919)
    path = out / "shelters.csv"
    with path.open("w", encoding="utf-8", newline="") as fp:
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(("name", "lat", "lon"))
        for k in range(N_SHELTERS):
            city = corpus.cities[k % len(corpus.cities)]
            lat, lon = draw.near(city.lat, city.lon, SHELTER_SIGMA_KM)
            w.writerow((f"shelter {k}", lat, lon))
    return path


def truth_doc(corpus: Corpus) -> dict:
    """What the outputs must show, derived from the generator alone.

    CH rows carry no id column, so CH events are keyed by their point,
    which is unique within a corpus.
    """
    copies = {key for _, key in corpus.planted + corpus.decoys}
    school: dict[str, int] = {}
    for e in corpus.eor + [c for c in corpus.ch if c.point_key not in copies]:
        if UC2_KEYWORD in e.description.lower():
            month = e.date.strftime("%Y-%m")
            school[month] = school.get(month, 0) + 1
    return {
        "planted_pairs": corpus.planted,
        "decoy_pairs": corpus.decoys,
        "eor_city": {e.id: e.city.gid for e in corpus.eor if e.named},
        "ch_city": {e.point_key: e.city.gid for e in corpus.ch if e.named},
        "school_per_month": dict(sorted(school.items())),
    }
