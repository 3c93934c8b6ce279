"""Online gazetteer client speaking the GeoNames JSON web-service protocol.

The client is the one stateful component in the enrichment path: all
requests funnel through a shared rate limiter, each request times out
after TIMEOUT_S seconds, and transient failures (5xx, timeouts) are
retried up to MAX_ATTEMPTS attempts in all; both are constants. Results
map onto the same entry types the offline index uses, so online and
offline providers are interchangeable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import requests

from .gazetteer import GazetteerEntry, PostalCodeEntry
from .linkcheck import RateLimiter
from .model import GeoPoint, ResilinkError

TIMEOUT_S = 10.0
MAX_ATTEMPTS = 3


class GeoNamesError(ResilinkError):
    pass


class RateLimitedError(GeoNamesError):
    """The service reported request throttling (HTTP 429)."""


class GeoNamesNetworkError(GeoNamesError):
    pass


class ServiceError(GeoNamesError):
    def __init__(self, status: int):
        self.status = status
        super().__init__(f"service error: HTTP {status}")


@contextmanager
def _parsing_reply(path: str):
    """Turn a missing or unparsable field of a reply into a GeoNamesError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GeoNamesError(f"malformed reply from {path}: {exc!r}") from exc


@dataclass
class GeoNamesClient:
    """Client for findNearbyPlaceNameJSON / findNearbyPostalCodesJSON."""

    base_url: str
    username: str
    rate_per_sec: float = 1.0

    def __post_init__(self):
        if not self.rate_per_sec > 0:
            raise ValueError("rate must be positive")
        self.base_url = self.base_url.rstrip("/")
        self._limiter = RateLimiter(1.0 / self.rate_per_sec)
        self._session = requests.Session()

    def _request(self, path: str, params: dict) -> dict:
        last_status = None
        for _ in range(MAX_ATTEMPTS):
            self._limiter.wait()
            try:
                resp = self._session.get(
                    f"{self.base_url}/{path}",
                    params={**params, "username": self.username},
                    timeout=TIMEOUT_S,
                )
            except requests.Timeout:
                last_status = None
                continue
            except requests.RequestException as exc:
                raise GeoNamesNetworkError(str(exc)) from exc
            if resp.status_code == 429:
                raise RateLimitedError("throttled by service")
            if resp.status_code >= 500:
                last_status = resp.status_code
                continue
            if resp.status_code != 200:
                raise ServiceError(resp.status_code)
            with _parsing_reply(path):
                payload = resp.json()
            if not isinstance(payload, dict):
                raise GeoNamesError(f"malformed reply from {path}: not a JSON object")
            return payload
        if last_status is None:
            raise GeoNamesNetworkError("timed out after retries")
        raise ServiceError(last_status)

    @staticmethod
    def _entry_from_payload(obj: dict) -> GazetteerEntry:
        alternates = tuple(
            (alt.get("lang", ""), alt["name"])
            for alt in obj.get("alternateNames", ())
            if alt.get("name")
        )
        return GazetteerEntry(
            geoname_id=int(obj["geonameId"]),
            name=obj.get("name", ""),
            ascii_name=obj.get("asciiName", obj.get("toponymName", "")),
            alternate_names=alternates,
            point=GeoPoint(float(obj["lat"]), float(obj["lng"])),
            feature_class=obj.get("fcl", ""),
            feature_code=obj.get("fcode", ""),
            country_code=obj.get("countryCode", ""),
            admin1_code=obj.get("adminCode1", ""),
        )

    def _first_hit(self, path: str, lat: float, lng: float, key: str) -> dict | None:
        hits = self._request(path, {"lat": lat, "lng": lng}).get(key, [])
        if not isinstance(hits, list) or not all(isinstance(hit, dict) for hit in hits):
            raise GeoNamesError(f"malformed reply from {path}: {key!r} is not a list of objects")
        return hits[0] if hits else None

    def find_nearby_place(self, lat: float, lng: float) -> GazetteerEntry | None:
        path = "findNearbyPlaceNameJSON"
        obj = self._first_hit(path, lat, lng, "geonames")
        with _parsing_reply(path):
            return None if obj is None else self._entry_from_payload(obj)

    def find_nearby_postal(self, lat: float, lng: float) -> PostalCodeEntry | None:
        path = "findNearbyPostalCodesJSON"
        obj = self._first_hit(path, lat, lng, "postalCodes")
        if obj is None:
            return None
        with _parsing_reply(path):
            return PostalCodeEntry(
                country_code=obj.get("countryCode", ""),
                postal_code=str(obj["postalCode"]),
                place_name=obj.get("placeName", ""),
                point=GeoPoint(float(obj["lat"]), float(obj["lng"])),
            )
