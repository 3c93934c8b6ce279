"""Online gazetteer client speaking the GeoNames JSON web-service protocol.

The client is the one stateful component in the enrichment path: every
call goes through a shared rate limiter and linkcheck's one HTTP path,
each request times out after TIMEOUT_S seconds, transient failures
(5xx, timeouts) are retried up to MAX_ATTEMPTS attempts in all, and a
reply longer than MAX_REPLY_BYTES is an error; all three are constants.
Results map onto the same entry types the offline index uses, so online
and offline providers are interchangeable.
"""

from __future__ import annotations

import http.client
from contextlib import contextmanager
from dataclasses import dataclass
from urllib.parse import urlencode

from .gazetteer import GazetteerEntry, PostalCodeEntry
from .linkcheck import RateLimiter, http_response
from .model import GeoPoint, ResilinkError, json_document

TIMEOUT_S = 10.0
MAX_ATTEMPTS = 3
MAX_REPLY_BYTES = 1 << 20  # a reply holds one entry or a few; no more of a body is read


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
    except (AttributeError, KeyError, TypeError, ValueError, ResilinkError) as exc:
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

    def _request(self, path: str, params: dict) -> dict:
        url = f"{self.base_url}/{path}?{urlencode({**params, 'username': self.username})}"
        last_status = None
        for _ in range(MAX_ATTEMPTS):
            self._limiter.wait()
            try:
                with http_response("GET", url, TIMEOUT_S) as resp:
                    status, body = resp.status, resp.read(MAX_REPLY_BYTES + 1)
            except TimeoutError:
                last_status = None
                continue
            except (OSError, http.client.HTTPException) as exc:
                raise GeoNamesNetworkError(str(exc)) from exc
            if len(body) > MAX_REPLY_BYTES:
                raise GeoNamesError(f"reply from {path} is longer than {MAX_REPLY_BYTES} bytes")
            if status == 429:
                raise RateLimitedError("throttled by service")
            if status >= 500:
                last_status = status
                continue
            if status != 200:
                raise ServiceError(status)
            with _parsing_reply(path):
                return json_document(body, "reply", dict)
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
