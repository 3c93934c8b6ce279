from __future__ import annotations

import time

import pytest

from resilink.geonames_api import (
    MAX_REPLY_BYTES,
    GeoNamesClient,
    GeoNamesError,
    GeoNamesNetworkError,
    RateLimitedError,
    RateLimiter,
    ServiceError,
)
from resilink.gazetteer import postal_code_for, reverse_geocode
from resilink.model import GeoPoint
from tests.httpmock import GeoNamesHandler, start_server, stop_server


@pytest.fixture()
def server(gaz_index):
    srv = start_server(GeoNamesHandler, index=gaz_index)
    yield srv
    stop_server(srv)


def _client(server, **kwargs) -> GeoNamesClient:
    kwargs.setdefault("rate_per_sec", 1000.0)
    return GeoNamesClient(
        base_url=f"http://127.0.0.1:{server.server_address[1]}",
        username="demo",
        **kwargs,
    )


class TestRequests:
    def test_find_nearby_place(self, server):
        entry = _client(server).find_nearby_place(49.2128, 37.2573)
        assert entry.geoname_id == 689558
        assert entry.name == "Izyum"
        assert ("uk", "Ізюм") in entry.alternate_names

    def test_find_nearby_postal(self, server):
        postal = _client(server).find_nearby_postal(49.2128, 37.2573)
        assert postal.postal_code == "64305"

    def test_username_sent(self, server):
        _client(server).find_nearby_place(49.0, 36.0)
        path, params = server.request_log[-1]
        assert params["username"] == "demo"

    def test_503_thrice_raises_service_error(self, server):
        server.scripted_status.extend([503, 503, 503])
        with pytest.raises(ServiceError) as exc:
            _client(server).find_nearby_place(49.0, 36.0)
        assert exc.value.status == 503

    def test_5xx_then_success_is_retried(self, server):
        server.scripted_status.extend([500])
        entry = _client(server).find_nearby_place(49.2128, 37.2573)
        assert entry.geoname_id == 689558

    def test_429_raises_rate_limited(self, server):
        server.scripted_status.extend([429])
        with pytest.raises(RateLimitedError):
            _client(server).find_nearby_place(49.0, 36.0)

    def test_connection_refused(self):
        client = GeoNamesClient(base_url="http://127.0.0.1:1", username="demo", rate_per_sec=1000.0)
        with pytest.raises(GeoNamesNetworkError):
            client.find_nearby_place(49.0, 36.0)


# Each once escaped the client as a KeyError, AttributeError or bare ValueError.
MALFORMED_REPLIES = [
    pytest.param("place", b'{"geonames": [{"name": "x"}]}', id="place-without-geonameId"),
    pytest.param("place", b"[1, 2]", id="not-an-object"),
    pytest.param("place", b'{"geonames": {"x": 1}}', id="hits-not-a-list"),
    pytest.param("place", b'{"geonames": [1]}', id="hit-not-an-object"),
    pytest.param("place", b'{"geonames": [{"geonameId": "x", "lat": "1", "lng": "2"}]}',
                 id="geonameId-not-a-number"),
    pytest.param("place", b'{"geonames": [{"geonameId": 1, "lat": "1", "lng": "2",'
                          b' "alternateNames": [3]}]}', id="alternate-name-not-an-object"),
    pytest.param("place", b"not json", id="not-json"),
    pytest.param("postal", b'{"postalCodes": [{"lat": 1}]}', id="postal-without-postalCode"),
    pytest.param("postal", b'{"postalCodes": [{"postalCode": "1", "lat": null, "lng": 2}]}',
                 id="lat-null"),
    pytest.param("place", b'{"geonames": [{"geonameId": 1}]}', id="entry-without-coordinates"),
    # the first once escaped as a RecursionError, the second as an OutOfRangeError naming no service
    pytest.param("place", b"[" * 100_000 + b"]" * 100_000, id="nested-too-deeply"),
    pytest.param("place", b'{"geonames": [{"geonameId": 1, "lat": "91", "lng": "2"}]}',
                 id="lat-out-of-range"),
    # read by model.decode_utf8, whose error is not a ValueError
    pytest.param("place", b'{"geonames": "\xff"}', id="invalid-utf8"),
]


class TestMalformedReplies:
    @pytest.mark.parametrize("call,body", MALFORMED_REPLIES)
    def test_malformed_reply_is_a_geonames_error(self, server, call, body):
        server.scripted_bodies.append(body)
        client = _client(server)
        with pytest.raises(GeoNamesError, match="malformed reply"):
            {
                "place": lambda: client.find_nearby_place(49.0, 36.0),
                "postal": lambda: client.find_nearby_postal(49.0, 36.0),
            }[call]()

    def test_reply_longer_than_the_cap_is_a_geonames_error(self, server):
        empty = b'{"geonames": []}'
        server.scripted_bodies.extend([empty.ljust(MAX_REPLY_BYTES), empty.ljust(MAX_REPLY_BYTES + 1)])
        client = _client(server)
        assert client.find_nearby_place(49.0, 36.0) is None  # a reply of the cap's length is read
        with pytest.raises(GeoNamesError, match=f"reply from findNearbyPlaceNameJSON is longer "
                                                f"than {MAX_REPLY_BYTES} bytes"):
            client.find_nearby_place(49.0, 36.0)
        assert len(server.request_log) == 2  # not retried

    def test_empty_hit_list_is_no_match(self, server):
        server.scripted_bodies.extend([b'{"geonames": []}', b"{}"])
        client = _client(server)
        assert client.find_nearby_place(49.0, 36.0) is None
        assert client.find_nearby_postal(49.0, 36.0) is None


class TestRateLimiter:
    def test_spacing_enforced(self):
        limiter = RateLimiter(0.02)  # 20 ms interval
        t0 = time.monotonic()
        for _ in range(4):
            limiter.wait()
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.055  # 3 intervals between 4 calls

    def test_client_honours_rate(self, server):
        client = _client(server, rate_per_sec=20.0)  # 50 ms interval
        t0 = time.monotonic()
        client.find_nearby_place(49.0, 36.0)
        client.find_nearby_place(49.0, 36.0)
        assert time.monotonic() - t0 >= 0.05


class TestOfflineOnlineEquivalence:
    """Seeded from the same files, both providers must agree."""

    def test_reverse_geocode_matches(self, server, gaz_index):
        client = _client(server)
        for point in (GeoPoint(49.2128, 37.2573), GeoPoint(49.99, 36.23), GeoPoint(46.64, 32.62)):
            offline = reverse_geocode(gaz_index, point, max_km=30.0)
            online = client.find_nearby_place(point.latitude, point.longitude)
            assert online.geoname_id == offline.geoname_id

    def test_postal_matches(self, server, gaz_index):
        client = _client(server)
        for point in (GeoPoint(49.2128, 37.2573), GeoPoint(50.4501, 30.5234)):
            offline = postal_code_for(gaz_index, point, max_km=30.0)
            online = client.find_nearby_postal(point.latitude, point.longitude)
            assert online.postal_code == offline

    def test_entry_fields_match(self, server, gaz_index):
        offline = gaz_index.entry(689558)  # Izyum, a place with labels in several languages
        online = _client(server).find_nearby_place(offline.point.latitude, offline.point.longitude)
        assert online.geoname_id == offline.geoname_id
        assert online.name == offline.name
        assert online.country_code == offline.country_code
        assert online.admin1_code == offline.admin1_code
        # language-tagged labels survive; untagged comma-joined aliases are not served
        assert set(l for l in online.alternate_names) == set(
            (lang, name) for lang, name in offline.alternate_names if lang
        )
