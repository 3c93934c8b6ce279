"""Tiny scripted HTTP servers for linkcheck and online-gazetteer tests."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit


class ScriptedHandler(BaseHTTPRequestHandler):
    """Behaviour is keyed on the request path.

    /ok            -> 200
    /gone          -> 404
    /deleted       -> 410
    /forbidden     -> 403
    /login         -> 401
    /oops          -> 500
    /slow          -> sleeps past any sane timeout, then 200
    /redirect      -> 302 to /ok
    /loop          -> 302 to itself
    /post-only     -> 405 on HEAD, 200 on GET
    """

    server_version = "scripted/0.1"

    def _respond(self, code: int, body: bytes = b"", headers: dict | None = None):
        self.send_response(code)
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD" and body:
            self.wfile.write(body)

    def _serve(self):
        path = urlsplit(self.path).path
        self.server.request_log.append((self.command, path))
        self.server.request_targets.append(self.path)  # as sent, query and escapes included
        if path == "/slow":
            time.sleep(self.server.slow_delay_s)
            self._respond(200)
        elif path.startswith("/ok"):
            self._respond(200, b"ok")
        elif path == "/gone":
            self._respond(404)
        elif path == "/deleted":
            self._respond(410)
        elif path == "/forbidden":
            self._respond(403)
        elif path == "/login":
            self._respond(401)
        elif path == "/oops":
            self._respond(500)
        elif path == "/redirect":
            self._respond(302, headers={"Location": "/ok"})
        elif path == "/loop":
            self._respond(302, headers={"Location": "/loop"})
        elif path == "/post-only":
            if self.command == "HEAD":
                self._respond(405)
            else:
                self._respond(200, b"ok")
        else:
            self._respond(404)

    do_GET = _serve
    do_HEAD = _serve

    def log_message(self, *args):  # keep test output quiet
        pass


class GeoNamesHandler(BaseHTTPRequestHandler):
    """Serves GeoNames-style JSON from an offline GazetteerIndex."""

    def do_GET(self):
        parts = urlsplit(self.path)
        params = {k: v[0] for k, v in parse_qs(parts.query).items()}
        self.server.request_log.append((parts.path, params))

        scripted = self.server.scripted_status
        if scripted:
            self.send_response(scripted.pop(0))
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.server.scripted_bodies:
            self._send_body(self.server.scripted_bodies.pop(0))
            return

        index = self.server.index
        from tests.oracles import scalar_haversine_km

        def entry_payload(e):
            return {
                "geonameId": e.geoname_id,
                "name": e.name,
                "asciiName": e.ascii_name,
                "lat": str(e.point.latitude),
                "lng": str(e.point.longitude),
                "fcl": e.feature_class,
                "fcode": e.feature_code,
                "countryCode": e.country_code,
                "adminCode1": e.admin1_code,
                "alternateNames": [
                    {"lang": lang, "name": name} for lang, name in e.alternate_names if lang
                ],
            }

        if parts.path == "/findNearbyPlaceNameJSON":
            lat, lng = float(params["lat"]), float(params["lng"])
            places = index.place_entries
            best = min(
                places,
                key=lambda e: scalar_haversine_km(lat, lng, e.point.latitude, e.point.longitude),
                default=None,
            )
            doc = {"geonames": [entry_payload(best)] if best else []}
        elif parts.path == "/findNearbyPostalCodesJSON":
            lat, lng = float(params["lat"]), float(params["lng"])
            entries = index.postal_entries
            best = min(
                entries,
                key=lambda p: scalar_haversine_km(lat, lng, p.point.latitude, p.point.longitude),
                default=None,
            )
            doc = {
                "postalCodes": [
                    {
                        "countryCode": best.country_code,
                        "postalCode": best.postal_code,
                        "placeName": best.place_name,
                        "lat": str(best.point.latitude),
                        "lng": str(best.point.longitude),
                    }
                ]
                if best
                else []
            }
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return

        self._send_body(json.dumps(doc).encode("utf-8"))

    def _send_body(self, body: bytes):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def start_server(handler_cls, **attrs) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    server.request_log = []
    server.request_targets = []
    server.slow_delay_s = 1.5
    server.scripted_status = []
    server.scripted_bodies = []  # GeoNamesHandler replies 200 with these first
    for k, v in attrs.items():
        setattr(server, k, v)
    # shutdown() waits for serve_forever to wake up, which it does every poll_interval
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server._thread = thread
    return server


def stop_server(server: ThreadingHTTPServer) -> None:
    server.shutdown()
    server.server_close()
