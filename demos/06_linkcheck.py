"""Classify source URLs against a local scripted server.

Real source links rot over time, so the demo spins up its own HTTP server
with one URL per outcome and points the checker at it with the
base-override flag the test suite uses. Nothing here touches the network.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from resilink import CivilDate, Dataset, Event, GeoPoint
from resilink.linkcheck import LinkChecker, link_report, summary_dict


class DemoHandler(BaseHTTPRequestHandler):
    def _serve(self):
        if self.path == "/slow":
            time.sleep(1.0)
        codes = {"/ok": 200, "/gone": 404, "/members-only": 403, "/slow": 200}
        self.send_response(codes.get(self.path, 404))
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = _serve
    do_HEAD = _serve

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), DemoHandler)
threading.Thread(target=server.serve_forever, daemon=True).start()
port = server.server_address[1]


def event(i, urls, dataset=Dataset.EOR):
    return Event(
        id=f"demo-{i}",
        dataset=dataset,
        date=CivilDate(2022, 3, 7),
        point=GeoPoint(49.0, 36.0),
        source_urls=urls,
    )


events = [
    event(1, ("https://social.example/ok",)),
    event(2, ("https://social.example/gone",)),
    event(3, ("https://social.example/members-only",), Dataset.CH),
    event(4, ("https://social.example/slow",), Dataset.CH),
    event(5, ()),  # an event that never had a link
]

checker = LinkChecker(
    timeout_s=0.4,
    politeness_s=0.05,
    base_override=f"http://127.0.0.1:{port}",
)
rows = link_report(events, concurrency=4, checker=checker)

for row in rows:
    code = row.http_code if row.http_code is not None else "-"
    print(f"{row.status.value:19} {code:>4}  {row.url or '(no url)'}")

print("\nper-dataset summary (both invalidity bases):")
print(json.dumps(summary_dict(events, rows), indent=2))

server.shutdown()
server.server_close()
