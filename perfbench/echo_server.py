"""A fixed-answer HTTP server: the serve-http workload's host probe.

It answers every GET with the same small JSON body, through the same
stdlib server classes and socket settings as ``repro.serving``, so its
latency and throughput move with the host's scheduling and socket
costs but never with the program.  Run as a script; it prints its
address the way ``repro.cli serve`` does and serves until killed::

    python3 perfbench/echo_server.py
"""

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = (b'{"endpoint": "refine", "found": true, "keyword": "probe", '
        b'"suggestions": [["alpha", 0.5], ["beta", 0.4]]}\n') * 3


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args) -> None:
        """Stay quiet."""

    def do_GET(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)


class _Server(ThreadingHTTPServer):
    daemon_threads = True


def main() -> None:
    server = _Server(("127.0.0.1", 0), _Handler)
    print(f"serving probe at http://127.0.0.1:{server.server_address[1]}",
          flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
