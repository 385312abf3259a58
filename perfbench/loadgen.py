"""Arrival-stamped socket load generator on the program's public framing.

One thread drives every connection through a selector: it sends each
request when it is due and stamps each response the moment its bytes are
read, whichever connection it arrives on.  Collecting responses in
submission order (``NetClient.result``) would add head-of-line wait that
belongs to the client, not the server; this generator never waits on one
response while another has arrived.

Frames are built with :func:`repro.service.net.encode_frame` and parsed
with :class:`repro.service.net.FrameDecoder`, the server's own codec.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

import common  # noqa: F401  (puts src/ on sys.path)
from repro.service.net import FrameDecoder, FrameError, encode_frame


@dataclass
class Record:
    """One request's life on the client side (perf_counter seconds)."""

    rid: str
    doc: Dict[str, Any]
    due: float
    sent: float = 0.0
    arrived: float = 0.0
    response: Optional[Dict[str, Any]] = None
    #: Traced requests also get their response frame measured.
    traced: bool = False
    frame_bytes: int = 0

    @property
    def latency(self) -> float:
        """Due-to-arrival time: a stalled sender delays later requests too."""
        return self.arrived - self.due

    @property
    def front(self) -> float:
        """Client round trip minus the server's queue and service time:
        framing, JSON, the front end's executor hop and the socket."""
        assert self.response is not None
        return (self.arrived - self.sent) - self.response["queued_s"] - self.response["service_s"]


class LoadGen:
    """Single-threaded multiplexing client over ``connections`` sockets.

    With ``trace`` every second request is traced, so traced and untraced
    requests share the same conditions and their latency difference is
    the cost of tracing.
    """

    def __init__(self, port: int, connections: int, trace: bool = False):
        self.trace = trace
        self.socks = [
            socket.create_connection(("127.0.0.1", port), timeout=30.0)
            for _ in range(connections)
        ]
        self.decoders = [FrameDecoder() for _ in self.socks]
        self.sel = selectors.DefaultSelector()
        for i, sock in enumerate(self.socks):
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sel.register(sock, selectors.EVENT_READ, i)
        self.records: Dict[str, Record] = {}
        self.outstanding = 0
        self.frame_errors = 0
        self._seq = 0
        self._rr = 0

    def close(self) -> None:
        self.sel.close()
        for sock in self.socks:
            sock.close()

    def send(self, doc: Dict[str, Any], phase: str, due: float) -> Record:
        self._seq += 1
        rid = f"{phase}{self._seq}"
        doc = dict(doc, request_id=rid)
        rec = Record(rid, doc, due, traced=self.trace and self._seq % 2 == 1)
        self.records[rid] = rec
        sock = self.socks[self._rr]
        self._rr = (self._rr + 1) % len(self.socks)
        frame = encode_frame(doc)
        rec.sent = time.perf_counter()
        sock.sendall(frame)
        self.outstanding += 1
        return rec

    def poll(self, timeout: float) -> int:
        """Read whatever has arrived within ``timeout``; returns responses read."""
        got = 0
        for key, _ in self.sel.select(max(0.0, timeout)):
            sock = key.fileobj
            data = sock.recv(1 << 20)  # type: ignore[union-attr]
            stamp = time.perf_counter()
            if not data:
                raise ConnectionError("server closed a connection")
            for item in self.decoders[key.data].feed(data):
                if isinstance(item, FrameError):
                    self.frame_errors += 1
                    continue
                rec = self.records.get(str(item.get("request_id")))
                if rec is None or rec.response is not None:
                    self.frame_errors += 1
                    continue
                rec.arrived = stamp
                rec.response = item
                if rec.traced:
                    rec.frame_bytes = len(encode_frame(item))
                self.outstanding -= 1
                got += 1
        return got

    def drain(self, timeout_s: float) -> None:
        """Wait until every sent request is answered or ``timeout_s`` passes."""
        end = time.perf_counter() + timeout_s
        while self.outstanding and time.perf_counter() < end:
            self.poll(min(0.05, end - time.perf_counter()))

    def sequential(
        self, docs: List[Dict[str, Any]], phase: str, timeout_s: float = 60.0
    ) -> List[Record]:
        """Send ``docs`` one at a time, each after the previous answered."""
        out = []
        for doc in docs:
            out.append(self.send(doc, phase, time.perf_counter()))
            self.drain(timeout_s)
        return out

    def open_loop(
        self, stream: Iterator[Dict[str, Any]], rate: float, seconds: float, phase: str
    ) -> List[Record]:
        """Send at a fixed ``rate`` for ``seconds`` regardless of responses."""
        interval = 1.0 / rate
        start = time.perf_counter()
        out: List[Record] = []
        i = 0
        while True:
            due = start + i * interval
            if due - start >= seconds:
                break
            now = time.perf_counter()
            if now >= due:
                out.append(self.send(next(stream), phase, due))
                i += 1
                continue
            self.poll(due - now)
        self.drain(30.0)
        return out

    def closed_loop(
        self, stream: Iterator[Dict[str, Any]], depth: int, seconds: float, phase: str
    ) -> List[Record]:
        """Keep ``depth`` requests outstanding for ``seconds``."""
        out: List[Record] = []
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            while self.outstanding < depth:
                now = time.perf_counter()
                out.append(self.send(next(stream), phase, now))
            self.poll(end - time.perf_counter())
        self.drain(30.0)
        return out
