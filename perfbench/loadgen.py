"""Open-loop HTTP load from one asyncio thread over keep-alive sockets.

Requests have due times fixed in advance. A connection that is free
sleeps until the next due time and sends; when every connection is
busy, due requests wait for one, and that wait counts in their latency
because each request is timed from when it was due. How late the
generator itself woke (``late``) is recorded only for requests sent by
a connection that was idle, so it measures the client, not the server.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Result:
    due: float                   # loop clock, seconds
    done: float = float("nan")
    status: int = 0              # 0: no response (connection error)
    late: float = float("nan")   # set when sent by an idle connection
    body: bytes = b""


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, method: str, path: str,
                      payload: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        head = (f"{method} {path} HTTP/1.1\r\nhost: {self.host}\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(payload)}\r\n\r\n").encode()
        self.writer.write(head + payload)
        try:
            status_line = await self.reader.readuntil(b"\r\n")
            headers = await self.reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            await self.close()
            raise
        length = 0
        close = False
        for line in headers.decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self.reader.readexactly(length)
        if close:
            await self.close()
        return int(status_line.split()[1]), body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        self.reader = self.writer = None


async def run_open_loop(host: str, port: int, path: str,
                        payloads: list[bytes], offsets: np.ndarray, *,
                        connections: int = 2, keep_body=None,
                        ) -> list[Result]:
    """Send ``payloads[i]`` ``offsets[i]`` seconds (ascending) after
    the start."""
    # A collection pausing this process would show up as server
    # latency; the few cycles a phase creates wait until it ends.
    gc.collect()
    gc.disable()
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    results = [Result(start + float(t)) for t in offsets]
    cursor = iter(range(len(payloads)))

    async def worker() -> None:
        conn = Connection(host, port)
        try:
            for i in cursor:
                res = results[i]
                wait = res.due - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                    res.late = loop.time() - res.due
                try:
                    res.status, body = await conn.request(
                        "POST", path, payloads[i])
                except (OSError, asyncio.IncompleteReadError):
                    res.status, body = 0, b""
                res.done = loop.time()
                if keep_body is not None and keep_body(i):
                    res.body = body
        finally:
            await conn.close()

    try:
        await asyncio.gather(*(worker() for _ in range(connections)))
    finally:
        gc.enable()
    return results


def topk_payload(nodes, k: int) -> bytes:
    if np.ndim(nodes) == 0:
        return json.dumps({"node": int(nodes), "k": k}).encode()
    return json.dumps({"nodes": [int(v) for v in nodes], "k": k}).encode()


def failures(results: list[Result]) -> int:
    return sum(1 for r in results if r.status != 200)


def late_ms(results: list[Result]) -> np.ndarray:
    lates = np.array([r.late for r in results])
    return lates[~np.isnan(lates)] * 1e3
