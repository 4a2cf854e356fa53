"""HTTP/1.1 message framing of the serving tier, over raw sockets.

The server frames request bodies by ``content-length`` only. Anything
it cannot frame must end the connection, never leave body bytes behind
to be parsed as the next request (RFC 9112 §6-7). These tests talk raw
bytes so that every response the server writes is checked: each one is
well framed (a status line, headers, exactly ``content-length`` body
bytes), none is a 500, and a connection that survives a request still
answers the next one correctly.
"""

import json
import socket

import pytest
from harness import generation_embedding
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import ServingHTTPServer, ServingRegistry

N, DIM = 64, 8
SENTINEL = b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n"


@pytest.fixture(scope="module")
def served():
    registry = ServingRegistry()
    registry.register("live", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    server = ServingHTTPServer(registry, metrics=False).start(port=0)
    yield server
    server.stop(close_registry=True)


def _exchange(server, request: bytes) -> bytes:
    """Send ``request`` then EOF; return everything until the server
    closes the connection."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def _responses(blob: bytes, bodiless: int = -1) -> list:
    """Split a response stream into ``(status, headers, body)`` triples.

    Fails on anything not well framed. Response number ``bodiless``
    answers a HEAD request, so it carries no body bytes.
    """
    out = []
    while blob:
        head, sep, blob = blob.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {}
        for line in lines:
            key, sep, value = line.partition(": ")
            assert sep, f"malformed response header {line!r}"
            headers[key.lower()] = value
        length = 0 if len(out) == bodiless \
            else int(headers["content-length"])
        assert len(blob) >= length, "truncated response body"
        out.append((int(status), headers, blob[:length]))
        blob = blob[length:]
    return out


def test_chunked_body_is_501_and_closes(served):
    """A chunked POST gets one 501 and EOF; its chunk bytes are never
    parsed as a following request."""
    body = json.dumps({"node": 1, "k": 3}).encode()
    request = (b"POST /v1/live/topk HTTP/1.1\r\nhost: test\r\n"
               b"transfer-encoding: chunked\r\n"
               b"content-type: application/json\r\n\r\n"
               + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
    (reply,) = _responses(_exchange(served, request + SENTINEL))
    status, headers, payload = reply
    assert status == 501
    assert headers["connection"] == "close"
    assert "transfer-encoding" in json.loads(payload)["error"]


@pytest.mark.parametrize("value", ["abc", "-1", "+5", "5_0", "1e2", "5 5"])
def test_invalid_content_length_is_400_and_closes(served, value):
    request = (f"POST /v1/live/topk HTTP/1.1\r\ncontent-length: {value}"
               f"\r\n\r\n").encode() + b'{"node":1}'
    (reply,) = _responses(_exchange(served, request + SENTINEL))
    assert reply[0] == 400
    assert reply[1]["connection"] == "close"


def test_head_response_has_no_body(served):
    """A HEAD answer carries headers only, so the next response on the
    connection starts right after it."""
    request = b"HEAD /healthz HTTP/1.1\r\nhost: test\r\n\r\n"
    head, health = _responses(_exchange(served, request + SENTINEL),
                              bodiless=0)
    assert head[0] == 405 and head[2] == b""
    assert int(head[1]["content-length"]) > 0
    assert health[0] == 200


# ----------------------------------------------------------------------
# fuzz: any request head and body, then a sentinel request
# ----------------------------------------------------------------------

_TEXT = st.text(st.characters(min_codepoint=33, max_codepoint=255),
                max_size=12)
_ID = st.one_of(st.integers(0, N - 1), st.integers(), st.floats(),
                st.text(max_size=3), st.none(), st.booleans())
_IDS = st.one_of(_ID, st.lists(_ID, max_size=4),
                 st.lists(st.lists(st.integers(), max_size=2), max_size=2))
_OPTIONS = {"k": _ID, "timeout": _ID}
_JSON = st.one_of(
    st.fixed_dictionaries({"node": _IDS}, optional=_OPTIONS),
    st.fixed_dictionaries({"nodes": _IDS}, optional=_OPTIONS),
    st.fixed_dictionaries({"src": _IDS, "dst": _IDS}),
    st.dictionaries(st.sampled_from(["node", "nodes", "src", "dst", "k"]),
                    _IDS, max_size=3))
_BODY = st.binary(max_size=48) | _JSON.map(lambda d: json.dumps(d).encode())
_HEADER = st.tuples(
    st.sampled_from(["host", "connection", "content-type", "traceparent",
                     "expect", "x-junk"]) | _TEXT.filter(
        lambda n: n.lower() not in ("content-length",
                                    "transfer-encoding")),
    st.sampled_from(["close", "keep-alive", "application/json",
                     "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01", ""])
    | _TEXT)


def _check_framing(server, request: bytes, head: bool = False) -> list:
    """Send ``request`` and the sentinel; the server must close after one
    well-framed response, or answer both. Never a 500."""
    replies = _responses(_exchange(server, request + SENTINEL),
                         bodiless=0 if head else -1)
    assert replies, "connection closed without a response"
    assert all(status != 500 for status, _, _ in replies), replies
    if replies[0][1]["connection"] == "close":
        assert len(replies) == 1, replies
    else:
        assert len(replies) == 2, replies
        status, _, payload = replies[1]
        assert status == 200 and json.loads(payload)["status"] == "ok"
    return replies


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(method=st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE"])
       | _TEXT.filter(lambda m: " " not in m and m),
       path=st.sampled_from(["/healthz", "/v1/models", "/metrics",
                             "/v1/live/topk", "/v1/live/score",
                             "/v1/nope/topk", "/debug/vars",
                             "/debug/traces?limit=x&min_ms=1", "*", ""])
       | _TEXT,
       version=st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "FOO"]),
       headers=st.lists(_HEADER, max_size=4),
       framing=st.sampled_from(["length", "chunked", "invalid", "none"]),
       body=_BODY)
def test_fuzzed_requests_are_framed_or_closed(served, method, path,
                                              version, headers, framing,
                                              body):
    """Any request head, framing and body first on a connection."""
    lines = [f"{method} {path} {version}"]
    lines += [f"{name}: {value}" for name, value in headers]
    if framing == "length":
        lines.append(f"content-length: {len(body)}")
    elif framing == "chunked":
        lines.append("transfer-encoding: chunked")
        body = (b"%x\r\n" % len(body) + body + b"\r\n" if body else b"") \
            + b"0\r\n\r\n"
    elif framing == "invalid":
        lines.append("content-length: 1_0")
    else:
        body = b""
    request = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
    # the server sees a HEAD only if the request line parses
    _check_framing(served, request,
                   head=method == "HEAD" and version.startswith("HTTP/"))


@settings(_FUZZ, max_examples=400)
@given(verb=st.sampled_from(["topk", "score"]), body=_BODY)
def test_fuzzed_bodies_are_answered_without_500(served, verb, body):
    """Any body on a well-framed keep-alive POST is answered (200, 400,
    or 504 for a tiny timeout), and the connection goes on to serve the
    sentinel."""
    request = (f"POST /v1/live/{verb} HTTP/1.1\r\n"
               f"content-length: {len(body)}\r\n\r\n").encode() + body
    first = _check_framing(served, request)[0]
    assert first[0] in (200, 400, 504), first
