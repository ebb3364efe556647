"""The HTTP/1.1 message head, read the same way on both ends of the wire.

The server's request heads and the client's response heads are both a
start line, then ``name: value`` field lines up to a blank line.  The
stdlib sends every head through ``email.feedparser``, the largest single
cost of a loaded read on either end; :func:`read_headers` reads the
fields with one ``readline`` each into a plain dict.

It keeps the stdlib's limits (``http.client``'s line length and field
count), so it accepts no head that the stdlib refuses, and it rejects
what RFC 9112 §5 tells a recipient to reject: obsolete line folding,
whitespace between a field name and its colon, and a ``Content-Length``
that is not a single non-negative integer.  A peer that stops sending
before the blank line cut the head short; there is no request or
response to act on.

The server's ``parse_request`` reads request fields with it, and the
client's :class:`Connection` reads response heads with it.
"""

from __future__ import annotations

import http.client

#: The stdlib's longest field line.
MAX_LINE = http.client._MAXLINE
#: ``http.client`` counts the blank line that ends a head against its
#: ``_MAXHEADERS``, so this is the most field lines it accepts.
MAX_FIELDS = http.client._MAXHEADERS - 1


class BadHead(http.client.HTTPException):
    """A head the reader refuses.

    ``status`` is what a server answers (400, or 431 past the limits);
    ``cut_short`` marks a head that ended at EOF, which gets no answer.
    """

    def __init__(self, status: int, message: str, *, cut_short: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.cut_short = cut_short


class Headers(dict):
    """Field values keyed by lower-cased name; the first of a repeated
    field wins, as with ``email.message.Message.get``."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def read_headers(fp) -> Headers:
    """Read field lines from ``fp`` through the blank line ending the head."""
    headers = Headers()
    for _ in range(MAX_FIELDS + 1):
        line = fp.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise BadHead(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise BadHead(400, "message head cut short", cut_short=True)
        if line[0] in b" \t":
            raise BadHead(400, "obsolete line folding in the head")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name:
            raise BadHead(400, f"malformed header line {line[:40]!r}")
        if " " in name or "\t" in name:
            raise BadHead(400, f"whitespace in header name {name!r}")
        name = name.lower()
        value = value.strip(" \t\r\n")
        if name == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise BadHead(400, f"bad Content-Length {value!r}")
            if name in headers and int(headers[name]) != int(value):
                raise BadHead(400, "conflicting Content-Length values")
        headers.setdefault(name, value)
    raise BadHead(431, f"more than {MAX_FIELDS} header fields")


class Response(http.client.HTTPResponse):
    """An ``HTTPResponse`` whose head is read by :func:`read_headers`.

    The status line (with its ``RemoteDisconnected``, ``BadStatusLine``
    and ``LineTooLong``), the framing rules and the body reads are the
    stdlib's; a refused head raises :class:`BadHead`.
    """

    def begin(self) -> None:
        if self.headers is not None:
            return
        version, status, reason = self._read_status()
        while status == http.client.CONTINUE:  # skip interim 100 heads
            read_headers(self.fp)
            version, status, reason = self._read_status()
        self.code = self.status = status
        self.reason = reason.strip()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            self.version = 10
        elif version.startswith("HTTP/1."):
            self.version = 11
        else:
            raise http.client.UnknownProtocol(version)
        self.headers = self.msg = headers = read_headers(self.fp)
        self.chunked = headers.get("Transfer-Encoding", "").lower() == "chunked"
        self.chunk_left = None
        self.will_close = self._check_close()
        length = headers.get("Content-Length")  # digits, if present
        self.length = int(length) if length and not self.chunked else None
        if status in (204, 304) or 100 <= status < 200 or self._method == "HEAD":
            self.length = 0
        if not self.will_close and not self.chunked and self.length is None:
            self.will_close = True  # the body runs to EOF


class Connection(http.client.HTTPConnection):
    response_class = Response
