"""The HTTP/1.1 message on both ends of the wire.

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

The server's ``parse_request`` reads request fields with it.  The
client's side is :class:`Connection`: one socket and one buffered
reader for the connection's whole life.  It writes each request, head
and body, with one ``sendall`` and keeps ``http.client``'s request
checks (a control character in the target is ``InvalidURL``, a CR or LF
in a field is ``ValueError``, both before any byte goes out).  Its
:class:`Response` reads the status line, the head and the body from
that one reader, with ``http.client``'s framing and errors.
"""

from __future__ import annotations

import http.client
import re
import socket

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

    def get_all(self, name: str, failobj=None):
        """``[value]`` as :meth:`get` reads it, or ``failobj``; what the
        inherited ``HTTPResponse.getheader`` calls."""
        value = self.get(name)
        return failobj if value is None else [value]


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
    """An ``HTTPResponse`` read from its connection's buffered reader.

    The status line (with its ``RemoteDisconnected``, ``BadStatusLine``
    and ``LineTooLong``), the framing rules and the body reads are the
    stdlib's; the head is read by :func:`read_headers`, so a refused
    head raises :class:`BadHead`.  A finished body hands the reader back
    to the connection, unless the answer closes the connection: then
    the response owns the reader and closes it.
    """

    def __init__(self, reader, method: str | None = None) -> None:
        # HTTPResponse.__init__ would open a new reader (makefile) here.
        self.fp = reader
        self.debuglevel = 0
        self._method = method
        self.headers = self.msg = None
        self.will_close = False

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

    def _close_conn(self) -> None:
        reader, self.fp = self.fp, None
        if self.will_close:
            reader.close()


#: What ``http.client`` refuses in a request target (``InvalidURL``);
#: a method holding one is a ``ValueError``.
_CONTROL = re.compile("[\x00-\x20\x7f]")
#: Methods whose bodiless request still says ``Content-Length: 0``.
_METHODS_WITH_BODY = frozenset({"PATCH", "POST", "PUT"})


class Connection:
    """One HTTP/1.1 keep-alive connection: a socket and its reader.

    :meth:`request` writes the request line, ``Host``, a
    ``Content-Length`` (``0`` for a bodiless POST, PUT or PATCH), the
    caller's fields and the body with one ``sendall``: the bytes
    ``http.client`` sends for the same call, except that no
    ``Accept-Encoding: identity`` is added when the caller names no
    coding.  The ``Host`` field follows Python 3.12's ``http.client``,
    which leaves out an IPv6 zone (RFC 6874); earlier versions keep it.  :meth:`getresponse` reads the answer from the reader the
    connection opened with its socket.  An answer that closes the
    connection drops the socket (``sock`` is None), and the next
    :meth:`request` opens a fresh one.  Not thread-safe: one per thread.
    """

    def __init__(self, host: str, port: int = 80, timeout: float | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self._reader = None
        self._response: Response | None = None
        self._method: str | None = None
        # The Host field as Python 3.12's http.client writes it: IDNA
        # for a non-ASCII name, brackets (and no zone) for an IPv6
        # literal, the port unless it is 80.
        try:
            name = host.encode("ascii")
        except UnicodeEncodeError:
            name = host.encode("idna")
        if ":" in host:
            name = b"[" + name.partition(b"%")[0] + b"]"
        name = name.decode("ascii")
        if port != 80:
            name = f"{name}:{port}"
        self._host_field = f"Host: {name}\r\n"

    def connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port), self.timeout)
        # A request and its answer are single writes; no write should
        # wait for the peer's delayed ACK.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def close(self) -> None:
        sock, reader = self.sock, self._reader
        self.sock = self._reader = self._response = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def request(
        self,
        method: str,
        target: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> None:
        """Send one request; every check runs before any byte is sent."""
        found = _CONTROL.search(target)
        if found is not None:
            raise http.client.InvalidURL(
                f"URL can't contain control characters. {target!r} "
                f"(found at least {found.group()!r})"
            )
        if _CONTROL.search(method) is not None:
            raise ValueError(f"method can't contain control characters: {method!r}")
        if body is not None:
            fields = f"Content-Length: {len(body)}\r\n"
        elif method.upper() in _METHODS_WITH_BODY:
            fields = "Content-Length: 0\r\n"
        else:
            fields = ""
        if headers:
            lines = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
            # Each line ends in the one CR LF pair it was given.
            if not lines.count("\r") == lines.count("\n") == len(headers):
                raise ValueError(f"a header field holds a CR or LF: {headers!r}")
            fields += lines
        line = f"{method} {target or '/'} HTTP/1.1\r\n".encode("ascii")
        head = line + (self._host_field + fields + "\r\n").encode("latin-1")
        if self.sock is None:
            self.connect()
        self._method = method
        self.sock.sendall(head + body if body else head)

    def getresponse(self) -> Response:
        """Read the answer's status line and head; the body stays unread.

        The previous answer's body must have been read first, as with
        ``http.client``.  A failed head closes the connection.
        """
        pending = self._response
        if self._method is None or (pending is not None and not pending.isclosed()):
            raise http.client.ResponseNotReady()
        response = Response(self._reader, self._method)
        self._method = None
        try:
            response.begin()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            # The response now owns the reader; the socket closes for
            # real once the reader does.
            sock, self.sock, self._reader = self.sock, None, None
            sock.close()
            self._response = None
        else:
            self._response = response
        return response
