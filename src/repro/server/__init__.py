"""The service layer: a socket server exposing the engine to many clients.

The in-process library becomes a multi-session service here - the "gateway
from library to millions of users" named in the ROADMAP.  Four modules,
split the way a real driver/server pair is:

* :mod:`repro.server.protocol` - the wire format: length-prefixed JSON
  messages with a value codec for bytes, timestamps and variants.
* :mod:`repro.server.service` - sessions, token authentication, and
  request dispatch onto per-session engine connections.
* :mod:`repro.server.server` - the TCP accept loop: thread-per-connection
  handlers, out-of-band cancel connections, graceful shutdown.
* :mod:`repro.server.client` - the network driver
  (:func:`repro.client.connect` / ``repro://host:port`` URLs): the
  in-process driver's cursor and connection base with a network backend.

Typical use::

    from repro.server import serve
    import repro.client

    server = serve(database, port=0, tokens={"analyst": "s3cret"})
    conn = repro.client.connect(server.url, token="s3cret")
    conn.execute("SELECT 1").fetchone()

Concurrency model (see docs/architecture.md, "Service layer"): SELECTs run
concurrently under a shared statement lock; DML, DDL and UDF-calling
statements serialize; explicit transactions hold the lock to commit;
cancellation and ``statement_timeout`` are per session.
"""

from repro.server.client import RemoteConnection, RemoteCursor
from repro.server.client import connect as client_connect
from repro.server.protocol import PROTOCOL_VERSION
from repro.server.server import ReproServer, serve
from repro.server.service import ReproService

__all__ = [
    "ReproServer",
    "ReproService",
    "RemoteConnection",
    "RemoteCursor",
    "serve",
    "client_connect",
    "PROTOCOL_VERSION",
]
