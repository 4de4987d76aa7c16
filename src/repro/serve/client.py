"""A thin blocking HTTP client for the mining service.

Stdlib-only (``http.client``), shared by the CLI (``repro query
--server URL``), the test suite, and the load-generator benchmark.
Each call opens one connection — the server speaks ``Connection:
close`` — so a client object is cheap, stateless between calls, and
safe to share across threads.

Usage::

    client = MiningClient("http://127.0.0.1:8321")
    client.load_relation("basket", ["BID", "item"], rows)
    result = client.mine(FLOCK_TEXT, threshold=3)
    print(result["row_count"], result["report"]["strategy_used"])
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Optional, Sequence
from urllib.parse import urlsplit

from ..errors import ReproError
from ..flocks.mining import MiningReport
from ..flocks.options import WIRE_FIELDS


class ServeError(ReproError):
    """The server answered with an error status (or unparseable JSON)."""

    def __init__(self, status: int, message: str, body: Optional[dict] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body if body is not None else {}


class MiningClient:
    """Blocking JSON client for one ``repro serve`` base URL.

    Args:
        base_url: e.g. ``http://127.0.0.1:8321``.
        tenant: tenant name sent with every mining request (the server
            applies that tenant's admission policy and budget cap).
        timeout: socket timeout in seconds for each request.
    """

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 300.0,
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// is supported, got {base_url!r}")
        if not parts.hostname:
            raise ValueError(f"no host in server URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.tenant = tenant
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        raw: bool = False,
    ) -> Any:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {"Connection": "close"}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if self.tenant is not None:
                headers["X-Repro-Tenant"] = self.tenant
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        if raw:
            if response.status != 200:
                raise ServeError(
                    response.status, data.decode("utf-8", "replace")[:500]
                )
            return data.decode("utf-8")
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            raise ServeError(
                response.status,
                f"unparseable response body: {data[:200]!r}",
            ) from None
        if response.status != 200:
            message = (
                decoded.get("error", "request failed")
                if isinstance(decoded, dict)
                else "request failed"
            )
            raise ServeError(response.status, message, body=decoded)
        return decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def mine(
        self,
        flock: str,
        *,
        threshold: Optional[float] = None,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        limit: Optional[int] = None,
        **options: Any,
    ) -> dict:
        """``POST /v1/mine``: evaluate one flock; returns the response
        dict (``columns``/``rows``/``row_count``/``report``/...).
        ``options`` are the wire fields of
        :class:`~repro.flocks.options.MiningOptions` (``strategy``,
        ``backend``, ``parallelism``, ...; ``checkpoint`` is a bool —
        the server owns the store); unset ones take the server's
        defaults."""
        unknown = options.keys() - WIRE_FIELDS.keys()
        if unknown:
            raise TypeError(f"{min(unknown)!r} is not a /v1/mine option")
        payload = {
            "flock": flock, "threshold": threshold, "timeout": timeout,
            "max_rows": max_rows, "limit": limit, "tenant": self.tenant,
            **options,
        }
        return self._request(
            "POST", "/v1/mine",
            {k: v for k, v in payload.items() if v is not None},
        )

    def mine_report(self, flock: str, **options: Any) -> MiningReport:
        """Like :meth:`mine`, but returns the parsed
        :class:`~repro.flocks.mining.MiningReport` alone."""
        return MiningReport.from_dict(self.mine(flock, **options)["report"])

    def load_relation(
        self,
        name: str,
        columns: Sequence[str],
        rows: Sequence[Sequence[Any]],
        mode: str = "replace",
    ) -> dict:
        """``POST /v1/data``: load (or append to) one relation."""
        return self._request(
            "POST",
            "/v1/data",
            {
                "name": name,
                "columns": list(columns),
                "rows": [list(row) for row in rows],
                "mode": mode,
            },
        )

    def run_status(self, run_id: str) -> dict:
        """``GET /v1/runs/{run_id}``."""
        return self._request("GET", f"/v1/runs/{run_id}")

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text payload."""
        return self._request("GET", "/metrics", raw=True)

    def metric_value(self, name: str, **labels: str) -> Optional[float]:
        """Scrape ``/metrics`` and read one sample (None when absent).

        Convenience for tests and the benchmark — a real deployment
        points Prometheus at ``/metrics`` instead.
        """
        rendered = _render_sample_name(name, labels)
        for line in self.metrics().splitlines():
            if line.startswith("#"):
                continue
            sample, _, value = line.rpartition(" ")
            if sample == rendered:
                return float(value)
        return None


def _render_sample_name(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{body}}}"


__all__ = ["MiningClient", "ServeError"]
