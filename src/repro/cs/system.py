"""A complete client-server deployment: one server, many clients."""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.seams import Seams
from repro.common.stats import StatsRegistry
from repro.cs.client import CsClient
from repro.cs.server import SERVER_ID, ClientRecoverySummary, CsServer
from repro.faults.injector import NullFaultInjector
from repro.net.network import Network
from repro.obs import events as ev
from repro.obs.tracer import NullTracer


class CsSystem:
    """Convenience wrapper wiring server, clients and network together;
    ``commit_lsn`` is the server's complex-wide Commit_LSN service."""

    def __init__(
        self,
        n_data_pages: int = 2048,
        piggyback_enabled: bool = True,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[NullTracer] = None,
        injector: Optional[NullFaultInjector] = None,
        restart_mode: str = "eager",
    ) -> None:
        #: The one seams value the server, fabric and clients take.
        self.seams = seams = Seams.of(stats, tracer, injector)
        self.stats, self.tracer, self.injector = seams
        self.network = Network(seams, piggyback_enabled=piggyback_enabled)
        self.server = CsServer(n_data_pages, seams, self.network,
                               restart_mode=restart_mode)
        self.clients: Dict[int, CsClient] = {}
        self.commit_lsn = self.server.commit_lsn

    def add_client(self, client_id: int, **kwargs) -> CsClient:
        client = CsClient(client_id, self.server, **kwargs)
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------
    # failure orchestration
    # ------------------------------------------------------------------
    def crash_client(self, client_id: int) -> None:
        self.clients[client_id].crash()

    def recover_client(self, client_id: int) -> ClientRecoverySummary:
        """Server-side recovery of a failed client, then let the client
        machine rejoin with a cold cache."""
        summary = self.server.recover_client(client_id)
        self.clients[client_id].rejoin()
        return summary

    def crash_server(self) -> None:
        """Server failure takes every client down with it."""
        self.server.crash()

    def restart_server(self):
        """Restart the whole deployment after a server failure
        (handled like an SD-complex failure, Section 3.1)."""
        summary = self.server.restart()
        for client in self.clients.values():
            if client.crashed:
                client.rejoin()
        return summary

    # ------------------------------------------------------------------
    def broadcast_max_lsns(self) -> None:
        """Periodic Local_Max_LSN exchange (Section 3.5)."""
        self.network.broadcast_max_lsns()

    def quiesce(self) -> None:
        """Ship every dirty page to the server and flush it to disk.

        Also drains any injected-delay messages still parked on the
        fabric: a quiesced system must have no in-flight traffic, or a
        later run would observe deliveries this one never completed.
        """
        with self.tracer.span(ev.SPAN_QUIESCE, system=SERVER_ID):
            self.network.drain_parked()
            for client in self.clients.values():
                if not client.crashed:
                    client.flush_all()
            self.server.pool.flush_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CsSystem(clients={sorted(self.clients)})"
