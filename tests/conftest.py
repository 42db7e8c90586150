"""Fixtures shared across test modules."""

import pytest

from repro.fleet import FleetService
from repro.serve import ReproServer


@pytest.fixture(scope="module")
def fleet_handle(tmp_path_factory):
    """A real 2-worker fleet behind the HTTP front, one per module (it
    is expensive): ``(server thread handle, FleetService)``."""
    tmp = tmp_path_factory.mktemp("fleet")
    fleet = FleetService(workers=2, store=str(tmp / "fleet.sqlite"),
                         backoff_base=0.2)
    handle = ReproServer(fleet, port=0).run_in_thread()
    yield handle, fleet
    handle.stop()
