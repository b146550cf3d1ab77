"""Shared immutable objects across threads: concurrent runs equal serial ones bit for bit."""

import sys
from concurrent.futures import ThreadPoolExecutor

from consultmarket import DemandSide, SupplySide, simulate, solve_equilibrium
from consultmarket.scenarios import german_transport_params, german_transport_scenario


def test_concurrent_runs_equal_serial_runs():
    params = german_transport_params(mu=0.05)
    closed = DemandSide.closed_form(params), SupplySide.closed_form(params)
    grid = DemandSide.with_grid(params), SupplySide.with_grid(params)
    capacity, literal = german_transport_scenario(mode="capacity"), german_transport_scenario(mode="literal")
    tasks = [
        (simulate, capacity),
        (simulate, literal),
        (solve_equilibrium, *closed, 2.0),
        (solve_equilibrium, *grid, 2.0),
    ] * 8
    serial = [fn(*args) for fn, *args in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn, *args) for fn, *args in tasks]
            concurrent = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
