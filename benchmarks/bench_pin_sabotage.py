"""Every recovery pin can fail: restart redo without its page_LSN screen.

With ``sabotage_redo_screening()`` in force, restart redo re-applies
records the page already holds.  The E7, E8, A1, F1 and S4 benches
still pass their shape assertions under it, so only their pinned
tables catch the change: E7 redoes 69 records instead of 7, E8's
buffer-hit skips drop to zero, A1's medium restart redoes 20, F1
writes more pages and S4's eager restart redoes 1 345.  E9 and A5 are
left out because their tables print the same under the sabotage: E9
counts merge work, not records redone, and A5 counts readable records.
"""

import importlib

import pytest

from repro.faults.campaign import sabotage_redo_screening

from _common import assert_pinned

SABOTAGED = {
    "E7": "bench_e7_sd_restart",
    "E8": "bench_e8_cs_recovery",
    "A1": "bench_a1_transfer_schemes",
    "F1": "bench_f1_architecture",
    "S4": "bench_s4_instant",
}


@pytest.mark.parametrize("experiment_id", sorted(SABOTAGED))
def test_pin_fails_without_redo_screening(experiment_id):
    bench = importlib.import_module(SABOTAGED[experiment_id])
    with sabotage_redo_screening():
        tables = bench.tables(bench.run_experiment())
    with pytest.raises(AssertionError, match="drifted from its pinned"):
        assert_pinned(experiment_id, *tables)
