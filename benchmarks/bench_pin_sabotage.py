"""Every recovery pin can fail: restart redo without its page_LSN screen.

With ``sabotage_redo_screening()`` in force, restart redo re-applies
records the page already holds.  Each row names the exact error that
kills it.  E7, F1 and S4 still pass their shape assertions under it,
so only their pinned tables catch the change: E7 redoes 69 records
instead of 7, F1 writes more pages and S4's eager restart redoes
1 345.  E8's restart re-applies an equal-length overwrite (one
``XOR`` image, its own inverse) onto a slot whose length an earlier
re-applied record changed, which the apply refuses with
:class:`CorruptPageError` rather than writing garbage.  A1's medium
restart re-applies the last overwrite to the value it already holds,
which XORs it back to the previous round's value, so the bench's own
check of the last committed value fails.  E9 and A5 are left out
because their tables print the same under the sabotage: E9 counts
merge work, not records redone, and A5 counts readable records.
"""

import importlib

import pytest

from repro.common.errors import CorruptPageError
from repro.faults.campaign import sabotage_redo_screening

from _common import assert_pinned

PINNED = "drifted from its pinned"
#: Experiment id -> (bench module, error that kills it, its message).
SABOTAGED = {
    "E7": ("bench_e7_sd_restart", AssertionError, PINNED),
    "E8": ("bench_e8_cs_recovery", CorruptPageError,
           "XOR record .* does not fit slot"),
    "A1": ("bench_a1_transfer_schemes", AssertionError,
           r"\('medium', b'r038'\)"),
    "F1": ("bench_f1_architecture", AssertionError, PINNED),
    "S4": ("bench_s4_instant", AssertionError, PINNED),
}


@pytest.mark.parametrize("experiment_id", sorted(SABOTAGED))
def test_pin_fails_without_redo_screening(experiment_id):
    module, killer, message = SABOTAGED[experiment_id]
    bench = importlib.import_module(module)
    with pytest.raises(killer, match=message):
        with sabotage_redo_screening():
            tables = bench.tables(bench.run_experiment())
        assert_pinned(experiment_id, *tables)
