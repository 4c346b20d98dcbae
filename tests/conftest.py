"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import CsSystem, SDComplex

# The gate must not flip on a random seed or a local example database:
# tier-1 and ``tools/check.sh test`` run the derandomized ``ci`` profile.
# nightly.yml selects ``nightly`` (fresh seeds, ten times the examples
# for the crash-history property tests, which leave ``max_examples`` to
# the profile; failing examples land in ``.hypothesis/`` for upload)
# through the standard HYPOTHESIS_PROFILE variable.
settings.register_profile("ci", derandomize=True, database=None,
                          max_examples=60)
settings.register_profile("nightly", max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def sd():
    """A two-instance shared-disks complex."""
    complex_ = SDComplex(n_data_pages=512)
    complex_.add_instance(1)
    complex_.add_instance(2)
    return complex_


@pytest.fixture
def sd3():
    """A three-instance shared-disks complex."""
    complex_ = SDComplex(n_data_pages=512)
    for system_id in (1, 2, 3):
        complex_.add_instance(system_id)
    return complex_


@pytest.fixture
def cs():
    """A client-server system with two clients."""
    system = CsSystem(n_data_pages=512)
    system.add_client(1)
    system.add_client(2)
    return system
