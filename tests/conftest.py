"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.lang.programs import (
    jacobi,
    jacobi_odd_even,
    jacobi_plain,
    load_program,
    master_worker,
    program_names,
)

# Tier-1 draws the same examples on every run: each property's draws
# are seeded from the test itself, and no example database replays an
# earlier run's failures. Each module keeps its own ``max_examples``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def jacobi_program():
    """The paper's Figure 1 Jacobi program (safe placement)."""
    return jacobi()


@pytest.fixture
def odd_even_program():
    """The paper's Figure 2 odd/even variant (unsafe placement)."""
    return jacobi_odd_even()


@pytest.fixture
def plain_program():
    """Jacobi with no checkpoint statements (Phase I input)."""
    return jacobi_plain()


@pytest.fixture
def master_worker_program():
    return master_worker()


@pytest.fixture(params=program_names())
def any_program(request):
    """Parametrised over every shipped program."""
    return load_program(request.param)
