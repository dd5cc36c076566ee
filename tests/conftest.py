"""Shared fixtures: the paper's worked examples as databases.

Also the strict-fallback guard: every ``repro.parallel`` degradation
(pool unavailable, worker respawn, Stage 1 / sweep fallback, an
interrupted parallel phase) logs a WARNING on a
``repro.parallel*`` logger, and an unexpected one fails the test
instead of healing silently.  Tests that provoke one on purpose carry
the ``expect_fallback`` marker.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.core.notation import parse_program
from repro.graph.builder import DatabaseBuilder
from repro.graph.database import Database


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "expect_fallback: the test provokes a repro.parallel fallback "
        "or degradation on purpose",
    )


class _WarningLog(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(f"{record.name}: {record.getMessage()}")


@pytest.fixture(autouse=True)
def _unexpected_parallel_fallback(request):
    """Fail a test whose run logged a ``repro.parallel*`` WARNING."""
    log = _WarningLog()
    parallel = logging.getLogger("repro.parallel")
    parallel.addHandler(log)
    try:
        yield
    finally:
        parallel.removeHandler(log)
    expected = request.node.get_closest_marker("expect_fallback")
    if log.messages and expected is None:
        pytest.fail(
            "unexpected parallel fallback (mark the test expect_fallback "
            "if it is deliberate): " + "; ".join(log.messages)
        )


@pytest.fixture
def figure2_db() -> Database:
    """The person/firm database of Figure 2 (Gates/Jobs/Microsoft/Apple)."""
    builder = DatabaseBuilder()
    builder.link("g", "m", "is-manager-of")
    builder.link("j", "a", "is-manager-of")
    builder.link("m", "g", "is-managed-by")
    builder.link("a", "j", "is-managed-by")
    builder.attr("g", "name", "Gates", atomic_id="gn")
    builder.attr("j", "name", "Jobs", atomic_id="jn")
    builder.attr("m", "name", "Microsoft", atomic_id="mn")
    builder.attr("a", "name", "Apple", atomic_id="an")
    return builder.build()


@pytest.fixture
def p0_program():
    """The paper's typing program P0 for the Figure 2 database."""
    return parse_program(
        """
        person = ->is-manager-of^firm, ->name^0
        firm = ->is-managed-by^person, ->name^0
        """
    )


@pytest.fixture
def figure4_db() -> Database:
    """The simple database of Figure 4 (Example 4.2)."""
    builder = DatabaseBuilder()
    builder.link("o1", "o2", "a")
    builder.link("o1", "o3", "a")
    builder.link("o1", "o4", "a")
    builder.attr("o2", "b", "v1")
    builder.attr("o3", "b", "v2")
    builder.attr("o4", "b", "v3")
    builder.attr("o4", "c", "v4")
    return builder.build()


@pytest.fixture
def figure3_db() -> Database:
    """The Example 2.2 database (Figure 3): o4 straddles two types."""
    builder = DatabaseBuilder()
    builder.link("o1", "o2", "a")
    builder.attr("o2", "b", "x1")
    builder.attr("o2", "c", "x2")
    builder.attr("o3", "b", "x3")
    builder.attr("o3", "d", "x4")
    builder.attr("o4", "b", "x5")
    builder.attr("o4", "d", "x6")
    builder.attr("o4", "c", "x7")
    return builder.build()


@pytest.fixture
def example22_program():
    """The Example 2.2 typing program over the Figure 3 database."""
    return parse_program(
        """
        type1 = ->a^type2
        type2 = <-a^type1, ->b^0, ->c^0
        type3 = ->b^0, ->d^0
        """
    )


@pytest.fixture
def soccer_movie_db() -> Database:
    """The Figure 5 database: soccer stars, movie stars and Cantona."""
    builder = DatabaseBuilder()
    # o1: pure soccer star (Scholes).
    builder.attr("o1", "Name", "Scholes")
    builder.attr("o1", "Country", "England")
    builder.attr("o1", "Team", "Man Utd")
    # o2: both (Cantona).
    builder.attr("o2", "Name", "Cantona")
    builder.attr("o2", "Country", "France")
    builder.attr("o2", "Team", "Man Utd 2", atomic_id="team2")
    builder.attr("o2", "Movie", "Le Bonheur...")
    # o3: pure movie star (Binoche).
    builder.attr("o3", "Name", "Binoche")
    builder.attr("o3", "Country", "France 2", atomic_id="fr2")
    builder.attr("o3", "Movie", "Bleu")
    builder.attr("o3", "Movie", "Damage", atomic_id="movie2")
    return builder.build()


@pytest.fixture
def regular_people_db() -> Database:
    """Ten perfectly regular person records (name + email)."""
    builder = DatabaseBuilder()
    for i in range(10):
        builder.attr(f"p{i}", "name", f"Name {i}")
        builder.attr(f"p{i}", "email", f"p{i}@example.org")
    return builder.build()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests."""
    return random.Random(12345)
