import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from prwtest import binomial

# Lets test modules import the shared oracle helpers as plain modules.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the snap, memo, step-record, table-layout and g_inverse properties, the
# plain-argv parse, the --digits rounding (exact ties included), the PRW/Bentkus
# crossover and the streamed count and sum of a loss file again under this one:
# more examples, nothing else changed.
settings.register_profile("ci", parent=settings.get_profile("default"), max_examples=1000)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


def clear_law_caches():
    """Drop every tail table, and with it its law's step record: the next call on any law is
    cold.  A spec that already read its record keeps it."""
    binomial._tail_table.cache_clear()


def filled(spec) -> set:
    """The k whose raw PRW step the spec's law record holds."""
    law, lo, steps, cap = spec._steps
    return {lo + i for i, x in enumerate(steps) if x == x}


@pytest.fixture
def cold():
    """Start the test with no tail table and no step record cached."""
    clear_law_caches()
