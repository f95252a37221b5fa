import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# Lets test modules import the shared oracle helpers as plain modules.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the snap, memo, table-layout and g_inverse properties again under this one:
# more examples, nothing else changed.
settings.register_profile("ci", parent=settings.get_profile("default"), max_examples=1000)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"
