import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# reproducible property tests with no per-example time limit, so a slow
# stretch of a shared machine cannot make them flake
settings.register_profile("snclab", derandomize=True, deadline=None)
settings.load_profile("snclab")
