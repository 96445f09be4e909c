"""One Hypothesis profile for the suite: every property test is deterministic."""
from hypothesis import settings

settings.register_profile("thermalcast", deadline=None, derandomize=True, database=None)
settings.load_profile("thermalcast")
