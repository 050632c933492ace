from hypothesis import settings

# Replay the same examples on every run: property and fuzz tests are part
# of the deterministic tier-1 suite.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
