"""Settings shared by the whole suite."""

from hypothesis import settings

# every property test runs derandomized, with no example database and no
# deadline, so that the suite draws the same examples on every run; each test
# sets only its max_examples
settings.register_profile("curvelift", derandomize=True, database=None, deadline=None)
settings.load_profile("curvelift")
