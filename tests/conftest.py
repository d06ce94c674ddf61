"""Suite-wide settings.

Hypothesis draws the same examples on every run (derandomize) and has no
per-example deadline, so property tests neither flake on a slow host nor
pass or fail by luck of the draw.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
