"""Shared test settings.

``pytest --hypothesis-profile=ci`` runs every property test with 1000
examples and no deadline, a deeper search than the local default.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
