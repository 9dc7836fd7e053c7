"""Hypothesis draws the same examples on every run: no random seed and no
example database, so two checkouts run the same differential tests."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
