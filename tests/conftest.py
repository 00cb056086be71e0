"""Test-suite settings shared by every module."""

from hypothesis import settings

# The same examples on every run, so pass counts compare across commits.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
