"""Legacy setup shim: the offline environment lacks the `wheel` package
PEP-517 editable installs need, so `pip install -e .` uses this path.
All metadata, the console scripts included, lives in pyproject.toml."""

from setuptools import setup

setup()
