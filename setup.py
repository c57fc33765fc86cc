# Metadata and dependencies live in pyproject.toml; this file only keeps
# `python setup.py develop` working where the `wheel` package is missing.
from setuptools import setup

setup()
