"""Setuptools entry point for the ``repro`` package.

The package lives under ``src/``.  ``pip install -e .`` installs it in
development mode; ``PYTHONPATH=src`` runs it without an install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
