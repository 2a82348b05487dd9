"""Package metadata for the DATE'05 DPM reproduction.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so editable
installs work on environments whose packaging stack predates PEP 660
editable wheels (e.g. no ``wheel`` package available).
"""

import os
import re

from setuptools import find_packages, setup


_HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    init = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(init, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if not match:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


def _readme() -> str:
    with open(os.path.join(_HERE, "README.md"), encoding="utf-8") as handle:
        return handle.read()


setup(
    name="repro-dpm",
    version=_version(),
    description=(
        "Reproduction of 'SystemC Analysis of a New Dynamic Power Management "
        "Architecture' (DATE 2005) with a parallel experiment-campaign layer"
    ),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro-dpm = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Operating System :: OS Independent",
        "Topic :: Scientific/Engineering",
    ],
)
