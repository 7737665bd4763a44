"""Package metadata for ``repro``.

The library lives under ``src/``; ``pip install -e .`` installs it with its
two runtime dependencies.  The tests run from the source tree with
``PYTHONPATH=src`` and need no install.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Traffic-matrix estimation on a large IP backbone",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
