"""Setup shim.

The offline environment has no `wheel` package, so PEP-517 editable installs
(`pip install -e .` with a [build-system] table) cannot build. This classic
setup.py lets pip fall back to the legacy `setup.py develop` path.
Configuration lives in pyproject.toml; this file only mirrors what the
legacy path needs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Colossal-AI (ICPP 2023): unified large-scale "
        "parallel training on a simulated multi-GPU substrate"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
