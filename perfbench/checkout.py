"""Locate the checkout the benchmark runs in and import its package.

The benchmark measures the package under `src/` of the checkout that holds
it, never an installed copy: `src` goes first on `sys.path`, and the import
is refused if it resolves anywhere else.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"


class CheckoutError(Exception):
    """The checkout has no usable package source."""


def import_package():
    """Import temporal_pluralism from this checkout's src/ or raise CheckoutError."""
    init = SRC / "temporal_pluralism" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no package source at {init.parent}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("temporal_pluralism")
    if Path(package.__file__).resolve() != init.resolve():
        raise CheckoutError(f"imported {package.__file__}, not {init}")
    return package


def code_digest() -> str:
    """Hash of the package and benchmark sources; keys the instance cache."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
