"""Finds the simulator's source in this checkout and imports it from there.

The benchmark measures the code beside it, never an installed copy: when
`src/geams_sim` is missing, `import_package` raises `MissingProgram`.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "geams_sim"


class MissingProgram(RuntimeError):
    """The checkout holds no simulator source to measure."""


def import_package():
    """Import `geams_sim` from `<checkout>/src` and return it."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no simulator source at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import geams_sim

    if Path(geams_sim.__file__).resolve().parent != PACKAGE:
        raise MissingProgram(f"geams_sim was imported from {geams_sim.__file__}, not {PACKAGE}")
    return geams_sim
