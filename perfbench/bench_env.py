"""The environment the benchmark's child processes run in.

Every ``REPRO_*`` variable of the caller's shell is dropped and the
ones that change what runs, or where results go, are pinned.  A stray
``REPRO_LOOP=reference`` would otherwise make every run about 1.4x
slower, and a stray ``REPRO_STORE_DIR`` would serve results from a
developer's store instead of simulating them.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping

#: Values every child sees, whatever the caller's shell holds.
#: REPRO_STORE_DIR is pinned per run to a fresh directory by
#: :func:`child_env`, and per pass by the measuring child.
PINNED: Dict[str, str] = {
    "REPRO_LOOP": "event",
    "REPRO_JOBS": "1",
    "REPRO_STORE": "1",
    "REPRO_METRICS": "0",
    "REPRO_SPANS": "0",
    "PYTHONHASHSEED": "0",
}

#: Interpreter variables that would change what the children import or run.
_DROPPED_PYTHON = ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONOPTIMIZE",
                   "PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME", "PYTHONDEVMODE",
                   "PYTHONWARNINGS", "PYTHONINSPECT", "PYTHONUSERBASE")


def child_env(base: Mapping[str, str], root: str, tmp: str) -> Dict[str, str]:
    """``base`` without REPRO_* variables, with the pinned ones set.

    ``root`` is the checkout whose ``src`` the children import;
    ``tmp`` is this run's scratch directory inside the checkout.
    """
    env = {
        k: v for k, v in base.items()
        if not k.startswith("REPRO_") and k not in _DROPPED_PYTHON
    }
    env.update(PINNED)
    env["REPRO_STORE_DIR"] = os.path.join(tmp, "store")
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmp
    return env


def check_pinned(environ: Mapping[str, str], tmp: str) -> None:
    """Raise unless ``environ`` is a child environment for ``tmp``."""
    wrong = {k: environ.get(k) for k, v in PINNED.items() if environ.get(k) != v}
    stray = sorted(k for k in environ if k.startswith("REPRO_")
                   and k not in PINNED and k != "REPRO_STORE_DIR")
    store_dir = os.path.abspath(environ.get("REPRO_STORE_DIR", ""))
    if wrong or stray or not store_dir.startswith(os.path.abspath(tmp) + os.sep):
        raise RuntimeError(
            f"child environment not isolated: wrong={wrong} stray={stray} "
            f"store_dir={store_dir}"
        )
