"""Pytest plugin: run the tests on the sanitizer build of the C kernel.

``python -m pytest -p tests.sanitize ...`` makes the first import of
``repro.sim`` build ``repro/sim/_kernel.c`` with
``repro.sim.native.compile_flags(sanitize=True)`` (AddressSanitizer and
UndefinedBehaviorSanitizer, in its own cache file) and load that build.
The interpreter is not built with the sanitizers, so their runtimes must
be preloaded, and leak reports turned off (the interpreter does not free
everything at exit)::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
      $(gcc -print-file-name=libubsan.so)" ASAN_OPTIONS=detect_leaks=0 \\
      PYTHONPATH=src python -m pytest -p tests.sanitize tests/sim

Leaks are what ``tests/sim/test_leak_gate.py`` is for. Importing this
module from a ``sitecustomize`` selects the same build in interpreters
pytest does not start (the race audit's workers).
"""

import functools
import importlib.util
import sys
from pathlib import Path

NATIVE = Path(__file__).resolve().parents[1] / "src/repro/sim/native.py"


def select_sanitized_build():
    """Register ``repro.sim.native`` with ``sanitize=True`` as its default.

    It must run before anything imports ``repro.sim``: the kernel is built
    and loaded once, at that import. ``native.py`` is loaded by path, so
    that registering it imports nothing else of the package.
    """
    if "repro.sim.events" in sys.modules:
        raise RuntimeError("the kernel is already loaded; select the "
                           "sanitizer build before importing repro")
    spec = importlib.util.spec_from_file_location("repro.sim.native", NATIVE)
    native = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(native)
    native.compile_flags = functools.partial(native.compile_flags,
                                             sanitize=True)
    sys.modules["repro.sim.native"] = native


select_sanitized_build()
