"""Build a C extension from its source on first import.

:func:`load_extension` compiles ``<dir>/<name>.c`` with the C compiler and
the Python headers this interpreter was built with (``sysconfig``'s
``CC`` and include directory) into ``<dir>/__pycache__/``, and imports
the result. The file name carries a hash of the source and the compiler
flags, and the interpreter's ``EXT_SUFFIX``, so an edited source,
changed flags or another Python version builds its own file and a stale
one is never loaded.

The compiler writes to a file named for this process, which is then
renamed over the target: interpreters importing at once (spawned race
audits, ``run_experiments(workers=...)``) each either load a complete
file or build their own copy and rename it into place, never read a
half-written one.

There is no fallback. Without a working compiler the import raises
:class:`ImportError` naming the command that failed, and an unwritable
``__pycache__/`` (an install the importing user cannot write to, with no
build of this source in it yet) raises :class:`ImportError` naming the
directory.
"""

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path


def compile_flags(sanitize=False):
    """The compiler and its flags, without the input and output files.

    ``sanitize=True`` gives the checking build instead of the release
    one: AddressSanitizer and UndefinedBehaviorSanitizer (any undefined
    behaviour aborts), the header macros' asserts, and frames a report
    can name. It hashes to its own cache file. Loading it needs the
    sanitizer runtimes preloaded into the interpreter; ``tests/sanitize.py``
    selects it for a test run.
    """
    config = sysconfig.get_config_var
    command = shlex.split(config("CC") or "cc")
    command += shlex.split(config("CCSHARED") or "-fPIC")
    # -DNDEBUG as in the interpreter's own extension builds: the header
    # macros' asserts stay out of the run loop. -ffp-contract=off: no
    # multiply and add fused into one rounding (an FMA, on any target
    # that has one), so every float is the Python reference's bit for bit.
    if sanitize:
        command += ["-O1", "-g", "-fno-omit-frame-pointer",
                    "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=undefined"]
    else:
        command += ["-O2", "-DNDEBUG"]
    command += ["-ffp-contract=off", "-shared"]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    paths = sysconfig.get_paths()
    for include in dict.fromkeys((paths["include"], paths["platinclude"])):
        command.append("-I" + include)
    return command


def compile_command(source, output):
    """The argv that compiles ``source`` into the extension ``output``."""
    return compile_flags() + [str(source), "-o", str(output)]


def extension_path(source):
    """Where the build of this exact ``source`` text and these flags lives."""
    source = Path(source)
    digest = hashlib.sha256(source.read_bytes())
    digest.update("\0".join(compile_flags()).encode())
    return source.parent / "__pycache__" / "{}.{}{}".format(
        source.stem, digest.hexdigest()[:16],
        sysconfig.get_config_var("EXT_SUFFIX"))


def build(source):
    """Compile ``source`` unless its build exists; return the built path."""
    target = extension_path(source)
    if target.exists():
        return target
    try:
        target.parent.mkdir(exist_ok=True)
    except OSError as exc:
        raise _unwritable(source, target.parent, exc) from exc
    partial = target.with_name("{}.{}.tmp".format(target.name, os.getpid()))
    command = compile_command(source, partial)
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
    except OSError as exc:
        raise ImportError("cannot build {}: `{}` failed to start: {}".format(
            source, shlex.join(command), exc)) from exc
    if done.returncode != 0:
        if partial.exists():
            partial.unlink()
        raise ImportError("cannot build {}: `{}` exited with {}:\n{}".format(
            source, shlex.join(command), done.returncode,
            done.stderr.strip()))
    try:
        os.replace(partial, target)
    except OSError as exc:
        raise _unwritable(source, target.parent, exc) from exc
    return target


def _unwritable(source, directory, exc):
    return ImportError(
        "cannot build {}: cannot write to {} ({}); build it once from a "
        "user that can, or install from a writable source tree".format(
            source, directory, exc))


def load_extension(source, name):
    """Build ``source`` if needed and import it as module ``name``.

    ``name``'s last component must be the source's stem: it names the
    ``PyInit_`` function the import calls.
    """
    path = build(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module
