"""The first-import build of the compiled kernel (repro.sim.native).

Each test builds a private copy of ``_kernel.c`` in a temporary directory,
so its cache starts empty and the package's own build is never touched.
"""

import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sim import events, native

SOURCE = Path(events.__file__).with_name("_kernel.c")
SRC_ROOT = str(Path(events.__file__).parents[2])

# Waits for a go file so both interpreters reach the build together.
_IMPORTER = """
import sys, time
from pathlib import Path
go = Path(sys.argv[2])
deadline = time.monotonic() + 60
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.005)
from repro.sim.native import extension_path, load_extension
module = load_extension(Path(sys.argv[1]), "_kernel")
queue = module.EventQueue()
queue.push_bare(1.0, print, ())
assert len(queue) == 1
assert module.__file__ == str(extension_path(Path(sys.argv[1])))
print(module.__file__)
"""


@pytest.fixture
def source(tmp_path):
    copy = tmp_path / "_kernel.c"
    shutil.copyfile(SOURCE, copy)
    return copy


def _cache_files(source):
    return sorted(p.name for p in (source.parent / "__pycache__").iterdir())


def test_two_interpreters_importing_at_once_load_the_same_file(source):
    go = source.parent / "go"
    procs = [subprocess.Popen(
        [sys.executable, "-c", _IMPORTER, str(source), str(go)],
        cwd=SRC_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for _ in range(2)]
    time.sleep(0.2)
    go.touch()
    results = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_out, err) in zip(procs, results):
        assert proc.returncode == 0, err
    # Both loaded the build of this source under the release flags.
    loaded = {out.strip() for out, _err in results}
    assert len(loaded) == 1
    # One complete build and no partial file left behind.
    assert _cache_files(source) == [Path(loaded.pop()).name]


def test_an_edited_source_is_rebuilt_and_a_built_one_is_not(
        source, monkeypatch):
    first = native.build(source)
    with open(source, "a") as fh:
        fh.write("\n/* edited */\n")
    second = native.build(source)
    assert second != first and second.exists() and first.exists()
    assert second == native.extension_path(source)
    # A cache hit runs no compiler: a failing one would raise here.
    monkeypatch.setattr(native, "compile_command",
                        lambda src, out: ["false"])
    assert native.build(source) == second


def test_a_failing_compile_raises_import_error_naming_the_command(
        source, monkeypatch):
    command = [sys.executable, "-c", "raise SystemExit(3)"]
    monkeypatch.setattr(native, "compile_command", lambda src, out: command)
    with pytest.raises(ImportError) as raised:
        native.load_extension(source, "_kernel")
    assert shlex.join(command) in str(raised.value)
    assert "exited with 3" in str(raised.value)
    assert _cache_files(source) == []


def test_a_missing_compiler_raises_import_error_naming_the_command(
        source, tmp_path, monkeypatch):
    command = [str(tmp_path / "no-such-cc"), str(source)]
    monkeypatch.setattr(native, "compile_command", lambda src, out: command)
    with pytest.raises(ImportError, match="no-such-cc"):
        native.build(source)


def test_an_unwritable_cache_raises_import_error_naming_the_directory(
        source, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    with pytest.raises(ImportError) as raised:
        native.load_extension(source, "_kernel")
    assert str(source.parent / "__pycache__") in str(raised.value)


def test_the_build_matches_the_interpreters_release_flags():
    flags = native.compile_flags(sanitize=False)
    assert "-DNDEBUG" in flags and "-O2" in flags
    assert not any(flag.startswith("-fsanitize") for flag in flags)


def test_the_sanitizer_build_checks_instead_of_optimising():
    release = native.compile_flags(sanitize=False)
    flags = native.compile_flags(sanitize=True)
    assert "-fsanitize=address,undefined" in flags
    assert "-fno-sanitize-recover=undefined" in flags
    assert "-DNDEBUG" not in flags and "-O2" not in flags
    # The same floats as the release build, and its own cache file.
    assert "-ffp-contract=off" in flags
    assert [f for f in flags if f not in release] == [
        "-O1", "-g", "-fno-omit-frame-pointer",
        "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]


def test_the_build_fuses_no_multiply_add():
    """A link's service time is ``per_message_s + size * per_byte_s``;
    contracted into an FMA (always available on aarch64) it would round
    once instead of twice and move run digests off the Python reference."""
    assert "-ffp-contract=off" in native.compile_flags()


def test_changed_compiler_flags_build_their_own_file(source, monkeypatch):
    before = native.extension_path(source)
    flags = native.compile_flags()
    monkeypatch.setattr(native, "compile_flags", lambda: flags + ["-DX"])
    assert native.extension_path(source) != before
