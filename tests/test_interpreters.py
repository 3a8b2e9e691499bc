import os
import shutil
import subprocess
import sys
from pathlib import Path

import interpreters
import pytest

SCRIPT = Path(interpreters.__file__)

# pyproject.toml claims requires-python >= 3.10; the replay covers these
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def test_the_replay_script_passes_on_this_interpreter():
    assert interpreters.mismatches() == []


def _broken(exe):
    """Why exe cannot run `-c pass`, or None when it can."""
    probe = subprocess.run([exe, "-c", "pass"], capture_output=True, text=True)
    if probe.returncode:
        first = (probe.stderr.strip().splitlines() or ["no output"])[0]
        return f"{exe} exits {probe.returncode} on -c pass: {first}"
    return None


def _interpreter(version):
    """(the python{version} that runs, None) or (None, why none runs).

    A pyenv shim on PATH exits 127 for a version that pyenv has installed
    but not selected; then that version's own build under
    $PYENV_ROOT/versions (default ~/.pyenv) is run instead.
    """
    root = Path(os.environ.get("PYENV_ROOT", "~/.pyenv")).expanduser()
    builds = sorted(map(str, root.glob(f"versions/{version}*/bin/python{version}")))
    why = []
    for exe in filter(None, [shutil.which(f"python{version}"), *builds]):
        reason = _broken(exe)
        if reason is None:
            return exe, None
        why.append(reason)
    return None, "; ".join(why) or f"python{version} is neither on PATH nor under {root}/versions"


@pytest.mark.parametrize("version", VERSIONS)
def test_each_interpreter_on_path_replays_the_digests(version):
    # the gate, the README examples and the parser texts print the same bytes
    # on every supported interpreter; an absent or broken one is skipped, with why
    if version == "{}.{}".format(*sys.version_info):
        pytest.skip(f"python{version} is the running interpreter")
    exe, why = _interpreter(version)
    if exe is None:
        pytest.skip(why)
    proc = subprocess.run([exe, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
