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


@pytest.mark.parametrize("version", VERSIONS)
def test_each_interpreter_on_path_replays_the_digests(version):
    # the gate and the README examples print the same bytes on every
    # supported interpreter; an absent or broken one is skipped, with why
    if version == "{}.{}".format(*sys.version_info):
        pytest.skip(f"python{version} is the running interpreter")
    exe = shutil.which(f"python{version}")
    if exe is None:
        pytest.skip(f"python{version} is not on PATH")
    probe = subprocess.run([exe, "-c", "pass"], capture_output=True, text=True)
    if probe.returncode:
        first = (probe.stderr.strip().splitlines() or ["no output"])[0]
        pytest.skip(f"{exe} exits {probe.returncode} on -c pass: {first}")
    proc = subprocess.run([exe, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
