import os
import shutil
import subprocess
import sys
from pathlib import Path

import outputs
import pytest

# pyproject.toml claims requires-python >= 3.10; the replay covers these
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def test_diff_names_each_call_whose_hash_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    lines = ["0123456789abcdef  congruent triples --m 2 --n 1", "fedcba9876543210  verify.run_all()"]
    a.write_text("\n".join(lines) + "\n")
    b.write_text("\n".join(lines) + "\n")
    assert outputs.diff(a, b) == []
    b.write_text("\n".join(["0123456789abcdee  congruent triples --m 2 --n 1", lines[1]]) + "\n")
    assert outputs.diff(a, b) == ["congruent triples --m 2 --n 1"]
    b.write_text(lines[1] + "\n")
    assert outputs.diff(a, b) == outputs.diff(b, a) == ["congruent triples --m 2 --n 1"]


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
    # the gate, the README examples, the parser texts and the echoes print the
    # same bytes on every supported interpreter; the running one is replayed by
    # the tests that pin each digest, and an absent or broken one is skipped, with why
    if version == "{}.{}".format(*sys.version_info):
        pytest.skip(f"python{version} is the running interpreter")
    exe, why = _interpreter(version)
    if exe is None:
        pytest.skip(why)
    proc = subprocess.run([exe, outputs.__file__], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("flag", ["-h", "--help", "--no-such-flag"])
def test_a_flag_prints_the_usage_and_writes_no_file(tmp_path, flag):
    # only --diff is a flag; any other first argument starting with "-" is not OUT
    proc = subprocess.run(
        [sys.executable, outputs.__file__, flag], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stderr == outputs.__doc__ + "\n"
    assert not list(tmp_path.iterdir())
