"""End-to-end kill-and-resume: SIGKILL a campaign, resume, byte-diff.

Drives ``tools/resume_smoke.py``, which starts a real ``repro campaign
--jobs 2 --resume`` subprocess, SIGKILLs its whole process group once
the journal shows progress, re-runs it, and asserts the resumed
artifact is byte-identical to a clean serial run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_tool():
    """Import tools/resume_smoke.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "resume_smoke", REPO_ROOT / "tools" / "resume_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="needs POSIX process groups (os.killpg)",
)
class TestKillAndResume:
    def test_sigkilled_campaign_resumes_byte_identical(self, capsys):
        tool = load_tool()
        assert tool.main(["--steps", "20", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "OK: resumed artifact byte-identical to clean run" in out
