"""The demos of the online round, the balance game and the offline sweeps
run to completion and print the same bytes as when their digests were
recorded.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "online_game.py": "c5a0cb4b42bfbf8f9e33f81697b3d8889adcbcf03da66c727e06eb69166b7fdb",
    "balance_pacing.py": "d92b2181451464d8a0691e299dc02d2123b69b63dcf26f90de8482186d670116",
    "offline_ladder.py": "4d4a50d260dcb1b25b977716e99eebdf44b3bafdd264a36168565a8b403cfa6b",
}


@pytest.mark.parametrize("demo", list(DEMO_STDOUT_SHA256))
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
