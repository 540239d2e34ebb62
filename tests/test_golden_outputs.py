"""Golden seeded outputs: the sha256 of small CLI runs, byte for byte.

Each case runs ``onlineusm.cli.main`` in a temporary directory, then
hashes the output file and the summary printed on stdout.  The JSON
outputs record the config without the output path, so their bytes do
not depend on where they are written.  A change to
any digest is a change of behaviour and has to say so.

``fresh-random`` and ``adaptive:*`` adversaries are pinned only with
``--keep-transcripts``: without oracle retention their regret columns
come from stale value tables (ROADMAP item 1), and a golden digest would
pin that defect.  With retention their outputs are correct and
repeatable (the summary reports 0 replay failures).

The file-based descriptors read graphs that each case writes first, with
``write_digraph`` from a seeded ``random_digraph``, into the temporary
directory under the relative names ``g0.dg`` and ``g1.dg``.

``verify`` writes no output file, so its cases hash the summary alone:
an exhaustive check at n = 12 and a sampled one at n = 22, each of a
graph file written from a seeded ``random_digraph``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from onlineusm import cli, random_digraph, write_digraph

USM = ["simulate-usm", "--n", "6", "--rounds", "150", "--trials", "2", "--seed", "3"]

CASES = {
    "usm-cycle-balancer": USM + ["--adversary", "cycle-random:k=3", "--subroutine", "balancer",
                                 "--output", "out.csv"],
    "usm-cycle-mw": USM + ["--adversary", "cycle-random:k=3", "--subroutine", "mw",
                           "--output", "out.csv"],
    "usm-cycle-uniform": USM + ["--adversary", "cycle-random:k=3", "--subroutine", "uniform",
                                "--output", "out.csv"],
    "usm-fixed-balancer": USM + ["--adversary", "fixed-random", "--subroutine", "balancer",
                                 "--output", "out.csv"],
    "usm-fixed-mw": USM + ["--adversary", "fixed-random", "--subroutine", "mw",
                           "--output", "out.csv"],
    "usm-fixed-uniform": USM + ["--adversary", "fixed-random", "--subroutine", "uniform",
                                "--output", "out.csv"],
    "usm-json-transcripts": USM + ["--adversary", "cycle-random:k=3", "--subroutine", "balancer",
                                   "--format", "json", "--keep-transcripts",
                                   "--output", "out.json"],
    "usm-fresh-json-transcripts": USM + ["--adversary", "fresh-random", "--subroutine", "balancer",
                                         "--format", "json", "--keep-transcripts",
                                         "--output", "out.json"],
    "usm-adaptive-json-transcripts": USM + ["--adversary", "adaptive:punish-last-set",
                                            "--subroutine", "balancer", "--format", "json",
                                            "--keep-transcripts", "--output", "out.json"],
    "usm-fixed-file": USM + ["--adversary", "fixed-file:g0.dg", "--subroutine", "balancer",
                             "--output", "out.csv"],
    "usm-cycle-files": USM + ["--adversary", "cycle-files:g0.dg;g1.dg", "--subroutine", "balancer",
                              "--output", "out.csv"],
    "usm-cycle-always-no": USM + ["--adversary", "cycle-random:k=3", "--subroutine", "always-no",
                                  "--output", "out.csv"],
    "balance-csv": ["simulate-balance", "--rounds", "300", "--trials", "2", "--seed", "3",
                    "--adversary", "pattern:URL", "--output", "out.csv"],
    "balance-adaptive-mw": ["simulate-balance", "--rounds", "300", "--trials", "2", "--seed", "3",
                            "--adversary", "adaptive:punish-last", "--subroutine", "mw",
                            "--output", "out.csv"],
    "offline-json": ["offline", "--n", "9", "--trials", "500", "--seed", "3",
                     "--output", "out.json"],
}

#: case -> (sha256 of the output file, sha256 of the summary on stdout)
GOLDEN = {
    "balance-adaptive-mw": ("a9678afc787508a4e984adc1c02215a0b044df28829561fb17d63915ecc205e0",
                            "bf2093cdd71a5bd570ac6d3a451c92e55783048c9b185fdcc8c273fc761e9dba"),
    "balance-csv": ("f41f39b8a6ca1482abbbc5f7e07281bb234686eb379ccfa4f7125a1f576383de",
                    "7c369523c5db4e56cb35c6915667b3275cd383e7d7841c6622c9fca3c2a3174a"),
    "offline-json": ("caeed2ee99a5305c72a0f0cc7d5b7f5887fe4867ca8afda4b2aa1263f220cf72",
                     "d1a0bc9eba958fd5fa007cf22887cca6543cae80da0d5d9ab0e83774078292cb"),
    "usm-cycle-balancer": ("ec2cd1de06b8cc53e046bb322511330d89ea2b8b9ce90aee594582be4128eee7",
                           "1ad194f45babc19cf28814c75453e4b386122e1ed08b3671e0f06a92a870d2a1"),
    "usm-adaptive-json-transcripts": ("53e9bfca030567619333e6eefbca5a81441c600e00a7ce05dc30f66bb6d7419a",
                                      "92a4b24c8c4f5037f1aa368eca1b95f8b1aa47624f0b74ab0ddad96ba456eaae"),
    "usm-cycle-always-no": ("9983509f1a942a31fc24055ad2768d48fe3c1861b84341034c68b64a4b60a284",
                            "ed3d30eb68eaacd9f77b488798175f49c0c5abdd92831e169e792e1dd72a41e5"),
    "usm-cycle-mw": ("1b1e64a0f74a2ad246452165fec6e27905ad0db7cfd74a8816ffbd9376f64779",
                     "135534629470932f6e57f61a6977061ff8504a9e2e61ffbd4c2daa6b8521fa2c"),
    "usm-cycle-uniform": ("8dfdea41c7298e48190fe11e7326c737329014304648aa06edf005a12c18d262",
                          "0bd3a5330dd1e1dd7bc3a39ebb9bd91ad160d9843e6286392dc5ad5aa3d78a42"),
    "usm-fixed-balancer": ("41c0492f1abf9a435ce36092d8db700cea8eacc70ea0cf439503b434d8072498",
                           "f2e5e0b98ac119d26f8a2d300a5d330ad884a3d74573db8f08335b88848253fd"),
    "usm-fixed-file": ("a331b1983621a0a8d9d8de708376fc5687a64e17b1ad19125b00d7be541476f7",
                       "dc721286b13c44e5af429fd17760cf87da2ce925f8e0047e6b50078b6de2e039"),
    "usm-cycle-files": ("87e0bf029a08daacbe023e9af725d691a59a69f5ad9fe0b7b9fd89808951f374",
                        "455aab2371e512f81593c72c17586fbc5b33e98c029d67d653a87dad08fb898f"),
    "usm-fixed-mw": ("977b653c54cfb982950c7ec921145fd105fa66a1b102ebdb719325983a8eb4e6",
                     "c82068e315d21815aac8dbaf475393c94ff5b6d12918600a3730e0cb98271643"),
    "usm-fixed-uniform": ("bc81c12b01f660661e13e3bd1bc99c38483215fe30195acba008ece27ca42de8",
                          "f7e0540ac12510ea66b5ea0d3f98eaf5b5c4897cf19095034cc4ff525f035fdd"),
    "usm-fresh-json-transcripts": ("72d808030b106831418c819387187ecb7e55c4bb4a8a92669c36785b181d6c02",
                                   "9c7ab03412ba26b4f3b069a3ca6152bd0422517bf9c76c602199e29ef3023c36"),
    "usm-json-transcripts": ("db1bf230424ca8c09a3951a69e5087dcc6e6ea969571e7569faa499a45d1a48b",
                             "1684049b369f88b486c2f65c8f9665a0bf9b770c94d53893c47bc1d6545480a1"),
}


#: case -> ((n, density, seed) of the graph file g.dg, argv)
VERIFY_CASES = {
    "verify-exhaustive-n12": ((12, 0.5, 12), ["verify", "g.dg"]),
    "verify-sampled-n22": ((22, 0.3, 22), ["verify", "g.dg", "--samples", "3000", "--seed", "4"]),
}

#: case -> sha256 of the summary on stdout
VERIFY_GOLDEN = {
    "verify-exhaustive-n12": "b78103e2bbbdab5ba8ecb5cedd242159aad389cb4355e6956087569a4c1ce495",
    "verify-sampled-n22": "2933bdc6ad2b304af662de480c990de7c8e7242ab256ed302a804bbddf518b3d",
}


def _run(argv: list[str]) -> tuple[str, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    output = Path(argv[argv.index("--output") + 1]).read_bytes()
    return (hashlib.sha256(output).hexdigest(),
            hashlib.sha256(stdout.getvalue().encode()).hexdigest())


def _write_graphs(directory: Path) -> None:
    for k in range(2):
        g = random_digraph(6, 0.5, (0.0, 1.0), np.random.default_rng(k))
        write_digraph(directory / f"g{k}.dg", g)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_graphs(tmp_path)
    assert _run(CASES[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_golden_verify_summary(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (n, density, seed), argv = VERIFY_CASES[case]
    write_digraph(tmp_path / "g.dg", random_digraph(n, density, (0.0, 1.0), np.random.default_rng(seed)))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == VERIFY_GOLDEN[case]
