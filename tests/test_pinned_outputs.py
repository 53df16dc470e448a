"""The worked example's refutation and decoder config, pinned byte for byte.

The benchmark stores digests of the ``uvw`` witness and the ``uv`` decoder
config (``bench/expected.json``).  Checking them here makes a change that
alters either one fail the test suite, not only the benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import workloads  # noqa: E402
from byzfc.decoder import build_decoder_config, config_to_json_dict  # noqa: E402


def test_uvw_witness_and_uv_config_match_the_stored_digests(erasure_pmf, erasure_f_uv):
    expected = workloads.load_expected()
    witness, _ = workloads.erasure_witness()
    assert workloads.witness_digest(witness) == expected["uvw_witness"]
    config = build_decoder_config(erasure_pmf, erasure_f_uv, workloads.T32, workloads.DELTA)
    assert workloads.digest(config_to_json_dict(config)) == expected["uv_config"]
