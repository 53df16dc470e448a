"""The worked example's refutation and decoder config, and every benchmark
workload's seed-1 outputs, pinned byte for byte.

The benchmark stores digests of the ``uvw`` witness, the ``uv`` decoder
config and each workload's seed-1 outputs (``bench/expected.json``).
Checking them here makes a change that alters one fail the test suite,
not only the benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from byzfc.decoder import build_decoder_config, config_to_json_dict  # noqa: E402


def test_uvw_witness_and_uv_config_match_the_stored_digests(erasure_pmf, erasure_f_uv):
    expected = workloads.load_expected()
    witness, _ = workloads.erasure_witness()
    assert workloads.witness_digest(witness) == expected["uvw_witness"]
    config = build_decoder_config(erasure_pmf, erasure_f_uv, workloads.T32, workloads.DELTA)
    assert workloads.digest(config_to_json_dict(config)) == expected["uv_config"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_1_fingerprint(name):
    expected = workloads.load_expected()
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, expected)
    wl.setup()
    stats = run.measure(wl, 0.0, run._no_span)
    assert stats["failed"] == 0, stats["problems"]
    assert workloads.digest(wl.records) == expected["fingerprints"][name]
