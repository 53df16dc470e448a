"""The worked example's refutation and decoder config, every benchmark
workload's seed-1 outputs, and the raw blocks of the acceptance
scenarios, pinned byte for byte.

The benchmark stores digests of the ``uvw`` witness, the ``uv`` decoder
config and each workload's seed-1 outputs (``bench/expected.json``).
Checking them here makes a change that alters one fail the test suite,
not only the benchmark run.  Those outputs are decode outcomes; the
raw-block digests pin the sampled and attacked symbol arrays themselves,
on the erasure law and on laws with zero cells or a float cumulative sum
short of 1.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW,  # noqa: E402
                             WitnessDMC, attack)
from byzfc.decoder import build_decoder_config, config_to_json_dict  # noqa: E402
from byzfc.examples_lib import random_pmf  # noqa: E402
from byzfc.probability import (Alphabet, Channel, derive_seed, sample_iid,  # noqa: E402
                               uniform_pmf)

# sha256 over dtype, shape and bytes of every user_seqs and side_seq below
RAW_BLOCKS = "4507613aafb891f5abe6f6ca84abfd085df0b830b2208fb812684e3b9a773020"
SAMPLER_BLOCKS = "ac2813ebeef59dba6786e9726e2559cc39db912cbd511f6a2e56c34709b7fcce"


def _digest(blocks) -> str:
    h = hashlib.sha256()
    for block in blocks:
        for arr in (block.user_seqs, block.side_seq):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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


def test_raw_blocks_of_the_acceptance_scenarios(erasure_pmf):
    """At seeds 1-3: the true block, then the block each acceptance strategy
    reports from it (honest, ``ResampleW`` and the honest/witness split)."""
    pf = erasure_pmf.to_float()
    witness, m = workloads.erasure_witness()
    both = frozenset({1, 2})
    scenarios = [("honest", frozenset(), Honest()), ("resample", both, ResampleW()),
                 ("split", both, BlockSplit(Honest(), WitnessDMC(witness, m), 0.5))]
    blocks = []
    for seed in (1, 2, 3):
        true = sample_iid(pf, workloads.BLOCK_N, derive_seed(seed, "trial", 0))
        blocks += [true] + [attack(strategy, aset, true, derive_seed(seed, "attack", name))
                            for name, aset, strategy in scenarios]
    assert _digest(blocks) == RAW_BLOCKS


def test_raw_blocks_of_laws_with_zero_cells_and_a_short_float_sum():
    """Random laws with k = 2, 3 and 4 users and zero cells, and a law of ten
    cells of 1/10, whose float cumulative sum is 0.9999999999999999: the
    blocks each draws, and a memoryless channel's attack on the k = 2 law."""
    laws = [random_pmf(sizes, seed=derive_seed(70, k), zero_frac=0.3)
            for k, sizes in enumerate([(2, 3, 2), (3, 2, 2, 2), (2, 2, 3, 2, 2)], start=2)]
    laws.append(uniform_pmf((Alphabet.of_size(5), Alphabet.binary())))
    assert all((law.mass == 0).any() for law in laws[:3])
    assert np.cumsum(laws[3].mass.astype(np.float64).reshape(-1))[-1] < 1.0
    rows = ["9/10", "1/20", "1/20", "1/10", "4/5", "1/10", "0", "3/10", "7/10"]
    channel = Channel((laws[0].axes[1],), (laws[0].axes[1],), [Fraction(v) for v in rows])
    blocks = []
    for seed in (1, 2, 3):
        for i, law in enumerate(laws):
            blocks.append(sample_iid(law.to_float(), 997, derive_seed(seed, "law", i)))
        blocks.append(attack(MemorylessChannel(channel), frozenset({1}), blocks[-4],
                             derive_seed(seed, "memoryless")))
    assert _digest(blocks) == SAMPLER_BLOCKS
