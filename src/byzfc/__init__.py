"""Robust distributed function computation under byzantine users.

Decide which functions of correlated sources remain recoverable when any
adversary set from a known structure may rewrite its users' reports,
construct the corresponding decoders, and verify them by Monte Carlo
simulation against a pluggable attack library.
"""

__version__ = "0.1.0"

from .probability import (Alphabet, CellSampler, Channel, JointPmf, SampleBlock,
                          apply_channel, apply_pointwise, derive_seed,
                          empirical_type, hamming_distortion, philox,
                          pmf_from_dict, sample_iid, tv_distance, type_counts, uniform_pmf)
from .structures import (AdversaryStructure, TargetFunction, constant_function,
                         nonintersecting_collections)
from .viability import (GBuildConflict, GTable, ViabilityReport,
                        ViolationWitness, build_g, check_s_viability,
                        check_viability, verify_witness)
from .viewsets import DistanceScreen, MembershipResult, distance_to_viewset, induce_view
from .adversary import (AttackStrategy, BlockSplit, Honest, MemorylessChannel,
                        ResampleW, WitnessDMC, attack, resample_w_channel,
                        witness_to_dmc)
from .mss import (CommonUpgrade, MaxUpgrade, Partition, common_upgrade,
                  decode_21, decode_k1, is_function_of_ystar, mss_partition,
                  upgrade_to_saturation)
from .decoder import (DecoderConfig, TrialTruth, Verdict, build_decoder_config,
                      classify_error, decode)
from .examples_lib import builtin_examples, random_function, random_pmf, resolve_example
from .harness import (ExperimentReport, Scenario, run_scenario,
                      scenario_from_json_dict, sweep, wilson_interval)
