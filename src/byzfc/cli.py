"""Single command-line entry point for all subsystems.

Exit codes: 0 success, 2 configuration/usage error, 3 internal failure
(LP engine).  All inputs and outputs are JSON; reports also ship a flat
per-trial CSV for external plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .adversary import AttackError
from .decoder import (DecoderConfigError, config_from_json_dict,
                      config_to_json_dict, decode)
from .examples_lib import builtin_examples, resolve_example
from .harness import ScenarioError, run_scenario, scenario_from_json_dict, sweep
from .mss import common_upgrade, mss_partition, upgrade_to_saturation
from .probability import JointPmf, ProbabilityError, SampleBlock
from .simplex import LPError
from .structures import AdversaryStructure, TargetFunction, canonical_collection
from .viability import GBuildConflict, ViabilityInputError, build_g, check_viability

CONFIG_ERRORS = (ProbabilityError, ViabilityInputError, GBuildConflict, DecoderConfigError,
                 ScenarioError, AttackError, ValueError, KeyError,
                 FileNotFoundError, json.JSONDecodeError)
# what a JSON-to-object parser raises on a value of the wrong type or shape
_MALFORMED = (TypeError, IndexError, AttributeError)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return d


@contextmanager
def _parsing():
    """Malformed JSON input inside the block becomes a configuration error."""
    try:
        yield
    except _MALFORMED as e:
        raise ScenarioError(f"malformed input: {e}") from e


def _emit(obj, out: str | None, name: str) -> None:
    text = json.dumps(obj, indent=2, default=str)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
        print(str(path / name))
    else:
        print(text)


def _witness_json(witness) -> dict:
    return {
        "collection": [sorted(s) for s in witness.collection],
        "pair": list(witness.pair),
        "f_values": list(witness.f_values),
        "point": list(witness.point),
        "joint": witness.joint.to_json_dict(),
    }


def _load_pmf_and_function(args) -> tuple[JointPmf, TargetFunction, AdversaryStructure | None]:
    if getattr(args, "example", None):
        return resolve_example(args.example)
    if not args.pmf or not args.function:
        raise ScenarioError("need --example or both --pmf and --function")
    with _parsing():
        return (JointPmf.from_json_dict(_load_json(args.pmf)),
                TargetFunction.from_json_dict(_load_json(args.function)), None)


def _structure_from_args(args, k: int, default: AdversaryStructure | None) -> AdversaryStructure:
    if getattr(args, "threshold", None) is not None:
        return AdversaryStructure.threshold(k, args.threshold)
    if getattr(args, "structure", None):
        with _parsing():
            return AdversaryStructure.from_json_dict(_load_json(args.structure))
    if default is not None:
        return default
    raise ScenarioError("need --threshold or --structure")


def cmd_check_viability(args) -> int:
    pmf, f, default = _load_pmf_and_function(args)
    structure = _structure_from_args(args, pmf.k - 1, default)
    report = check_viability(pmf, f, structure)
    out = {"viable": report.viable}
    if report.witness is not None:
        out["witness"] = _witness_json(report.witness)
    _emit(out, args.out, "viability.json")
    return 0


def cmd_build_g(args) -> int:
    pmf, f, _ = _load_pmf_and_function(args)
    with _parsing():
        collection = canonical_collection(json.loads(args.collection))
    table = build_g(pmf, f, collection)
    _emit(table.to_json_dict(), args.out, "gtable.json")
    return 0


def cmd_decode(args) -> int:
    d = _load_json(args.config)
    if getattr(args, "exact", False):
        d["mode"] = "exact"
    elif getattr(args, "float_mode", False):
        d["mode"] = "float"
    config = config_from_json_dict(d)
    with _parsing():
        block = SampleBlock.from_json_dict(_load_json(args.block))
    verdict = decode(config, block)
    _emit(verdict.to_json_dict(config.f.codomain), args.out, "verdict.json")
    return 0


def cmd_build_config(args) -> int:
    pmf, f, default = _load_pmf_and_function(args)
    structure = _structure_from_args(args, pmf.k - 1, default)
    from .decoder import build_decoder_config

    config = build_decoder_config(pmf, f, structure, args.delta)
    _emit(config_to_json_dict(config), args.out, "decoder_config.json")
    return 0


def cmd_mss(args) -> int:
    with _parsing():
        pmf = JointPmf.from_json_dict(_load_json(args.pmf))
    out: dict = {}
    if pmf.k == 2:
        part = mss_partition(pmf)
        out["partition"] = {"classes": part.class_of.tolist(),
                            "class_count": part.class_count}
    elif pmf.k == 3:
        up = upgrade_to_saturation(pmf)
        out["psi_u"] = up.psi_u.class_of.tolist()
        out["psi_v"] = up.psi_v.class_of.tolist()
        out["saturation_round"] = up.saturation_round
        out["ystar"] = {"classes": up.ystar_labels.reshape(-1).tolist(),
                        "class_count": up.ystar_count}
    else:
        cu = common_upgrade(pmf)
        out["gstar"] = {"classes": cu.gstar.reshape(-1).tolist(),
                        "class_count": cu.gstar_count}
        out["pairs"] = [{"users": [p.i, p.j],
                         "ystar_classes": p.ystar_full.reshape(-1).tolist()}
                        for p in cu.pairs]
    _emit(out, args.out, "mss.json")
    return 0


def cmd_simulate(args) -> int:
    d = _load_json(args.scenario)
    if args.seed is not None:
        d["seed"] = args.seed
    with _parsing():
        scenario = scenario_from_json_dict(d, witness_lookup=_witness_resolver)
    report = run_scenario(scenario, threads=args.threads)
    _emit(report.to_json_dict(), args.out, f"{scenario.name}.json")
    if args.out:
        (Path(args.out) / f"{scenario.name}.csv").write_text(report.records_csv())
    return 0


def _witness_resolver(d: dict):
    """witness_dmc strategies name the function whose violation to replay.

    Runs while a scenario is parsed, but the verdict is not parsing: a
    type fault inside check_viability is re-raised as an internal error
    so that it keeps its traceback instead of reading as malformed input.
    """
    ref = d.get("from_example")
    if not ref:
        raise ScenarioError("witness_dmc needs from_example: 'name:function'")
    pmf, f, structure = resolve_example(ref)
    try:
        report = check_viability(pmf, f, structure)
    except _MALFORMED as e:
        raise RuntimeError(f"checking {ref} failed") from e
    if report.viable:
        raise ScenarioError(f"{ref} is viable; no witness to extract")
    return report.witness


def cmd_sweep(args) -> int:
    d = _load_json(args.scenario)
    if args.seed is not None:
        d["seed"] = args.seed
    with _parsing():
        base = scenario_from_json_dict(d, witness_lookup=_witness_resolver)
    values = [v for v in args.values.split(",") if v]
    reports = sweep(base, args.axis, values, threads=args.threads)
    _emit([r.to_json_dict() for r in reports], args.out, f"{base.name}-sweep.json")
    if args.out:
        for r in reports:
            (Path(args.out) / f"{r.name}.csv").write_text(r.records_csv())
    return 0


def cmd_examples(args) -> int:
    cat = builtin_examples()
    if args.action == "list":
        _emit([{"name": e.name, "functions": sorted(e.functions),
                "k": e.structure.k, "note": e.note} for e in cat.values()],
              args.out, "examples.json")
        return 0
    if args.name not in cat:
        raise ScenarioError(f"unknown example {args.name!r}")
    entry = cat[args.name]
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{entry.name}.pmf.json").write_text(json.dumps(entry.pmf.to_json_dict()))
    for fname, fn in entry.functions.items():
        (outdir / f"{entry.name}.{fname}.json").write_text(json.dumps(fn.to_json_dict()))
    (outdir / f"{entry.name}.structure.json").write_text(
        json.dumps(entry.structure.to_json_dict()))
    print(str(outdir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="byzfc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, pmf_fn=True):
        if pmf_fn:
            p.add_argument("--pmf", help="pmf JSON file")
            p.add_argument("--function", help="function JSON file")
            p.add_argument("--example", help="builtin example name[:function]")
        p.add_argument("--out", help="output directory (default: stdout)")

    p = sub.add_parser("check-viability", help="decide robust recoverability")
    add_common(p)
    p.add_argument("--threshold", type=int, help="threshold s")
    p.add_argument("--structure", help="structure JSON file")
    p.set_defaults(func=cmd_check_viability)

    p = sub.add_parser("build-g", help="repaired decoding table for a collection")
    add_common(p)
    p.add_argument("--collection", required=True,
                   help='JSON list of adversary sets, e.g. "[[1,2],[0]]"')
    p.set_defaults(func=cmd_build_g)

    p = sub.add_parser("decode", help="decode one reported block")
    p.add_argument("--config", required=True, help="decoder config JSON")
    p.add_argument("--block", required=True, help="block JSON")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact-rational membership tests")
    mode.add_argument("--float", dest="float_mode", action="store_true",
                      help="float membership tests with slack (default)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("build-config", help="precompute a decoder config")
    add_common(p)
    p.add_argument("--threshold", type=int)
    p.add_argument("--structure")
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=cmd_build_config)

    p = sub.add_parser("mss", help="partitions / upgraded variables of a pmf")
    p.add_argument("--pmf", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mss)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("scenario")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a scenario across an axis")
    p.add_argument("scenario")
    p.add_argument("--axis", required=True, choices=("n", "delta", "gamma"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("examples", help="builtin example catalog")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except LPError as e:
        print(f"internal LP failure: {e}", file=sys.stderr)
        return 3
    except CONFIG_ERRORS as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
