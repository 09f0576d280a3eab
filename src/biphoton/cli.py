"""Batch command-line front end.

Subcommands: predict, simulate-tomo, reconstruct, resample, simulate-g2,
fit-g2, beat-params.  Every command is deterministic for a fixed --seed
(default from the BIPHOTON_SEED environment variable, else 12345), and every
output artifact embeds the tool version, the command line, the seed, and a
SHA-256 digest of each input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__, entanglement, polstate, timecorr, tomography
from .angmom import PATH_X, PATH_Y, CascadeLevels
from .polstate import BiphotonKet, Projector, min_eigenvalue

DEFAULT_SEED = 12345

_PATHS = {"X": PATH_X, "Y": PATH_Y}


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BIPHOTON_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"BIPHOTON_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _meta(args, seed: int | None, inputs: list[str]) -> dict:
    return {
        "tool": "biphoton",
        "version": __version__,
        "command": " ".join(args._argv),
        "seed": seed,
        "inputs": {path: f"sha256:{_sha256(path)}" for path in inputs},
    }


def _meta_comments(meta: dict) -> list[str]:
    lines = [
        f"tool: {meta['tool']} {meta['version']}",
        f"command: {meta['command']}",
        f"seed: {meta['seed']}",
    ]
    for path, digest in meta["inputs"].items():
        lines.append(f"input: {path} {digest}")
    return lines


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_levels(spec: str) -> CascadeLevels:
    parts = spec.split(",")
    try:
        values = [float(Fraction(part.strip())) for part in parts]
    except (ValueError, ZeroDivisionError, OverflowError):
        values = []
    if len(values) != 4:
        raise ValueError(f"--levels expects 4 comma-separated finite numbers or fractions such as 5/2, got {spec!r}")
    return CascadeLevels.of(*values)


def _load_ket(path: str) -> BiphotonKet:
    """Accept either a bare ket JSON or the payload written by `predict`."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "ket_circular" in data:
            data = data["ket_circular"]
        return polstate.ket_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: not a biphoton ket: {exc}") from None


def _resolve_ket(ket_file, path, levels) -> tuple[BiphotonKet | None, list[str]]:
    """The ket of a JSON file, else the predicted state of a decay path or of
    --levels, else None; with the list of files read."""
    if ket_file is not None:
        return _load_ket(ket_file), [ket_file]
    if path is None and levels is None:
        return None, []
    cascade = _PATHS[path] if path else _parse_levels(levels)
    return polstate.ket_from_path(polstate.predict_path_state(cascade)), []


def _parse_projector(spec: str) -> Projector:
    spec = spec.strip()
    if spec.upper() in "HVDALR" and len(spec) == 1:
        return polstate.named_projector(spec.upper())
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"projector spec must be one of H,V,D,A,L,R or 'hre,him,vre,vim', got {spec!r}"
        )
    vals = [float(p) for p in parts]
    return Projector.normalized(complex(vals[0], vals[1]), complex(vals[2], vals[3]))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_predict(args) -> int:
    if args.path:
        levels = _PATHS[args.path]
    else:
        levels = _parse_levels(args.levels)
    path_state = polstate.predict_path_state(levels)
    ket = polstate.ket_from_path(path_state)
    payload = {
        "meta": _meta(args, None, []),
        "levels": list(levels.f_values),
        "path_amplitudes": {
            "a0": path_state.a0, "a1": path_state.a1, "phi0": path_state.phi0,
        },
        "ket_circular": polstate.ket_to_dict(ket),
        "ket_linear": polstate.ket_to_dict(polstate.change_basis(ket, polstate.LINEAR)),
        "metrics": entanglement.indicators(polstate.density_from_ket(ket)),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_simulate_tomo(args) -> int:
    seed = _resolve_seed(args)
    ket, inputs = _resolve_ket(args.ket, args.path, args.levels)
    rho = polstate.density_from_ket(ket)
    settings = tomography.standard_settings(args.settings)
    records = tomography.simulate_counts(rho, settings, args.n, seed)
    meta = _meta(args, seed, inputs)
    tomography.write_counts_csv(records, args.out, comments=_meta_comments(meta))
    return 0


def _subtract_background(records, level: float):
    if level < 0:
        raise ValueError(f"--subtract-background must be non-negative, got {level!r}")
    if level == 0:
        return records
    return [
        tomography.CountsRecord(
            rec.setting, max(0.0, rec.counts - level * rec.exposure), rec.exposure
        )
        for rec in records
    ]


def _counts_and_target(args):
    """Seed, counts records, fidelity target (or None) and meta block of reconstruct and resample."""
    seed = _resolve_seed(args)
    records = tomography.read_counts_csv(args.counts)
    target, target_inputs = _resolve_ket(args.target, args.target_path, None)
    return seed, records, target, _meta(args, seed, [args.counts] + target_inputs)


def _resampled_metrics(args, records, seed: int, target) -> dict:
    """Bootstrap mean and standard deviation of each indicator over --resamples resamples."""
    stats = tomography.resample_uncertainties(records, args.resamples, seed, target=target)
    return {name: {"mean": st.mean, "std": st.std} for name, st in stats.items()}


def _cmd_reconstruct(args) -> int:
    seed, records, target, meta = _counts_and_target(args)
    records = _subtract_background(records, args.subtract_background)

    payload: dict = {"meta": meta, "method": args.method}
    if args.method == "linear":
        rho = tomography.reconstruct_linear(records)
    else:
        result = tomography.reconstruct_mle(records)
        rho = result.rho
        payload["log_likelihood"] = result.log_likelihood
        payload["iterations"] = result.iterations

    metrics = entanglement.indicators(rho, target)

    if args.resamples:
        payload["resampled_metrics"] = _resampled_metrics(args, records, seed, target)

    payload.update(
        {
            "rho": polstate.density_to_dict(rho),
            "min_eigenvalue": min_eigenvalue(rho),
            "physical": min_eigenvalue(rho) >= -1e-9,
            "metrics": metrics,
        }
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_resample(args) -> int:
    seed, records, target, meta = _counts_and_target(args)
    metrics = _resampled_metrics(args, records, seed, target)
    _emit_json({"meta": meta, "n_resamples": args.resamples, "metrics": metrics}, args.out)
    return 0


# simulate-g2 parameters without --preset; a model flag replaces its field.
_SIMULATE_MODELS = {
    "single": timecorr.SinglePathParams(g0=1000.0, tau_rise=3.1, tau_decay=5.6),
    "beats": timecorr.BeatModelParams(g0=1000.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0),
}
_MODEL_FLAGS = ("g0", "tau_rise", "tau_decay", "tau_x", "tau_y", "r", "phi", "delta", "background")


def _model_from_args(args):
    if args.preset:
        if args.model is not None:
            raise ValueError("--model cannot be combined with --preset")
        preset = timecorr.FIGURE_PRESETS[args.preset]
        model = preset.model
        bin_width = args.bin_width if args.bin_width is not None else preset.bin_width
        t_min = args.t_min if args.t_min is not None else preset.t_range[0]
        t_max = args.t_max if args.t_max is not None else preset.t_range[1]
    elif args.model is None:
        raise ValueError("specify --preset or --model")
    elif args.bin_width is None or args.t_min is None or args.t_max is None:
        raise ValueError("--bin-width, --t-min and --t-max are required without --preset")
    else:
        model = _SIMULATE_MODELS[args.model]
        bin_width, t_min, t_max = args.bin_width, args.t_min, args.t_max
    given = {name: getattr(args, name) for name in _MODEL_FLAGS if getattr(args, name) is not None}
    for name in given:
        if name not in model.__dataclass_fields__:
            raise ValueError(f"--{name.replace('_', '-')} is not a parameter of the "
                             f"{type(model).__name__} model")
    return replace(model, **given), bin_width, (t_min, t_max)


def _cmd_simulate_g2(args) -> int:
    seed = _resolve_seed(args)
    model, bin_width, t_range = _model_from_args(args)
    hist = timecorr.simulate_histogram(model, bin_width, t_range, seed)
    meta = _meta(args, seed, [])
    timecorr.write_histogram_csv(hist, args.out, comments=_meta_comments(meta))
    return 0


def _cmd_fit_g2(args) -> int:
    hist = timecorr.read_histogram_csv(args.hist)
    if args.preset:
        preset_model = timecorr.FIGURE_PRESETS[args.preset].model
        model_kind = "single" if isinstance(preset_model, timecorr.SinglePathParams) else "beats"
    else:
        preset_model = None
        model_kind = args.model
    if model_kind is None:
        raise ValueError("specify --preset or --model")

    if model_kind == "single":
        if preset_model is not None:
            init = preset_model if args.g0 is None else replace(preset_model, g0=args.g0)
        elif args.g0 is not None:
            init = timecorr.SinglePathParams(
                g0=args.g0, tau_rise=args.tau_rise, tau_decay=args.tau_decay,
                background=args.background,
            )
        else:
            init = timecorr.estimate_single_init(hist)
        fit = timecorr.fit_single(hist, init, fit_offset=args.fit_offset)
    else:
        if preset_model is not None:
            base = preset_model
        else:
            if args.tau_x is None or args.tau_y is None or args.r is None or args.phi is None:
                raise ValueError(
                    "beats fit needs --preset or all of --tau-x, --tau-y, --r, --phi"
                )
            base = timecorr.BeatModelParams(
                g0=args.g0 if args.g0 is not None else 1.0,
                tau_x=args.tau_x, tau_y=args.tau_y, r=args.r, phi=args.phi,
                delta=args.delta, background=args.background,
            )
        free = tuple(name.strip() for name in args.free.split(",") if name.strip())
        fit = timecorr.fit_beats(hist, base, free=free, fit_offset=args.fit_offset)

    payload = {
        "meta": _meta(args, None, [args.hist]),
        "model": model_kind,
        "fit": fit.to_dict(),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_beat_params(args) -> int:
    if args.r is not None or args.phi is not None:
        if args.r is None or args.phi is None:
            raise ValueError("--r and --phi must be given together")
        if args.r < 0:
            raise ValueError("--r must be non-negative")
        payload = {
            "meta": _meta(args, None, []),
            "source": "user",
            "r": args.r,
            "phi": polstate._wrap_phase(args.phi),
        }
        _emit_json(payload, args.out)
        return 0

    ket_x, inputs_x = _resolve_ket(args.ket_x, args.path_x, None)
    ket_y, inputs_y = _resolve_ket(args.ket_y, args.path_y, None)
    proj_s = _parse_projector(args.proj_s)
    proj_i = _parse_projector(args.proj_i)
    r, phi = polstate.beat_params(ket_x, ket_y, proj_s, proj_i)
    payload = {
        "meta": _meta(args, None, inputs_x + inputs_y),
        "source": "projection",
        "proj_s": polstate.projector_to_dict(proj_s),
        "proj_i": polstate.projector_to_dict(proj_i),
        "r": r,
        "phi": phi,
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_state_source(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", choices=("X", "Y"), help="predicted state of a decay path")
    group.add_argument("--levels", help="cascade F values, e.g. 2,2,3,3")
    group.add_argument("--ket", help="JSON file with a biphoton ket")


def _add_target(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--target-path", choices=("X", "Y"), help="fidelity target: predicted path state")
    group.add_argument("--target", help="fidelity target: ket JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Cascade photon-pair source: state prediction, tomography, "
                    "and time-correlation analysis.",
    )
    parser.add_argument("--version", action="version", version=f"biphoton {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("predict", help="predict the polarization state of a decay path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", choices=("X", "Y"))
    group.add_argument("--levels", help="cascade F values, e.g. 2,2,3,3")
    p.add_argument("--out", help="output JSON file (default: stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate-tomo", help="simulate tomography coincidence counts")
    _add_state_source(p)
    p.add_argument("--settings", choices=("minimal16", "overcomplete36"),
                   default="overcomplete36")
    p.add_argument("--n", type=float, default=1e5, help="mean counts per setting (default 1e5)")
    p.add_argument("--seed", type=int, help="random seed (default: BIPHOTON_SEED or 12345)")
    p.add_argument("--out", required=True, help="output counts CSV")
    p.set_defaults(func=_cmd_simulate_tomo)

    p = sub.add_parser("reconstruct", help="reconstruct a state from coincidence counts")
    p.add_argument("--counts", required=True, help="counts CSV file")
    p.add_argument("--method", choices=("mle", "linear"), default="mle")
    p.add_argument("--resamples", type=int, default=0,
                   help="bootstrap resamples for metric uncertainties (default 0: skip)")
    p.add_argument("--seed", type=int, help="random seed for resampling")
    p.add_argument("--subtract-background", type=float, default=0.0,
                   help="flat accidental level per unit exposure to subtract, clamped at zero")
    _add_target(p)
    p.add_argument("--out", help="output JSON file (default: stdout)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("resample", help="bootstrap metric uncertainties from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--resamples", type=int, required=True)
    p.add_argument("--seed", type=int)
    _add_target(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("simulate-g2", help="simulate a coincidence histogram")
    p.add_argument("--preset", choices=sorted(timecorr.FIGURE_PRESETS),
                   help="published-figure parameter bundle")
    p.add_argument("--model", choices=("single", "beats"))
    for flag in _MODEL_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=float,
                       help="model parameter (times in ns, delta in rad/ns); "
                            "replaces the preset's or the default value")
    p.add_argument("--bin-width", type=float, help="bin width in ns")
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output histogram CSV")
    p.set_defaults(func=_cmd_simulate_g2)

    p = sub.add_parser("fit-g2", help="fit a coincidence histogram")
    p.add_argument("--hist", required=True, help="histogram CSV file")
    p.add_argument("--preset", choices=sorted(timecorr.FIGURE_PRESETS),
                   help="take model kind and fixed parameters from a preset")
    p.add_argument("--model", choices=("single", "beats"))
    p.add_argument("--g0", type=float, help="initial amplitude (default: estimated)")
    p.add_argument("--tau-rise", type=float, default=3.0)
    p.add_argument("--tau-decay", type=float, default=6.0)
    p.add_argument("--tau-x", type=float)
    p.add_argument("--tau-y", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--delta", type=float, default=timecorr.DEFAULT_DELTA)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--free", default="g0,background",
                   help="comma-separated free parameters for the beats fit "
                        "(default: g0,background)")
    p.add_argument("--fit-offset", action="store_true",
                   help="also fit a time-axis offset (default: axis taken as exact)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit_g2)

    p = sub.add_parser("beat-params", help="beat amplitude ratio and phase from projections")
    p.add_argument("--ket-x", help="JSON ket of the reference path")
    p.add_argument("--path-x", choices=("X", "Y"), default="X")
    p.add_argument("--ket-y", help="JSON ket of the second path")
    p.add_argument("--path-y", choices=("X", "Y"), default="Y")
    p.add_argument("--proj-s", help="signal projector: H,V,D,A,L,R or 'hre,him,vre,vim'")
    p.add_argument("--proj-i", help="idler projector")
    p.add_argument("--r", type=float, help="pass a user-supplied relative amplitude through")
    p.add_argument("--phi", type=float, help="pass a user-supplied relative phase through")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_beat_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if args.subcommand == "beat-params" and args.r is None and args.phi is None:
        if not args.proj_s or not args.proj_i:
            parser.error("beat-params needs --proj-s and --proj-i (or --r and --phi)")
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value!r}")
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
