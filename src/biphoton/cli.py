"""Batch command-line front end.

Subcommands: predict, simulate-tomo, reconstruct, simulate-g2, fit-g2,
beat-params.  Every command is deterministic for a fixed --seed (default
12345), and every output artifact embeds the tool version, the command line,
the seed, and a SHA-256 digest of each input file.

Each handler imports the modules it runs, so that a cold invocation loads
only those: the histogram commands never load tomography, nor the state
commands timecorr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .angmom import CascadeLevels
    from .polstate import BiphotonKet, Projector

DEFAULT_SEED = 12345


def _path_levels(path: str) -> CascadeLevels:
    from .angmom import PATH_X, PATH_Y

    return {"X": PATH_X, "Y": PATH_Y}[path]


def _resolve_seed(args) -> int:
    if args.seed is None:
        return DEFAULT_SEED
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _sha256(path: str) -> str:
    import hashlib

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
    from fractions import Fraction

    from .angmom import CascadeLevels

    parts = spec.split(",")
    try:
        values = [float(Fraction(part.strip())) for part in parts]
    except (ValueError, ZeroDivisionError, OverflowError):
        values = []
    if len(values) != 4:
        raise ValueError(f"--levels expects 4 comma-separated finite numbers or fractions such as 5/2, got {spec!r}")
    try:
        return CascadeLevels.of(*values)
    except ValueError as exc:
        raise ValueError(f"--levels {spec!r}: {exc}") from None


def _load_ket(path: str) -> BiphotonKet:
    """Accept either a bare ket JSON or the payload written by `predict`."""
    from . import polstate

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
    from . import polstate

    if ket_file is not None:
        return _load_ket(ket_file), [ket_file]
    if path is None and levels is None:
        return None, []
    cascade = _path_levels(path) if path else _parse_levels(levels)
    return polstate.ket_from_path(polstate.predict_path_state(cascade)), []


def _parse_projector(flag: str, spec: str) -> Projector:
    from . import polstate

    spec = spec.strip()
    if spec.upper() in "HVDALR" and len(spec) == 1:
        return polstate.named_projector(spec.upper())
    try:
        h_re, h_im, v_re, v_im = (float(part) for part in spec.split(","))
        return polstate.Projector.normalized(complex(h_re, h_im), complex(v_re, v_im))
    except ValueError:
        raise ValueError(f"{flag} must be one of H,V,D,A,L,R or 4 finite numbers 'hre,him,vre,vim', "
                         f"not all zero; got {spec!r}") from None


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_predict(args) -> int:
    from . import entanglement, polstate

    levels = _path_levels(args.path) if args.path else _parse_levels(args.levels)
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
    from . import polstate, tomography

    seed = _resolve_seed(args)
    if not args.n > 0:
        raise ValueError(f"--n must be positive, got {args.n!r}")
    ket, inputs = _resolve_ket(args.ket, args.path, args.levels)
    rho = polstate.density_from_ket(ket)
    settings = tomography.standard_settings(args.settings)
    records = tomography.simulate_counts(rho, settings, args.n, seed)
    meta = _meta(args, seed, inputs)
    tomography.write_counts_csv(records, args.out, comments=_meta_comments(meta))
    return 0


def _subtract_background(records, level: float):
    from .tomography import CountsRecord

    if level < 0:
        raise ValueError(f"--subtract-background must be non-negative, got {level!r}")
    if level == 0:
        return records
    return [
        CountsRecord(
            rec.setting, max(0.0, rec.counts - level * rec.exposure), rec.exposure
        )
        for rec in records
    ]


def _cmd_reconstruct(args) -> int:
    from . import entanglement, polstate, tomography

    seed = _resolve_seed(args)
    if args.resamples and args.method == "linear":
        raise ValueError("--resamples is the MLE bootstrap and cannot be combined with --method linear")
    if args.resamples < 0 or args.resamples == 1:
        raise ValueError(f"--resamples must be 0 or at least 2, got {args.resamples}")
    records = tomography.read_counts_csv(args.counts)
    target, target_inputs = _resolve_ket(args.target, args.target_path, None)
    records = _subtract_background(records, args.subtract_background)

    payload: dict = {"meta": _meta(args, seed, [args.counts] + target_inputs), "method": args.method}
    if args.method == "linear":
        rho = tomography.reconstruct_linear(records)
    else:
        result = tomography.reconstruct_mle(records)
        rho = result.rho
        payload["log_likelihood"] = result.log_likelihood
        payload["iterations"] = result.iterations

    metrics = entanglement.indicators(rho, target)

    if args.resamples:
        stats = tomography.resample_uncertainties(records, args.resamples, seed, target=target)
        payload["resampled_metrics"] = {name: {"mean": st.mean, "std": st.std} for name, st in stats.items()}

    payload.update(
        {
            "rho": polstate.density_to_dict(rho),
            "min_eigenvalue": polstate.min_eigenvalue(rho),
            "physical": polstate.min_eigenvalue(rho) >= -1e-9,
            "metrics": metrics,
        }
    )
    _emit_json(payload, args.out)
    return 0


_MODEL_FLAGS = ("g0", "tau_rise", "tau_decay", "tau_x", "tau_y", "r", "phi", "delta", "background")


def _simulate_model(kind: str):
    """simulate-g2 parameters without --preset; a model flag replaces its field."""
    from . import timecorr

    if kind == "single":
        return timecorr.SinglePathParams(g0=1000.0, tau_rise=3.1, tau_decay=5.6)
    return timecorr.BeatModelParams(g0=1000.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0)


def _preset(args):
    """The figure preset of --preset, or None under --model: exactly one of the two is
    given.  The preset is checked here so that the parser needs no timecorr."""
    from .timecorr import FIGURE_PRESETS

    if not args.preset:
        if args.model is None:
            raise ValueError("specify --preset or --model")
        return None
    if args.model is not None:
        raise ValueError("--model cannot be combined with --preset")
    if args.preset not in FIGURE_PRESETS:
        raise ValueError(f"--preset must be one of {', '.join(sorted(FIGURE_PRESETS))}, got {args.preset!r}")
    return FIGURE_PRESETS[args.preset]


def _with_model_flags(args, model):
    """``model`` with each model flag given replacing its field; a value the
    model rejects is reported under its flag."""
    given = {name: getattr(args, name) for name in _MODEL_FLAGS if getattr(args, name) is not None}
    for name in given:
        if name not in model.__dataclass_fields__:
            raise ValueError(f"--{name.replace('_', '-')} is not a parameter of the "
                             f"{type(model).__name__} model")
    try:
        return replace(model, **given)
    except ValueError as exc:  # the model names the rejected field, a given one, first
        name, _, rule = str(exc).partition(" ")
        raise ValueError(f"--{name.replace('_', '-')} {rule}") from None


def _cmd_simulate_g2(args) -> int:
    from . import timecorr

    seed = _resolve_seed(args)
    preset = _preset(args)
    if preset is not None:
        model = preset.model
        bin_width = args.bin_width if args.bin_width is not None else preset.bin_width
        t_min = args.t_min if args.t_min is not None else preset.t_range[0]
        t_max = args.t_max if args.t_max is not None else preset.t_range[1]
    elif None in (args.bin_width, args.t_min, args.t_max):
        raise ValueError("--bin-width, --t-min and --t-max are required without --preset")
    else:
        model = _simulate_model(args.model)
        bin_width, t_min, t_max = args.bin_width, args.t_min, args.t_max
    hist = timecorr.simulate_histogram(_with_model_flags(args, model), bin_width, (t_min, t_max), seed)
    meta = _meta(args, seed, [])
    timecorr.write_histogram_csv(hist, args.out, comments=_meta_comments(meta))
    return 0


def _cmd_fit_g2(args) -> int:
    """Fit from the preset's model, else from the estimate of a single-path
    histogram or a beats model with the shape flags given; a model flag
    replaces its field of that start."""
    from . import timecorr

    preset = _preset(args)
    hist = timecorr.read_histogram_csv(args.hist)
    if preset is not None:
        start = preset.model
    elif args.model == "single":
        start = timecorr.estimate_single_init(hist)
    elif None in (args.tau_x, args.tau_y, args.r, args.phi):
        raise ValueError("beats fit needs --preset or all of --tau-x, --tau-y, --r, --phi")
    else:  # the four shape flags replace the placeholders
        start = timecorr.BeatModelParams(g0=1.0, tau_x=1.0, tau_y=1.0, r=0.0, phi=0.0)
    model = _with_model_flags(args, start)

    if isinstance(model, timecorr.SinglePathParams):
        model_kind = "single"
        fit = timecorr.fit_single(hist, model, fit_offset=args.fit_offset)
    else:
        model_kind = "beats"
        free = tuple(name.strip() for name in args.free.split(",") if name.strip())
        try:
            timecorr._check_free(free)
        except ValueError as exc:
            raise ValueError(f"--free {args.free!r}: {exc}") from None
        fit = timecorr.fit_beats(hist, model, free=free, fit_offset=args.fit_offset)

    payload = {
        "meta": _meta(args, None, [args.hist]),
        "model": model_kind,
        "fit": fit.to_dict(),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_beat_params(args) -> int:
    from . import polstate

    ket_x, inputs_x = _resolve_ket(args.ket_x, args.path_x, None)
    ket_y, inputs_y = _resolve_ket(args.ket_y, args.path_y, None)
    proj_s = _parse_projector("--proj-s", args.proj_s)
    proj_i = _parse_projector("--proj-i", args.proj_i)
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


def _add_model_flags(parser) -> None:
    parser.add_argument("--model", choices=("single", "beats"))
    for flag in _MODEL_FLAGS:
        parser.add_argument("--" + flag.replace("_", "-"), type=float,
                            help="model parameter (times in ns, delta in rad/ns); replaces "
                                 "its value in the preset's or --model's starting model")


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
    p.add_argument("--seed", type=int, help="random seed (default 12345)")
    p.add_argument("--out", required=True, help="output counts CSV")
    p.set_defaults(func=_cmd_simulate_tomo)

    p = sub.add_parser("reconstruct", help="reconstruct a state from coincidence counts")
    p.add_argument("--counts", required=True, help="counts CSV file")
    p.add_argument("--method", choices=("mle", "linear"), default="mle")
    p.add_argument("--resamples", type=int, default=0,
                   help="MLE bootstrap resamples for metric uncertainties: 0 (the default, "
                        "skip) or at least 2; not with --method linear")
    p.add_argument("--seed", type=int, help="random seed for resampling")
    p.add_argument("--subtract-background", type=float, default=0.0,
                   help="flat accidental level per unit exposure to subtract, clamped at zero")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--target-path", choices=("X", "Y"), help="fidelity target: predicted path state")
    group.add_argument("--target", help="fidelity target: ket JSON file")
    p.add_argument("--out", help="output JSON file (default: stdout)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("simulate-g2", help="simulate a coincidence histogram")
    p.add_argument("--preset", help="published-figure parameter bundle, e.g. fig3")
    _add_model_flags(p)
    p.add_argument("--bin-width", type=float, help="bin width in ns")
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output histogram CSV")
    p.set_defaults(func=_cmd_simulate_g2)

    p = sub.add_parser("fit-g2", help="fit a coincidence histogram")
    p.add_argument("--hist", required=True, help="histogram CSV file")
    p.add_argument("--preset", help="take model kind and fixed parameters from a preset")
    _add_model_flags(p)
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
    p.add_argument("--proj-s", required=True, help="signal projector: H,V,D,A,L,R or 'hre,him,vre,vim'")
    p.add_argument("--proj-i", required=True, help="idler projector")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_beat_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
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
