"""Command-line interface.

Subcommands:
  sr     super-resolve one LR depth map against an HR color guide
  bench  run the degradation benchmark over a manifest
  fit    fit lambda / head parameters on a manifest's train split
  dct    dump forward or inverse transform coefficients to PFM

bench runs its entries on a pool of --threads workers (default: logical
cores), never more workers than entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bench import (
    ERROR_MARKER,
    MEAN_ROW_ID,
    PipelineConfig,
    fit_feature_params,
    fit_image_lambda,
    load_configs,
    load_manifest,
    predict,
    rmse,
    run_bench,
    save_params,
    _METHOD_ALIASES,
)
from .feature_bank import GRID_POINTS, HEAD_GAMMA, SWEEPS
from .guidance import EDGE_MODES
from .imgio import load_image, load_luminance, load_pfm_grid, save_error_map, save_image
from .dct import dct2_forward, dct2_inverse
from .resample import bicubic_upsample, check_scale
from .spectral import SYMBOL_MODES


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """Flags of PipelineConfig fields, each stored under its field's name."""
    p.add_argument("--edge", dest="edge_mode", choices=EDGE_MODES,
                   default=PipelineConfig.edge_mode,
                   help="edge attention mode (default: %(default)s)")
    p.add_argument("--tau-q", dest="tau_quantile", type=float,
                   default=PipelineConfig.tau_quantile,
                   help="edge threshold quantile in (0,1) (default: %(default)s)")
    p.add_argument("--alpha", dest="steepness", type=float, default=PipelineConfig.steepness,
                   help="soft-mode logistic steepness (default: %(default)s)")
    p.add_argument("--symbol", dest="symbol_mode", choices=SYMBOL_MODES,
                   default=PipelineConfig.symbol_mode,
                   help="spectral symbol mode (default: %(default)s)")
    p.add_argument("--no-antialias", dest="antialias", action="store_false",
                   help="disable antialiasing in bicubic downsampling")


def _config_from_args(args, method: str, scale: int | None) -> PipelineConfig:
    """``method``'s config at ``scale``, from the fields ``args`` has flags for."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)
             if hasattr(args, f.name)}
    return PipelineConfig(**dict(given, method=method, scale=scale))


def _cmd_sr(args) -> int:
    if args.errmap is not None and args.gt is None:
        raise SystemExit("--errmap requires --gt")
    s = check_scale(args.scale)
    depth = load_image(args.depth)
    guide = load_luminance(args.rgb)
    if depth.ndim == 3:
        raise SystemExit(f"--depth must be a grayscale depth file: {args.depth}")
    if guide is None:
        raise SystemExit(f"--rgb must be a color image: {args.rgb}")
    m, n = depth.shape
    hr = guide.shape
    if hr != (m * s, n * s):
        raise SystemExit(f"guide {hr} is not the depth size {depth.shape} times scale {s}")
    gt = None if args.gt is None else load_image(args.gt)
    if gt is not None and gt.ndim == 3:
        raise SystemExit(f"--gt must be a grayscale depth file: {args.gt}")
    if gt is not None and gt.shape != hr:
        raise SystemExit(f"--gt {gt.shape} does not match the guide {hr}: {args.gt}")
    # checked here, as rmse and save_error_map would check them after --out is written
    border_limit = (min(hr) - 1) // 2
    if gt is not None and not 0 <= args.crop_border <= border_limit:
        raise SystemExit(f"--crop-border must be in [0, {border_limit}] for the guide "
                         f"{hr}, got {args.crop_border}")
    if args.errmap is not None and not (np.isfinite(args.max_err) and args.max_err > 0.0):
        raise SystemExit(f"--max-err must be finite and positive, got {args.max_err}")
    up = np.maximum(bicubic_upsample(depth, s), 0.0)
    cfg = _config_from_args(args, _METHOD_ALIASES[args.method], s)
    pred = predict(up, guide, cfg)
    save_image(pred, args.out, args.format)
    if gt is not None:
        print(f"rmse {rmse(pred, gt, args.crop_border)!r}")
        if args.errmap is not None:
            save_error_map(pred, gt, args.errmap, args.max_err)
    return 0


def _cmd_bench(args) -> int:
    try:
        scales = [int(tok) for tok in args.scales.split(",") if tok]
    except ValueError:
        raise SystemExit(f"--scales must be comma-separated integers, got {args.scales!r}")
    manifest = load_manifest(args.manifest)
    configs = load_configs(args.config)
    records = run_bench(manifest, scales, configs, args.out,
                        threads=args.threads, timing=not args.no_timing)
    for r in records:
        if r.error is not None:
            cause = " ".join(r.error.splitlines())
            print(f"{r.dataset} {r.image_id} x{r.scale} {r.method} [{r.config_hash}] "
                  f"failed: {cause}", file=sys.stderr)
    means = [r for r in records if r.image_id == MEAN_ROW_ID]
    for r in means:
        shown = ERROR_MARKER if r.rmse is None else f"{r.rmse:.4f}"
        print(f"{r.dataset} x{r.scale} {r.method} [{r.config_hash}] mean rmse {shown}")
    return 0


def _cmd_fit(args) -> int:
    if args.method == "image":
        for flag, value, default in (("--gamma", args.gamma, HEAD_GAMMA),
                                     ("--sweeps", args.sweeps, SWEEPS),
                                     ("--mode", args.mode, "both")):
            if value != default:
                raise SystemExit(f"{flag} applies to --method feature only, got {value!r}")
    manifest = load_manifest(args.manifest)
    s = check_scale(args.scale)
    cfg = _config_from_args(args, _METHOD_ALIASES[args.method], s)
    if args.method == "image":
        lam = fit_image_lambda(manifest, cfg, grid_points=args.grid_points)
        save_params(args.out, cfg, lam)
        print(f"fitted lambda {lam!r}")
        return 0
    lambdas, head, trace = fit_feature_params(
        manifest, cfg,
        head_gamma=args.gamma,
        grid_points=args.grid_points,
        sweeps=args.sweeps,
        fit_lambdas=args.mode == "both",
    )
    save_params(args.out, cfg, (lambdas, head))
    if trace:
        print(f"fit rmse {trace[0]!r} -> {trace[-1]!r} over {len(trace) - 1} accepted moves")
    else:
        print("head-only fit complete")
    return 0


def _cmd_dct(args) -> int:
    if args.inverse:
        grid = load_pfm_grid(args.infile)
        out = dct2_inverse(grid)
    else:
        img = load_image(args.infile)
        if img.ndim == 3:
            raise SystemExit("dct expects a grayscale input")
        out = dct2_forward(img)
    save_image(out, args.out, "pfm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdsr",
                                     description="Guided depth map super-resolution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sr", help="super-resolve one depth map")
    p.add_argument("--depth", required=True, help="LR depth input (PGM/PFM)")
    p.add_argument("--rgb", required=True, help="HR color guide (PPM)")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), default="image")
    p.add_argument("--lambda", dest="lam", type=float, default=PipelineConfig.lam,
                   help="regularization weight for --method image (default: %(default)s)")
    p.add_argument("--params", dest="params_path", help="fitted parameter file")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="prediction output path")
    p.add_argument("--format", choices=("pgm8", "pgm16", "pfm"), default="pgm16")
    p.add_argument("--gt", default=None, help="ground truth for RMSE / error map")
    p.add_argument("--errmap", default=None, help="error map output path (PGM)")
    p.add_argument("--max-err", type=float, default=0.1,
                   help="error map saturation level (default: %(default)s)")
    p.add_argument("--crop-border", type=int, default=PipelineConfig.crop_border)
    p.set_defaults(func=_cmd_sr)

    p = sub.add_parser("bench", help="run the degradation benchmark")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scales", default="4,8,16", help="comma-separated scale factors")
    p.add_argument("--config", required=True,
                   help="JSON pipeline config (object or list of objects)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count, at least 1 (default: logical cores)")
    p.add_argument("--no-timing", action="store_true",
                   help="report runtimes as 0 for byte-reproducible CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fit", help="fit parameters on the manifest train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("head", "both"), default="both",
                   help="feature fits: both = channel lambdas and their ridge head; "
                        "head = the head alone, lambdas at e^0.1 (default: %(default)s)")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--method", choices=("image", "feature"), default="feature")
    p.add_argument("--gamma", type=float, default=HEAD_GAMMA,
                   help="ridge penalty (default: %(default)s)")
    p.add_argument("--grid-points", type=int, default=GRID_POINTS)
    p.add_argument("--sweeps", type=int, default=SWEEPS)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="parameter file output path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("dct", help="dump transform coefficients to PFM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_dct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
