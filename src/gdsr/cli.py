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
from .guidance import luminance
from .imgio import load_image, load_pfm_grid, save_error_map, save_image
from .dct import dct2_forward, dct2_inverse
from .resample import bicubic_upsample, check_scale


def _add_edge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edge", choices=("none", "hard", "soft"), default="hard",
                   help="edge attention mode (default: hard)")
    p.add_argument("--tau-q", type=float, default=0.9,
                   help="edge threshold quantile in (0,1) (default: 0.9)")
    p.add_argument("--alpha", type=float, default=50.0,
                   help="soft-mode logistic steepness (default: 50)")
    p.add_argument("--symbol", choices=("derived", "paper"), default="derived",
                   help="spectral symbol mode (default: derived)")
    p.add_argument("--no-antialias", action="store_true",
                   help="disable antialiasing in bicubic downsampling")


def _config_from_args(args, method: str, scale: int | None) -> PipelineConfig:
    return PipelineConfig(
        method=method,
        lam=getattr(args, "lam", 1.0),
        params_path=getattr(args, "params", None),
        edge_mode=args.edge,
        tau_quantile=args.tau_q,
        steepness=args.alpha,
        symbol_mode=args.symbol,
        scale=scale,
        crop_border=getattr(args, "crop_border", 0),
        antialias=not args.no_antialias,
    )


def _cmd_sr(args) -> int:
    if args.errmap is not None and args.gt is None:
        raise SystemExit("--errmap requires --gt")
    s = check_scale(args.scale)
    depth = load_image(args.depth)
    rgb = load_image(args.rgb)
    if depth.ndim == 3:
        raise SystemExit(f"--depth must be a grayscale depth file: {args.depth}")
    if rgb.ndim != 3:
        raise SystemExit(f"--rgb must be a color image: {args.rgb}")
    m, n = depth.shape
    hr = rgb.shape[:2]
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
    pred = predict(up, luminance(rgb), cfg)
    save_image(pred, args.out, args.format)
    if gt is not None:
        print(f"rmse {rmse(pred, gt, args.crop_border)!r}")
        if args.errmap is not None:
            save_error_map(pred, gt, args.errmap, args.max_err)
    return 0


def _cmd_bench(args) -> int:
    manifest = load_manifest(args.manifest)
    scales = [check_scale(int(tok)) for tok in args.scales.split(",") if tok]
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
    manifest = load_manifest(args.manifest)
    s = check_scale(args.scale)
    cfg = _config_from_args(args, _METHOD_ALIASES[args.method], s)
    if args.method == "image":
        lam = fit_image_lambda(manifest, cfg, s, grid_points=args.grid_points)
        save_params(args.out, cfg, lam)
        print(f"fitted lambda {lam!r}")
        return 0
    lambdas, head, trace = fit_feature_params(
        manifest, cfg, s,
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
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="regularization weight for --method image")
    p.add_argument("--params", default=None, help="fitted parameter file")
    _add_edge_flags(p)
    p.add_argument("--out", required=True, help="prediction output path")
    p.add_argument("--format", choices=("pgm8", "pgm16", "pfm"), default="pgm16")
    p.add_argument("--gt", default=None, help="ground truth for RMSE / error map")
    p.add_argument("--errmap", default=None, help="error map output path (PGM)")
    p.add_argument("--max-err", type=float, default=0.1,
                   help="error map saturation level (default: 0.1)")
    p.add_argument("--crop-border", type=int, default=0)
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
                        "head = the head alone, lambdas at e^0.1 (default: both)")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--method", choices=("image", "feature"), default="feature")
    p.add_argument("--gamma", type=float, default=1e-6, help="ridge penalty")
    p.add_argument("--grid-points", type=int, default=9)
    p.add_argument("--sweeps", type=int, default=2)
    _add_edge_flags(p)
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
