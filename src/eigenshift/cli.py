"""Command line interface.

Subcommands: spectrum | perturbed | polarization | sweep | weyl | bounds
| calibrate.  CSV outputs carry 12 significant digits; JSON summaries are
schema-stable.  Exit codes: 0 success, 2 validation error, 3 solver or
mesh error, 4 acceptance-threshold failure.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import disk_spectrum as ds
from . import field_solver as fs
from . import harness
from . import polarization as pol
from .errors import (
    CalibrationError,
    EigenshiftError,
    MeshError,
    SolverError,
    ThresholdError,
    ValidationError,
)
from .geometry import DiskShape, DomainSpec, EllipseShape, load_scene

_FMT = "%.12g"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row) + "\n")


def _parse_eps(spec: str) -> list:
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            return list(np.geomspace(float(lo), float(hi), int(n)))
        return [float(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise ValidationError(f"--eps {spec!r} is not lo:hi:n or a comma list: {exc}") from exc


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ValidationError):
        return 2
    if isinstance(exc, (SolverError, MeshError)):
        return 3
    if isinstance(exc, (ThresholdError, CalibrationError)):
        return 4
    return 1


class _Main(click.Group):
    """Reports a package error on stderr and exits with its documented code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except EigenshiftError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))


@click.group(cls=_Main)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              help="Scene file used by subcommands that take no --config.")
@click.option("--out", default=".", show_default=True, help="Output directory.")
@click.option("--workers", default=1, show_default=True, help="Parallel sweep workers.")
@click.option("--seed", default=0, show_default=True, help="Eigensolver start-vector seed.")
@click.pass_context
def main(ctx, config_path, out, workers, seed):
    """Neumann eigenvalue shifts from small conductivity inclusions."""
    os.makedirs(out, exist_ok=True)
    ctx.obj = {"out": out, "workers": workers, "seed": seed, "config": config_path}


def _resolve_config(ctx, config_path):
    path = config_path or ctx.obj.get("config")
    if path is None:
        raise ValidationError("no scene config given (use --config)")
    return path


@main.command()
@click.option("--domain", "domain_kind", type=click.Choice(["disk"]), default="disk")
@click.option("--radius", default=1.0, show_default=True)
@click.option("--count", default=20, show_default=True)
@click.pass_context
def spectrum(ctx, domain_kind, radius, count):
    """Analytic Neumann spectrum of the disk as CSV."""
    groups = ds.disk_spectrum_list(radius, count)
    rows = [
        (g.rank, g.modes[0].s, g.modes[0].i, float(g.lam), g.multiplicity)
        for g in groups
    ]
    path = os.path.join(ctx.obj["out"], "spectrum.csv")
    _write_csv(path, ["rank", "s", "i", "lambda", "multiplicity"], rows)
    click.echo(path)


@main.command()
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--count", default=8, show_default=True)
@click.pass_context
def perturbed(ctx, config_path, count):
    """Matched perturbed/unperturbed eigenvalue groups for a scene."""
    scene = load_scene(_resolve_config(ctx, config_path))
    if scene.domain.kind == "disk":
        mults = [g.multiplicity for g in ds.disk_spectrum_list(scene.domain.radius, count)]
    else:
        mults = None
    _, groups, matched = fs.observe(scene, count, mults, seed=ctx.obj["seed"])
    max_m = max(g.multiplicity for g in groups)
    header = ["rank", "lambda_unpert"] + [
        f"lambda_pert_{j + 1}" for j in range(max_m)
    ] + ["harmonic_average", "overlap"]
    rows = []
    for grp, pg in zip(groups, matched):
        lams = list(pg.lambdas) + [np.nan] * (max_m - pg.multiplicity)
        rows.append(
            (grp.rank, float(grp.lam), *map(float, lams),
             float(pg.harmonic_average), float(pg.overlap))
        )
    path = os.path.join(ctx.obj["out"], "perturbed.csv")
    _write_csv(path, header, rows)
    click.echo(path)


@main.command()
@click.option("--shape", "shape_kind", type=click.Choice(["disk", "ellipse"]), default="disk")
@click.option("--k", "contrast", type=float, required=True)
@click.option("--panels", default=256, show_default=True)
@click.option(
    "--convention", type=click.Choice(["paper", "literature"]), default="paper",
    show_default=True,
)
@click.option("--rho", default=1.0, show_default=True, help="Disk shape radius.")
@click.option("--a", "semi_a", default=1.0, show_default=True)
@click.option("--b", "semi_b", default=0.5, show_default=True)
@click.option("--theta", default=0.0, show_default=True)
@click.pass_context
def polarization(ctx, shape_kind, contrast, panels, convention, rho, semi_a, semi_b, theta):
    """Polarization tensor of an inclusion shape as JSON."""
    shape = DiskShape(rho) if shape_kind == "disk" else EllipseShape(semi_a, semi_b, theta)
    tensor = pol.polarization_tensor(shape, contrast, convention, panels)
    payload = {
        "shape": shape_kind,
        "k": contrast,
        "panels": panels,
        "convention": convention,
        "entries": [[float(v) for v in row] for row in tensor.entries],
        "residual": tensor.residual,
        "zero_charge": tensor.zero_charge,
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--eps", "eps_spec", required=True, help="lo:hi:n geometric or comma list.")
@click.option("--group", "group_rank", default=2, show_default=True)
@click.option("--alpha", default=0.0, show_default=True)
@click.option(
    "--convention",
    type=click.Choice(["paper", "literature", "calibrated"]),
    default="calibrated",
    show_default=True,
)
@click.option("--no-m-factor", is_flag=True, help="Drop the 1/m normalization.")
@click.option("--shift-order-target", default=2.0, show_default=True)
@click.option("--shift-order-tol", default=0.15, show_default=True)
@click.option("--min-remainder-order", default=2.3, show_default=True)
@click.option("--no-thresholds", is_flag=True, help="Report only; never exit 4.")
@click.option("--sched-coeff", default=None, type=float,
              help="Mesh schedule coefficient c in h0 = min(mesh_h, c*eps^1.25).")
@click.option("--estimate-floor", is_flag=True,
              help="Two-resolution noise-floor estimate at the smallest eps.")
@click.pass_context
def sweep(ctx, config_path, eps_spec, group_rank, alpha, convention, no_m_factor,
          shift_order_target, shift_order_tol, min_remainder_order, no_thresholds,
          sched_coeff, estimate_floor):
    """Epsilon sweep: observed vs predicted shift with fitted orders."""
    scene = load_scene(_resolve_config(ctx, config_path))
    eps_list = _parse_eps(eps_spec)
    cal_path = os.path.join(ctx.obj["out"], "calibration.json")
    result = harness.run_sweep(
        scene,
        eps_list,
        group_rank=group_rank,
        convention=convention,
        use_m_factor=not no_m_factor,
        alpha=alpha,
        workers=ctx.obj["workers"],
        seed=ctx.obj["seed"],
        calibration_path=cal_path if convention == "calibrated" else None,
        estimate_floor=estimate_floor or alpha > 0.0,
        sched_coeff=sched_coeff,
    )
    csv_path = os.path.join(ctx.obj["out"], "sweep.csv")
    rows = [
        (p.eps, p.lambda_bar, p.lambda_ref, p.observed, pred, rem, p.overlap)
        for p, pred, rem in zip(result.points, result.predicted, result.remainder)
    ]
    _write_csv(
        csv_path,
        ["eps", "lambda_bar", "lambda", "observed_shift", "predicted_shift",
         "remainder", "overlap"],
        rows,
    )
    summary = result.summary()
    json_path = os.path.join(ctx.obj["out"], "sweep_summary.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    click.echo(csv_path)
    click.echo(json_path)
    if not no_thresholds and alpha == 0.0:
        shift_order = summary["shift_order"]
        rem_order = summary["remainder_order"]
        ok = (
            shift_order is not None
            and abs(shift_order - shift_order_target) <= shift_order_tol
            and rem_order is not None
            and rem_order >= min_remainder_order
        )
        if not ok:
            raise ThresholdError(
                f"fit thresholds not met: shift_order={shift_order}, "
                f"remainder_order={rem_order}"
            )


@main.command()
@click.option("--domain", "domain_kind", type=click.Choice(["disk", "rectangle"]),
              default="disk", show_default=True)
@click.option("--radius", default=1.0, show_default=True)
@click.option("--width", default=np.pi, show_default=True)
@click.option("--height", default=np.pi, show_default=True)
@click.option("--count", default=160, show_default=True)
@click.option("--lam-max", default=None, type=float)
@click.pass_context
def weyl(ctx, domain_kind, radius, width, height, count, lam_max):
    """Counting-function and index-growth checks against the Weyl constant."""
    if domain_kind == "disk":
        domain = DomainSpec(kind="disk", radius=radius)
    else:
        domain = DomainSpec(kind="rectangle", width=width, height=height)
    report = harness.weyl_check(domain, count=count, lam_max=lam_max)
    payload = {
        "domain": domain_kind,
        "counting_slope": report.counting_slope,
        "weyl_constant": report.weyl_constant,
        "index_fit_slope": report.index_fit_slope,
        "index_fit_r2": report.index_fit_r2,
    }
    path = os.path.join(ctx.obj["out"], "weyl.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--count", "n_groups", default=50, show_default=True)
@click.option("--probe-x", default=0.4, show_default=True)
@click.option("--probe-y", default=0.0, show_default=True)
@click.option("--probe-radius", default=0.05, show_default=True)
@click.pass_context
def bounds(ctx, n_groups, probe_x, probe_y, probe_radius):
    """Sup-norm bound table over disk eigenfunction groups."""
    table = harness.sup_norm_bound_table(
        probe_center=(probe_x, probe_y), probe_radius=probe_radius,
        n_groups=n_groups,
    )
    rows = list(
        zip(
            range(1, n_groups + 1),
            map(float, table["lambda"]),
            map(int, table["multiplicity"]),
            map(float, table["sup_u"]),
            map(float, table["sup_grad_scaled"]),
            map(float, table["sup_hess_scaled"]),
        )
    )
    path = os.path.join(ctx.obj["out"], "bounds.csv")
    _write_csv(
        path,
        ["rank", "lambda", "multiplicity", "sup_u", "sup_grad_scaled", "sup_hess_scaled"],
        rows,
    )
    checks = {}
    for col in ("sup_u", "sup_grad_scaled", "sup_hess_scaled"):
        vals = table[col]
        checks[col] = {
            "max": float(np.max(vals)),
            "median": float(np.median(vals)),
            "max_le_10_median": bool(np.max(vals) <= 10.0 * np.median(vals)),
        }
    click.echo(path)
    click.echo(json.dumps(checks, indent=2))


@main.command()
@click.pass_context
def calibrate(ctx):
    """Pick the tensor convention that reproduces measured shifts."""
    path = os.path.join(ctx.obj["out"], "calibration.json")
    result = harness.calibrate(
        out_path=path, workers=ctx.obj["workers"], seed=ctx.obj["seed"]
    )
    click.echo(path)
    click.echo(json.dumps(result.to_json(), indent=2))


if __name__ == "__main__":
    main()
