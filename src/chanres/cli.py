"""Command-line front end.

Subcommands mirror the library: `bounds` and `simulate resolvability`
for output-approximation, `exponents` for rate sweeps, `idcode` for
identification codes, `capacity`, and the wiretap pair
(`wiretap-bounds`, `simulate wiretap`).  All randomness is derived
from an explicit --seed, and reruns with the same seed are
byte-identical regardless of --workers.

Exit codes: 0 success (including constructions that report
satisfied=false after exhausting retries), 2 invalid input, 3
enumeration budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .channel import (
    BudgetError,
    Channel,
    EnumerationBudget,
    dispersion_J,
    load_channel,
    load_distribution,
    mutual_information,
    product,
    product_dist,
)
from .exponents import (
    ConvergenceError,
    _taylor_terms,
    capacity,
    exponent_sweep,
)
from .identification import (
    AdParams,
    RetriesExhausted,
    SelectionParams,
    assemble_id_code,
    build_set_family,
    eval_id_code,
    id_error_bounds,
    load_id_code,
    save_id_code,
    select_codewords,
)
from .resolvability import expectation_bounds, mc_expectation
from .wiretap import construct_until_bounds, wiretap_bounds


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@contextlib.contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _budget(args) -> EnumerationBudget:
    if getattr(args, "max_joint_states", None) is None:
        return EnumerationBudget()
    return EnumerationBudget(args.max_joint_states)


def _blocks(args, budget, *laws):
    """n, then each channel and distribution as its n-fold product."""
    n = 1 if args.blocklength is None else int(args.blocklength)
    if n > 1:
        laws = [product(x, n, budget) if isinstance(x, Channel)
                else product_dist(x, n, budget) for x in laws]
    return (n, *laws)


def _need(args, *names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(
            "missing required option(s): " + ", ".join("--" + n for n in missing)
        )


def _apply_config(args) -> None:
    """Fill unset options from --config, converted as the command line would."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    # the options of this subcommand; --help keeps no value
    types = {a.dest: a.type for a in args.parser._actions
             if a.default is not argparse.SUPPRESS}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in types:
            raise ValueError(f"config file {args.config}: unknown option {key!r}")
        if getattr(args, dest) is None:
            convert = types[dest] or str
            try:
                setattr(args, dest, convert(str(value)))
            except ValueError as exc:
                raise ValueError(
                    f"config file {args.config}: option {key!r}: {exc}") from None


def run_bounds(args) -> int:
    _need(args, "channel", "dist", "codebook-size", "threshold")
    W = load_channel(args.channel)
    p = load_distribution(args.dist)
    n = 1 if args.blocklength is None else int(args.blocklength)
    M = int(args.codebook_size)
    C = float(args.threshold)
    tp, bound_vd, bound_eta, bound_phi = expectation_bounds(
        p, W, M, C, n, _budget(args))
    doc = {
        "delta": tp.delta,
        "delta_prime": tp.delta_prime,
        "threshold": C,
        "blocklength": n,
        "codebook_size": M,
        "bound_vd": bound_vd,
        "bound_kl_eta": bound_eta,
        "bound_kl_phi": bound_phi,
    }
    with _open_out(args.output) as out:
        out.write(_dump(doc) + "\n")
    return 0


def run_exponents(args) -> int:
    _need(args, "channel", "rate-start", "rate-end", "rate-steps")
    W = load_channel(args.channel)
    if args.worst:
        if args.dist is not None:
            raise ValueError("--worst and --dist are mutually exclusive")
        p = None
    else:
        _need(args, "dist")
        p = load_distribution(args.dist)
    steps = int(args.rate_steps)
    if steps < 1:
        raise ValueError("--rate-steps must be positive")
    lo, hi = float(args.rate_start), float(args.rate_end)
    rates = [lo] if steps == 1 else [
        lo + (hi - lo) * i / (steps - 1) for i in range(steps)
    ]
    reports = exponent_sweep(W, rates, p)
    taylor = {}
    J = 0.0 if p is None else dispersion_J(p, W)
    # noiseless channels leave only rounding dust in the variance; the
    # quadratic columns are meaningless there and are omitted
    if J > 1e-12:
        i_val = mutual_information(p, W)
        for R in rates:
            _, a_psi, a_half = _taylor_terms(R, i_val, J)
            taylor[R] = {"vd_psi": a_psi, "kl_phi": a_psi, "vd_phi_half": a_half}
    with _open_out(args.output) as out:
        header = "R,family,bound_nats,optimizer"
        if taylor:
            header += ",taylor_approx"
        out.write(header + "\n")
        for rep in reports:
            row = [_fmt(rep.rate_R), rep.family, _fmt(rep.bound_value),
                   _fmt(rep.optimizer)]
            if taylor:
                approx = taylor[rep.rate_R].get(rep.family)
                row.append("" if approx is None else _fmt(approx))
            out.write(",".join(row) + "\n")
    return 0


def run_simulate_resolvability(args) -> int:
    _need(args, "channel", "dist", "codebook-size", "threshold",
          "trials", "seed")
    W = load_channel(args.channel)
    p = load_distribution(args.dist)
    n = 1 if args.blocklength is None else int(args.blocklength)
    workers = 1 if args.workers is None else int(args.workers)
    estimates = mc_expectation(
        p, W, int(args.codebook_size), float(args.threshold),
        int(args.trials), int(args.seed), n=n, budget=_budget(args),
        workers=workers,
    )
    config = {
        "channel": args.channel, "dist": args.dist,
        "codebook_size": int(args.codebook_size),
        "threshold": float(args.threshold), "blocklength": n,
        "trials": int(args.trials), "seed": int(args.seed),
    }
    names = ("vd", "kl_eta", "kl_phi")
    with _open_out(args.output) as out:
        for name, est in zip(names, estimates):
            rec = {
                "config": dict(config, estimator=name),
                "mean": est.mean,
                "std_error": est.std_error,
                "bound": est.bound,
                "satisfied": est.mean <= est.bound + 3.0 * est.std_error,
            }
            out.write(_dump(rec) + "\n")
    return 0


def run_simulate_wiretap(args) -> int:
    _need(args, "channel-b", "channel-e", "dist", "messages",
          "randomization", "threshold", "decoder-threshold", "seed")
    n, W_B, W_E, p = _blocks(args, _budget(args), load_channel(args.channel_b),
                             load_channel(args.channel_e),
                             load_distribution(args.dist))
    M = int(args.messages)
    L = int(args.randomization)
    retries = 100 if args.max_retries is None else int(args.max_retries)
    workers = 1 if args.workers is None else int(args.workers)
    decoder = args.decoder or "maximum_likelihood"
    with _open_out(args.output) as out:
        def emit(attempt, report, flags):
            out.write(_dump({
                "attempt": attempt,
                "eps_B": report.eps_B,
                "I_E": report.I_E,
                "d_E": report.d_E,
                "ok_eps": flags[0], "ok_leak": flags[1], "ok_vd": flags[2],
            }) + "\n")

        result = construct_until_bounds(
            p, W_B, W_E, M, L, float(args.threshold),
            float(args.decoder_threshold), int(args.seed),
            max_retries=retries, decoder_kind=decoder,
            on_attempt=emit, workers=workers,
        )
        manifest = {
            "parameters": {
                "channel_b": args.channel_b, "channel_e": args.channel_e,
                "dist": args.dist, "messages": M, "randomization": L,
                "threshold": float(args.threshold),
                "decoder_threshold": float(args.decoder_threshold),
                "blocklength": n, "decoder": decoder,
                "max_retries": retries,
            },
            "seed": int(args.seed),
            "attempts": result.attempts,
            "bounds": {
                "error_gallager": result.bounds.error_gallager,
                "error_threshold": result.bounds.error_threshold,
                "leak_kl_eta": result.bounds.leak_kl_eta,
                "leak_kl_phi": result.bounds.leak_kl_phi,
                "secrecy_vd": result.bounds.secrecy_vd,
            },
            "targets": {
                "eps_B": result.eps_target,
                "I_E": result.leak_target,
                "d_E": result.vd_target,
            },
            "metrics": {
                "eps_B": result.report.eps_B,
                "I_E": result.report.I_E,
                "d_E": result.report.d_E,
            },
            "satisfied_eps": result.satisfied_eps,
            "satisfied_leak": result.satisfied_leak,
            "satisfied_vd": result.satisfied_vd,
            "satisfied": result.satisfied,
            "codewords": [[int(v) for v in row] for row in result.code.codewords],
        }
        out.write(_dump({"manifest": manifest}) + "\n")
    return 0


def run_idcode_build(args) -> int:
    _need(args, "channel", "dist", "alpha", "alpha-prime", "beta",
          "beta-prime", "tau", "kappa", "codewords", "threshold", "seed")
    _, W, p = _blocks(args, _budget(args), load_channel(args.channel),
                      load_distribution(args.dist))
    params = SelectionParams(
        alpha=float(args.alpha), alpha_prime=float(args.alpha_prime),
        beta=float(args.beta), beta_prime=float(args.beta_prime),
        tau=float(args.tau), kappa=float(args.kappa),
        M=int(args.codewords), C=float(args.threshold),
    )
    retries = 100 if args.max_retries is None else int(args.max_retries)
    seed = int(args.seed)
    try:
        selection = select_codewords(W, p, params, seed, max_retries=retries)
    except RetriesExhausted as exc:
        sys.stdout.write(_dump({
            "satisfied": False,
            "attempts": exc.attempts,
            "reason": str(exc),
        }) + "\n")
        return 0
    ad = AdParams(M=params.M, tau=params.tau, kappa=params.kappa)
    build = build_set_family(ad, seed + 1 if args.family_seed is None
                             else int(args.family_seed), budget=_budget(args))
    code = assemble_id_code(selection.codewords, build.family, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    mu_bound, lam_bound = id_error_bounds(params, p, W)
    if args.output is not None:
        save_id_code(code, args.output)
    doc = {
        "mu": metrics.mu,
        "lam": metrics.lam,
        "mu_bound": mu_bound,
        "lam_bound": lam_bound,
        "messages": code.messages,
        "family_complete": build.complete,
        "family_target": build.target_size,
        "selection_attempts": selection.attempts,
        "feasibility_lhs": selection.feasibility_lhs,
        "feasible": selection.feasible,
        "satisfied": bool(metrics.mu <= mu_bound and metrics.lam <= lam_bound
                          and build.complete),
        "codewords": list(code.codewords),
        "code_file": args.output,
    }
    sys.stdout.write(_dump(doc) + "\n")
    return 0


def run_idcode_eval(args) -> int:
    _need(args, "channel", "dist", "code")
    _, W, p = _blocks(args, _budget(args), load_channel(args.channel),
                      load_distribution(args.dist))
    code = load_id_code(args.code)
    metrics = eval_id_code(code, W, p)
    with _open_out(args.output) as out:
        out.write(_dump({"mu": metrics.mu, "lam": metrics.lam,
                         "messages": code.messages}) + "\n")
    return 0


def run_capacity(args) -> int:
    _need(args, "channel")
    W = load_channel(args.channel)
    tol = 1e-8 if args.tol is None else float(args.tol)
    result = capacity(W, tol=tol)
    doc = {
        "capacity_nats": result.value,
        "argmax": [float(v) for v in result.argmax.probs],
        "iterations": result.iterations,
        "residual": result.residual,
    }
    with _open_out(args.output) as out:
        out.write(_dump(doc) + "\n")
    return 0


def run_wiretap_bounds(args) -> int:
    _need(args, "channel-b", "channel-e", "dist", "messages",
          "randomization", "threshold", "decoder-threshold")
    _, W_B, W_E, p = _blocks(args, _budget(args), load_channel(args.channel_b),
                             load_channel(args.channel_e),
                             load_distribution(args.dist))
    bounds = wiretap_bounds(W_B, W_E, p, int(args.messages),
                            int(args.randomization), float(args.threshold),
                            float(args.decoder_threshold))
    doc = {
        "error_gallager": bounds.error_gallager,
        "error_threshold": bounds.error_threshold,
        "leak_kl_eta": bounds.leak_kl_eta,
        "leak_kl_phi": bounds.leak_kl_phi,
        "secrecy_vd": bounds.secrecy_vd,
        "gallager_s": bounds.gallager_s,
        "phi_t": bounds.phi_t,
    }
    with _open_out(args.output) as out:
        out.write(_dump(doc) + "\n")
    return 0


def _add_common(sp) -> None:
    sp.set_defaults(parser=sp)
    sp.add_argument("--config", default=None,
                    help="JSON file supplying any unset options")
    sp.add_argument("--output", default=None,
                    help="write results to this file instead of stdout")
    sp.add_argument("--max-joint-states", type=int, default=None,
                    help="cap on exactly enumerated joint states")
    sp.add_argument("--blocklength", type=int, default=None,
                    help="memoryless block length n (default 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chanres",
        description="Exact bounds and simulations for output approximation, "
                    "identification, and wiretap coding on finite channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="tail pair and expectation bounds")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--codebook-size", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.set_defaults(run=run_bounds)

    sp = sub.add_parser("exponents", help="rate sweep of exponent bounds (CSV)")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--worst", action="store_true",
                    help="worst-case families only, no input law")
    sp.add_argument("--rate-start", type=float, default=None)
    sp.add_argument("--rate-end", type=float, default=None)
    sp.add_argument("--rate-steps", type=int, default=None)
    sp.set_defaults(run=run_exponents)

    sim = sub.add_parser("simulate", help="Monte Carlo drivers")
    simsub = sim.add_subparsers(dest="what", required=True)

    sp = simsub.add_parser("resolvability",
                           help="codebook sampling vs expectation bounds")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--codebook-size", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.set_defaults(run=run_simulate_resolvability)

    sp = simsub.add_parser("wiretap",
                           help="redraw wiretap codes until bounds hold")
    _add_common(sp)
    sp.add_argument("--channel-b", default=None)
    sp.add_argument("--channel-e", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--messages", type=int, default=None)
    sp.add_argument("--randomization", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--decoder-threshold", type=float, default=None)
    sp.add_argument("--decoder", choices=("maximum_likelihood", "threshold"),
                    default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--max-retries", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.set_defaults(run=run_simulate_wiretap)

    idc = sub.add_parser("idcode", help="identification codes")
    idsub = idc.add_subparsers(dest="what", required=True)

    sp = idsub.add_parser("build", help="screen codewords and build a family")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--alpha-prime", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--beta-prime", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--codewords", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--family-seed", type=int, default=None)
    sp.add_argument("--max-retries", type=int, default=None)
    sp.set_defaults(run=run_idcode_build)

    sp = idsub.add_parser("eval", help="exact errors of a stored code")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--code", default=None)
    sp.set_defaults(run=run_idcode_eval)

    sp = sub.add_parser("capacity", help="capacity by alternating maximization")
    _add_common(sp)
    sp.add_argument("--channel", default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(run=run_capacity)

    sp = sub.add_parser("wiretap-bounds", help="the five wiretap guarantees")
    _add_common(sp)
    sp.add_argument("--channel-b", default=None)
    sp.add_argument("--channel-e", default=None)
    sp.add_argument("--dist", default=None)
    sp.add_argument("--messages", type=int, default=None)
    sp.add_argument("--randomization", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--decoder-threshold", type=float, default=None)
    sp.set_defaults(run=run_wiretap_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _apply_config(args)
        return args.run(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
