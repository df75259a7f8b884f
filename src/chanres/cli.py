"""Command-line front end.

Subcommands mirror the library: `bounds` and `simulate resolvability`
for output-approximation, `exponents` for rate sweeps, `idcode` for
identification codes, `capacity`, and the wiretap pair
(`wiretap-bounds`, `simulate wiretap`).  All randomness is derived
from an explicit --seed, and reruns with the same seed are
byte-identical regardless of --workers.

Each option is declared once, in `_OPTIONS`, with its type and
default; one without a default is required.  An option takes its flag,
else its entry in the --config file, else its declared default,
whatever the order of the flags.

Exit codes: 0 success (including constructions that report
satisfied=false after exhausting retries), 2 invalid input, 3
enumeration budget exceeded or memory exhausted, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .channel import (
    DEFAULT_MAX_JOINT_STATES,
    BudgetError,
    Channel,
    EnumerationBudget,
    _check_inputs,
    _read_json,
    load_channel,
    load_distribution,
    product,
    product_dist,
)
from .exponents import (
    ConvergenceError,
    _taylor_column,
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
    load_id_code,
    save_id_code,
    select_codewords,
)
from .resolvability import expectation_bounds, mc_expectation
from .wiretap import DECODER_KINDS, construct_until_bounds, wiretap_bounds


# the five guarantees of a wiretap code and its three leakage metrics
_BOUNDS = ("error_gallager", "error_threshold", "leak_kl_eta", "leak_kl_phi",
           "secrecy_vd")
_METRICS = ("eps_B", "I_E", "d_E")
_SATISFIED = ("satisfied_eps", "satisfied_leak", "satisfied_vd")


def _fields(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _dump(doc) -> str:
    """doc as strict JSON: a NaN or an infinity raises ValueError."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


@contextlib.contextmanager
def _open_out(path):
    """A write function to the file `path`, else to stdout.  The file is
    opened at the first write, so a command that fails before it writes
    creates no file and leaves an existing one as it was."""
    if path is None:
        yield sys.stdout.write
        return
    with contextlib.ExitStack() as stack:
        fh = functools.cache(lambda: stack.enter_context(
            open(path, "w", encoding="utf-8")))
        yield lambda text: fh().write(text)


def _write_doc(args, doc) -> None:
    """Write `doc` as one JSON line to --output, else stdout."""
    with _open_out(args.output) as write:
        write(_dump(doc) + "\n")


def _n_fold(args, *laws):
    """Each channel and distribution as its n-fold product, n = --blocklength."""
    budget = EnumerationBudget(args.max_joint_states)
    if args.blocklength > 1:
        laws = [product(x, args.blocklength, budget) if isinstance(x, Channel)
                else product_dist(x, args.blocklength, budget) for x in laws]
    return laws


def run_bounds(args):
    W = load_channel(args.channel)
    p = load_distribution(args.dist)
    tp, bound_vd, bound_eta, bound_phi = expectation_bounds(
        p, W, args.codebook_size, args.threshold, args.blocklength,
        EnumerationBudget(args.max_joint_states))
    _write_doc(args, {
        **_fields(tp, ("delta", "delta_prime")),
        **_fields(args, ("threshold", "blocklength", "codebook_size")),
        "bound_vd": bound_vd, "bound_kl_eta": bound_eta,
        "bound_kl_phi": bound_phi})


def run_exponents(args):
    W = load_channel(args.channel)
    if args.worst and args.dist is not None:
        raise ValueError("--worst and --dist are mutually exclusive")
    if not args.worst and args.dist is None:
        raise ValueError("missing required option(s): --dist")
    p = None if args.worst else load_distribution(args.dist)
    steps = args.rate_steps
    lo, hi = args.rate_start, args.rate_end
    rates = [lo] if steps == 1 else [
        lo + (hi - lo) * i / (steps - 1) for i in range(steps)
    ]
    reports = exponent_sweep(W, rates, p)
    # no column with --worst, nor on a noiseless channel
    taylor = None if p is None else _taylor_column(rates, W, p)
    with _open_out(args.output) as write:
        header = "R,family,bound_nats,optimizer"
        if taylor is not None:
            header += ",taylor_approx"
        write(header + "\n")
        for rep in reports:
            row = [_fmt(rep.rate_R), rep.family, _fmt(rep.bound_value),
                   _fmt(rep.optimizer)]
            if taylor is not None:
                approx = taylor.get((rep.rate_R, rep.family))
                row.append("" if approx is None else _fmt(approx))
            write(",".join(row) + "\n")


def run_simulate_resolvability(args):
    W = load_channel(args.channel)
    p = load_distribution(args.dist)
    estimates = mc_expectation(
        p, W, args.codebook_size, args.threshold, args.trials, args.seed,
        n=args.blocklength, budget=EnumerationBudget(args.max_joint_states),
    )
    config = _fields(args, ("channel", "dist", "codebook_size", "threshold",
                            "blocklength", "trials", "seed"))
    names = ("vd", "kl_eta", "kl_phi")
    with _open_out(args.output) as write:
        for name, est in zip(names, estimates):
            rec = {
                "config": dict(config, estimator=name),
                "mean": est.mean,
                "std_error": est.std_error,
                "bound": est.bound,
                "satisfied": est.mean <= est.bound + 3.0 * est.std_error,
            }
            write(_dump(rec) + "\n")


def run_simulate_wiretap(args):
    W_B, W_E, p = _n_fold(args, load_channel(args.channel_b),
                          load_channel(args.channel_e),
                          load_distribution(args.dist))
    with _open_out(args.output) as write:
        def emit(attempt, report, flags):
            write(_dump({
                "attempt": attempt, **_fields(report, _METRICS),
                "ok_eps": flags[0], "ok_leak": flags[1], "ok_vd": flags[2],
            }) + "\n")

        result = construct_until_bounds(
            p, W_B, W_E, args.messages, args.randomization, args.threshold,
            args.decoder_threshold, args.seed, max_retries=args.max_retries,
            decoder_kind=args.decoder, on_attempt=emit,
        )
        manifest = {
            "parameters": _fields(args, (
                "channel_b", "channel_e", "dist", "messages", "randomization",
                "threshold", "decoder_threshold", "blocklength", "decoder",
                "max_retries")),
            "seed": args.seed,
            "attempts": result.attempts,
            "bounds": _fields(result.bounds, _BOUNDS),
            "targets": dict(zip(_METRICS, result.targets)),
            "metrics": _fields(result.report, _METRICS),
            **dict(zip(_SATISFIED, result.flags)),
            "satisfied": result.satisfied,
            "codewords": [[int(v) for v in row] for row in result.code.codewords],
        }
        write(_dump({"manifest": manifest}) + "\n")


def run_idcode_build(args):
    W, p = _n_fold(args, load_channel(args.channel),
                   load_distribution(args.dist))
    family = AdParams(M=args.codewords, tau=args.tau, kappa=args.kappa)
    params = SelectionParams(
        alpha=args.alpha, alpha_prime=args.alpha_prime,
        beta=args.beta, beta_prime=args.beta_prime,
        family=family, C=args.threshold,
    )
    try:
        selection = select_codewords(W, p, params, args.seed,
                                     max_retries=args.max_retries)
    except RetriesExhausted as exc:
        sys.stdout.write(_dump({"satisfied": False,
                                "attempts": args.max_retries,
                                "reason": str(exc)}) + "\n")
        return
    build = build_set_family(
        family, (args.seed + 1) % 2 ** 64 if args.family_seed is None
        else args.family_seed, budget=EnumerationBudget(args.max_joint_states))
    code = assemble_id_code(selection.codewords, build.family, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    if args.output is not None:
        save_id_code(code, args.output)
    doc = {
        "mu": metrics.mu,
        "lam": metrics.lam,
        "mu_bound": selection.miss_bound,
        "lam_bound": selection.lam_bound,
        "messages": code.messages,
        "family_complete": build.complete,
        "family_target": build.target_size,
        "selection_attempts": selection.attempts,
        "feasibility_lhs": selection.feasibility_lhs,
        "feasible": selection.feasible,
        "satisfied": bool(metrics.mu <= selection.miss_bound
                          and metrics.lam <= selection.lam_bound
                          and build.complete),
        "codewords": list(code.codewords),
        "code_file": args.output,
    }
    sys.stdout.write(_dump(doc) + "\n")


def run_idcode_eval(args):
    W, p = _n_fold(args, load_channel(args.channel),
                   load_distribution(args.dist))
    code = load_id_code(args.code)
    _check_inputs(W, p)     # first, so a law of the wrong size is the law's error
    try:    # past the law, eval_id_code refuses only what the code file holds
        metrics = eval_id_code(code, W, p)
    except ValueError as exc:
        raise ValueError(f"id code file {args.code}: {exc}") from None
    _write_doc(args, {"mu": metrics.mu, "lam": metrics.lam,
                      "messages": code.messages})


def run_capacity(args):
    result = capacity(load_channel(args.channel), tol=args.tol)
    doc = {
        "capacity_nats": result.value,
        "argmax": [float(v) for v in result.argmax.probs],
        "iterations": result.iterations,
        "residual": result.residual,
    }
    _write_doc(args, doc)


def run_wiretap_bounds(args):
    W_B, W_E, p = _n_fold(args, load_channel(args.channel_b),
                          load_channel(args.channel_e),
                          load_distribution(args.dist))
    bounds = wiretap_bounds(W_B, W_E, p, args.messages, args.randomization,
                            args.threshold, args.decoder_threshold)
    _write_doc(args, _fields(bounds, _BOUNDS + ("gallager_s", "phi_t")))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_config(path: str, options) -> dict:
    """The entries of a --config file by dest, each a dest in `options`,
    converted and checked as its flag would be."""
    entries = {}
    for key, value in _read_json(path, "config")[0].items():
        dest = key.replace("-", "_")
        if dest not in options:
            raise ValueError(f"config file {path}: unknown option {key!r}")
        spec = _OPTIONS[dest.replace("_", "-")]
        try:
            if spec.get("action") == "store_true":  # a switch such as --worst
                if not isinstance(value, bool):
                    raise ValueError("must be true or false")
            elif isinstance(value, bool) or not isinstance(
                    value, (str, int, float)):
                raise ValueError("must be a string or a number")
            else:
                value = spec.get("type", str)(str(value))
                choices = spec.get("choices")
                if choices is not None and value not in choices:
                    raise ValueError("must be one of " + ", ".join(choices))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(
                f"config file {path}: option {key!r}: {exc}") from None
        entries[dest] = value
    return entries


# the argparse default of every option: not given as a flag
_UNSET = object()

# Every option, declared once: flag name -> add_argument keywords.  Its
# default is the value it takes when given neither as a flag nor in a
# --config file; an option declared without a default is required.
_OPTIONS = {
    "output": dict(default=None),
    "blocklength": dict(type=_positive_int, default=1,
                        help="memoryless block length n"),
    "max-joint-states": dict(type=int, default=DEFAULT_MAX_JOINT_STATES,
                             help="cap on exactly enumerated joint states"),
    "channel": dict(),
    "dist": dict(),
    "codebook-size": dict(type=int),
    "threshold": dict(type=float),
    "worst": dict(action="store_true", default=False,
                  help="worst-case families only, no input law"),
    "rate-start": dict(type=float),
    "rate-end": dict(type=float),
    "rate-steps": dict(type=_positive_int),
    "trials": dict(type=int),
    "seed": dict(type=int),
    "workers": dict(type=_positive_int, default=1,
                    help="accepted; runs are sequential whatever its value"),
    "channel-b": dict(),
    "channel-e": dict(),
    "messages": dict(type=int),
    "randomization": dict(type=int),
    "decoder-threshold": dict(type=float),
    "decoder": dict(choices=DECODER_KINDS, default="maximum_likelihood"),
    "max-retries": dict(type=_positive_int, default=100),
    "alpha": dict(type=float),
    "alpha-prime": dict(type=float),
    "beta": dict(type=float),
    "beta-prime": dict(type=float),
    "tau": dict(type=float),
    "kappa": dict(type=float),
    "codewords": dict(type=int),
    "family-seed": dict(type=int, default=None,
                        help="seed of the subset family (default: --seed + 1)"),
    "code": dict(),
    "tol": dict(type=float, default=1e-8),
}

# option groups that several subcommands take
_BLOCK = ("blocklength", "max-joint-states")  # commands that build n-fold laws
_LAW = ("channel", "dist")
_WIRETAP = ("channel-b", "channel-e", "dist", "messages", "randomization",
            "threshold", "decoder-threshold")


def _command(sub, name, run, help, *options,
             output_help="write results to this file instead of stdout",
             **defaults):
    """Add the command `name`, which takes --config, --output (with the
    help `output_help`) and `options`; `defaults` (by option name)
    replace declared defaults."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", action="append",
                    help="JSON file of option values; flags override it")
    sp.add_argument("--output", default=_UNSET, help=output_help)
    for option in options:
        sp.add_argument("--" + option,
                        **{**_OPTIONS[option], "default": _UNSET})
    options = ("output",) + options
    # dest -> the value it takes when no flag or entry gives one
    sp.set_defaults(run=run, options={
        option.replace("-", "_"):
            defaults.get(option, _OPTIONS[option].get("default", _UNSET))
        for option in options})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `chanres` parser, built on first use; parsing leaves it as it is."""
    ap = argparse.ArgumentParser(
        prog="chanres",
        description="Exact bounds and simulations for output approximation, "
                    "identification, and wiretap coding on finite channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _command(sub, "bounds", run_bounds, "tail pair and expectation bounds",
             *_BLOCK, *_LAW, "codebook-size", "threshold")
    # --dist is required unless --worst; see run_exponents
    _command(sub, "exponents", run_exponents,
             "rate sweep of exponent bounds (CSV)",
             *_LAW, "worst", "rate-start", "rate-end", "rate-steps", dist=None)

    sim = sub.add_parser("simulate", help="Monte Carlo drivers")
    simsub = sim.add_subparsers(dest="what", required=True)
    _command(simsub, "resolvability", run_simulate_resolvability,
             "codebook sampling vs expectation bounds",
             *_BLOCK, *_LAW, "codebook-size", "threshold", "trials", "seed",
             "workers")
    _command(simsub, "wiretap", run_simulate_wiretap,
             "redraw wiretap codes until bounds hold",
             *_BLOCK, *_WIRETAP, "decoder", "seed", "max-retries", "workers")

    idc = sub.add_parser("idcode", help="identification codes")
    idsub = idc.add_subparsers(dest="what", required=True)
    _command(idsub, "build", run_idcode_build,
             "screen codewords and build a family",
             *_BLOCK, *_LAW, "alpha", "alpha-prime", "beta", "beta-prime",
             "tau", "kappa", "codewords", "threshold", "seed", "family-seed",
             "max-retries", output_help="write the identification code to "
             "this file; the result line always goes to stdout")
    _command(idsub, "eval", run_idcode_eval, "exact errors of a stored code",
             *_BLOCK, *_LAW, "code")

    _command(sub, "capacity", run_capacity,
             "capacity by Newton ascent", "channel", "tol")
    _command(sub, "wiretap-bounds", run_wiretap_bounds,
             "the five wiretap guarantees", *_BLOCK, *_WIRETAP)
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """The command's options: each flag, else its --config entry, else its
    declared default, whatever the order of argv.  Raises ValueError
    naming any required option given none of these ways."""
    args = build_parser().parse_args(argv)
    values = vars(args)
    options = values.pop("options")
    entries = {}
    for path in args.config or ():  # a later file's entries win
        entries.update(_read_config(path, options))
    for dest, default in options.items():
        if values[dest] is _UNSET:
            values[dest] = entries.get(dest, default)
    missing = ["--" + dest.replace("_", "-") for dest in options
               if values[dest] is _UNSET]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(missing))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        args.run(args)
        return 0
    except (BudgetError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
