"""The input files of the command-line tests and one argv builder for
every `chanres` command.

`INPUTS` maps a file name to the JSON it holds.  `argv_of(command,
**options)` gives the command's argv with sample values, which keywords
replace (`codebook_size=16` for `--codebook-size 16`); None leaves an
option out and True gives a switch such as --worst.  Options are listed
in the order of the sample, then in the order given, so the golden
files' command lines come out token for token.

Run as a script, this writes the input files of README.md's
command-line examples into the current directory:

    PYTHONPATH=src python tests/commands.py
"""

import json
import os

from chanres import Channel, bsc, constant_channel, identity_channel, uniform


def channel_file(rows):
    """A channel file's fields: `rows` as written, or a Channel's rows."""
    if isinstance(rows, Channel):
        rows = rows.rows.tolist()
    return {"input_size": len(rows), "output_size": len(rows[0]),
            "rows": rows}


INPUTS = {
    "bsc01.json": channel_file(bsc(0.1)),
    "bsc03.json": channel_file(bsc(0.3)),
    "bob.json": channel_file(bsc(0.05)),
    "eve.json": channel_file(bsc(0.2)),
    **{f"id{k}.json": channel_file(identity_channel(k))
       for k in (2, 3, 7, 16)},
    **{f"u{k}.json": {"probs": uniform(k).probs.tolist()}
       for k in (2, 3, 7, 16)},
    # a 16-input channel with one output, and a 3-input one that ignores
    # its input
    "const16.json": channel_file(constant_channel([1.0], 16)),
    "const3.json": channel_file(constant_channel([0.5, 0.5], 3)),
}


def write_inputs(directory=".", files=INPUTS):
    """Each file of `files` in `directory`."""
    for name, doc in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


_WIRETAP = dict(channel_b="bob.json", channel_e="eve.json", dist="u2.json",
                messages=2, randomization=4, threshold=2,
                decoder_threshold=4)

# each command's sample options, in the order its argv lists them; None
# keeps a place for an option the sample leaves out
SAMPLES = {
    "bounds": dict(channel="bsc01.json", dist="u2.json", codebook_size=4,
                   threshold=2),
    "exponents": dict(channel="bsc01.json", dist="u2.json", worst=None,
                      rate_start=0.8, rate_end=1.2, rate_steps=3),
    "simulate resolvability": dict(channel="bsc01.json", dist="u2.json",
                                   codebook_size=4, threshold=2,
                                   blocklength=None, trials=100, seed=0),
    "simulate wiretap": dict(_WIRETAP, blocklength=None, seed=0),
    "wiretap-bounds": _WIRETAP,
    "idcode build": dict(channel="id7.json", dist="u7.json", blocklength=None,
                         alpha=2, alpha_prime=4, beta=2, beta_prime=4,
                         tau=0.15, kappa=0.99, codewords=7, threshold=2,
                         seed=2),
    "idcode eval": dict(channel="id7.json", dist="u7.json", blocklength=None,
                        code="code.json"),
    "capacity": dict(channel="bsc01.json"),
}


def argv_of(command, **options):
    """The argv of `command`: its sample options, with `options` in place."""
    argv = command.split()
    for name, value in {**SAMPLES[command], **options}.items():
        if value is not None and value is not False:
            argv.append("--" + name.replace("_", "-"))
            if value is not True:
                argv.append(str(value))
    return argv


if __name__ == "__main__":
    # README.md names the BSC(0.1) chan.json and the uniform law p.json
    write_inputs(files={**INPUTS, "chan.json": INPUTS["bsc01.json"],
                        "p.json": INPUTS["u2.json"]})
