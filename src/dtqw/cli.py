"""Command-line entry point.

    dtqw <preset> [--key value ...]
    dtqw run [--config FILE] [--key value ...]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import sys

from . import __version__
from .config import ConfigError, parse_config
from .presets import PRESETS, run_config


def _usage(out):
    out.write("usage: dtqw <preset|run> [--config FILE] [--key value ...]\n"
              "\npresets:\n")
    for name, (kind, blurb, _) in PRESETS.items():
        out.write(f"  {name:<10} {blurb} [{kind}]\n")
    out.write("\nkeys are config fields, e.g. --theta-x wall:pi/3:-pi/3:25 "
              "--T 1000 --outdir out\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout)
        return 0
    if argv[0] in ("-V", "--version"):
        print(f"dtqw {__version__}")
        return 0

    command, rest = argv[0], argv[1:]
    try:
        # peel off --config FILE (only meaningful for `run`)
        file = None
        if "--config" in rest:
            i = rest.index("--config")
            if i + 1 >= len(rest):
                raise ConfigError("--config needs a file path")
            file = rest[i + 1]
            rest = rest[:i] + rest[i + 2:]

        if command == "run":
            cfg = parse_config(rest, file=file)
        elif command in PRESETS:
            if file is not None:
                raise ConfigError("--config is only valid with 'dtqw run'")
            cfg = parse_config(rest).set("preset", command)
        else:
            raise ConfigError(f"unknown command or preset {command!r}; "
                              f"available presets: {', '.join(PRESETS)}")
        meta = run_config(cfg)
    except ConfigError as err:
        print(f"dtqw: config error: {err}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as err:
        # norm drift, the spectral guards (UnitarityError) and eigensolver
        # breakdowns (ConvergenceError) surface as RuntimeError
        print(f"dtqw: numerical failure: {err}", file=sys.stderr)
        return 3

    outputs = ", ".join(meta["outputs"] + ["meta.json"])
    print(f"dtqw: {meta['kind']} run complete; wrote {outputs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
