"""Command-line front end with two subcommands: ``sweep`` runs a Monte-Carlo
sweep and writes its CSV, ``recipe`` prints a preset as a config file.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

import argparse
import sys

from .bench import (
    ConfigError,
    SweepConfig,
    apply_settings,
    config_settings,
    emit_csv,
    fig_recipe,
    format_config,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors, exit code 1
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gasmld", description="BER/query sweeps for quantum-assisted block detection")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep and write a CSV")
    sweep.add_argument("--config", metavar="FILE", help="flat key=value config file")
    sweep.add_argument("--recipe", choices=("fig2", "fig3"), help="start from a preset")
    sweep.add_argument("--snr", help="comma list of SNR points in dB")
    sweep.add_argument("--trials", help="trials per sweep point")
    sweep.add_argument("--seed", help="master seed")
    sweep.add_argument("--detector", help="comma list of detectors")
    sweep.add_argument("--ris", help="comma list of reflecting-element counts")
    sweep.add_argument("--out", help="output CSV path")

    recipe = sub.add_parser("recipe", help="print a preset as a config file")
    recipe.add_argument("name", choices=("fig2", "fig3"))
    return parser


# sweep flag -> config key; flags go through the same key table as a config file
_FLAG_KEYS = {"snr": "snr_db", "detector": "detectors", "ris": "ris",
              "trials": "trials", "seed": "seed", "out": "out"}


def _cmd_sweep(args) -> int:
    settings = []
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                settings = config_settings(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    # the file's lines, then the flags, validated once: flags override the file
    settings += [(f"--{flag}", key, getattr(args, flag)) for flag, key in _FLAG_KEYS.items()
                 if getattr(args, flag) is not None]
    cfg = apply_settings(fig_recipe(args.recipe) if args.recipe else SweepConfig(), settings)
    records = run_sweep(cfg)
    emit_csv(records, cfg.output_path)
    print(f"wrote {cfg.output_path} ({len(records)} records)")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        sys.stdout.write(format_config(fig_recipe(args.name)))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaced as runtime failure, exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
