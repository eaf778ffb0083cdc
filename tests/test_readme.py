"""The README's CLI examples parse: a renamed setting or flag breaks this
test instead of the docs.  Nothing runs beyond parsing."""

import re
import shlex
from pathlib import Path

from awgnauth import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI_SECTION = README[README.index("\n## CLI\n"):]


def fenced(language):
    """The first ``language`` code block of the README's CLI section."""
    return re.search(rf"```{language}\n(.*?)```", CLI_SECTION, re.S).group(1)


def commands():
    """Each ``awgnauth`` command of every ``sh`` block from the CLI section
    on, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", CLI_SECTION, re.S)
    text = "".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("awgnauth ")]


def test_every_command_is_found():
    # the CLI block's and the experiment sweeps alike
    assert len(commands()) == CLI_SECTION.count("\nawgnauth ")


def test_ini_example_parses(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(fenced("ini"))
    assert cli.parse_config(str(path)) != cli.ExperimentConfig()


def test_cli_examples_parse(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(fenced("ini"))
    seen = set()
    for argv in commands():
        args, extras = cli.build_parser().parse_known_args(argv)
        config = str(ini) if args.config == "exp.ini" else args.config
        # as in main: a sweep checks its points, each with its axis value
        cfg = cli.parse_config(config, extras,
                               validate=args.command != "sweep")
        if args.command == "sweep":   # every point passes the config check
            assert args.axis in cli.SWEEPABLE
            for value in args.values.split(","):
                cli.validate_config(cli.apply_settings(
                    cfg, [(args.axis, cli._parse_value(value))]))
        seen.add(args.command)
    assert seen == {"construct", "verify", "bounds", "simulate", "sweep"}
