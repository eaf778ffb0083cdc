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
    """Each ``awgnauth`` command of the CLI block, continuations joined."""
    text = fenced("sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("awgnauth ")]


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
        cli.parse_config(config, extras)
        if args.command == "sweep":
            assert args.axis in cli.SWEEPABLE
        seen.add(args.command)
    assert seen == {"construct", "verify", "bounds", "simulate", "sweep"}
