"""The README's CLI examples parse and its Python examples use only names
and keywords that ``awgnauth`` has: a renamed setting, flag, name or
option breaks this test instead of the docs.  Nothing runs beyond
parsing."""

import ast
import importlib
import inspect
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


def python_blocks():
    """Every ``python`` code block of the README, in order."""
    return re.findall(r"```python\n(.*?)```", README, re.S)


def awgnauth_misuses(sources):
    """The misuses of ``awgnauth`` in ``sources``, a sequence of Python
    sources read as one program: a name imported from a module of the
    package that the module lacks, and a keyword passed to a callable of
    the package (an imported name, or an attribute of one) that its
    signature lacks.  Nothing runs."""
    names, misuses = {}, []
    trees = [ast.parse(source) for source in sources]
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "awgnauth"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    names[alias.asname or alias.name] = getattr(module,
                                                                alias.name)
                else:
                    misuses.append(f"{node.module} has no {alias.name}")
        elif isinstance(node, ast.Import):   # import a.b binds a; as c, a.b
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "awgnauth":
                    names[alias.asname or top] = importlib.import_module(
                        alias.name if alias.asname else top)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func, path = node.func, []
        while isinstance(func, ast.Attribute):
            path.insert(0, func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id in names):
            continue
        target = names[func.id]
        for attr in path:
            target = getattr(target, attr, None)
        if not callable(target):
            misuses.append(f"{'.'.join([func.id, *path])} is no callable")
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        misuses += [f"{'.'.join([func.id, *path])} takes no {kw.arg}="
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    return misuses


def test_python_examples_compile():
    blocks = python_blocks()
    assert len(blocks) >= 2   # the quick start and the metric list
    for i, block in enumerate(blocks):
        compile(block, f"README python block {i}", "exec")


def test_python_examples_use_only_what_awgnauth_has():
    # the quick start's 20,000-trial alpha_star run is too slow to run
    # here, so its calls are checked against the signatures instead
    blocks = python_blocks()
    assert awgnauth_misuses(blocks) == []
    # the check reads the README's own calls: a keyword that estimate
    # lacks, added to the quick start's call, is caught
    spoiled = blocks[0].replace('seed=1)', 'seed=1, confidence=0.9)')
    assert spoiled != blocks[0]
    assert awgnauth_misuses([spoiled, *blocks[1:]]) \
        == ["estimate takes no confidence="]


def test_a_removed_name_or_keyword_is_caught():
    example = ("from awgnauth import estimate, nothing_here\n"
               "from awgnauth.adversary import AttackSpec\n"
               "import awgnauth.simulate as sim\n"
               "estimate(code, channel, 'epsilon', 100, confidence=0.9)\n"
               "AttackSpec('none', custom=f)\n"
               "AttackSpec.parse(text='none', strict=True)\n"
               "sim.run_trial(code, ch, spec, 0, seed=1, threads=2)\n")
    assert awgnauth_misuses([example]) == [
        "awgnauth has no nothing_here", "estimate takes no confidence=",
        "AttackSpec takes no custom=", "AttackSpec.parse takes no strict=",
        "sim.run_trial takes no threads="]
