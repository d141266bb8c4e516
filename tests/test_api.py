import ast
import re
import subprocess
import sys
from pathlib import Path

import omnisched


def test_every_export_imports_once():
    names = omnisched.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(omnisched, name)]
    assert missing == []


def test_oracles_import_nothing_from_omnisched():
    # the references must not share code with the implementation they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "omnisched"] == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["padded", "naive"], ["padded", "balanced"], ["ffd", "naive"], ["ffd", "balanced"],
    ]
    assert float(lines[0].split()[2]) == 1.0


def test_cli_import_loads_no_thread_pool():
    # simulate_routing imports concurrent.futures when it runs, so that the
    # CLI's start-up does not pay for it
    src = Path(__file__).parent.parent / "src"
    code = "import omnisched.cli, sys; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_cli_import_route_and_reproduce_load_no_process_pool(tmp_path):
    # the CLI forks its workers with os.fork: no command loads a process
    # pool, not even a simulate and a reproduce that fork (two usable CPUs,
    # and reproduce's threshold cli._FORK_CELL_WORK patched to 0)
    src = Path(__file__).parent.parent / "src"
    code = (
        "import omnisched.cli as cli, os, sys\n"
        "from importlib import resources\n"
        "loaded = lambda: [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
        "print(loaded())\n"
        "assert cli.main(['route', '--experts', '4', '--top-k', '2', '--tokens', '8', '--steps', '2',"
        " '--out', 'route']) == 0\n"
        "assert cli.main(['reproduce', '--out', 'reproduce']) == 0\n"
        "print(loaded())\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "cli._usable_cpus, cli._FORK_CELL_WORK = (lambda: 2), 0\n"
        "scenario = str(resources.files('omnisched').joinpath('data/reproduce.yaml'))\n"
        "assert cli.main(['simulate', '--config', scenario, '--out', 'simulate']) == 0\n"
        "assert cli.main(['reproduce', '--out', 'forked']) == 0\n"
        "print(len(forks), loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=tmp_path, env={"PYTHONPATH": str(src)})
    assert out.stdout.splitlines() == ["[]", "[]", "4 []"]


def test_trace_file_commands_load_no_numpy(tmp_path):
    # numpy is imported only where a command draws or routes: importing the
    # package and the CLI, plan, and pack, mem, simulate and reproduce on a
    # trace file (with one worker, then forked) load none of it, and route
    # and a synthetic-trace simulate in the same process still run
    src = Path(__file__).parent.parent / "src"
    code = (
        "import json, os, sys, yaml\n"
        "loaded = lambda: 'numpy' in sys.modules\n"
        "import omnisched\n"
        "print(loaded())\n"
        "import omnisched.cli as cli\n"
        "from importlib import resources\n"
        "from omnisched.config import reproduce_scenario_doc\n"
        "from omnisched.workload import Modality, WorkloadTrace, save_trace\n"
        "print(loaded())\n"
        "save_trace(WorkloadTrace(range(60), list(Modality) * 15, [(k * 397) % 3000 + 1 for k in range(60)]),"
        " 'trace.ndjson')\n"
        "doc = reproduce_scenario_doc()\n"
        "doc['trace'] = {'path': 'trace.ndjson'}\n"
        "open('scenario.yaml', 'w').write(yaml.safe_dump(doc))\n"
        "open('cost.json', 'w').write(json.dumps(doc['cost_model']))\n"
        "cli._usable_cpus = lambda: 1\n"
        "runs = [['plan', '--cost-model', 'cost.json', '--layouts', '1x4x1,1x8x2'],\n"
        "        ['pack', '--trace', 'trace.ndjson', '--capacity', '4096'],\n"
        "        ['mem', '--trace', 'trace.ndjson', '--capacity', '4096'],\n"
        "        ['simulate', '--config', 'scenario.yaml'], ['reproduce', '--scenario', 'scenario.yaml']]\n"
        "for k, argv in enumerate(runs):\n"
        "    assert cli.main(argv + ['--out', f'run{k}']) == 0, argv\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "cli._usable_cpus, cli._FORK_CELL_WORK = (lambda: 2), 0\n"
        "for k, argv in enumerate(runs[3:]):\n"
        "    assert cli.main(argv + ['--out', f'forked{k}']) == 0, argv\n"
        "print(len(forks), loaded())\n"
        "assert cli.main(['route', '--experts', '4', '--top-k', '2', '--tokens', '8', '--steps', '2',"
        " '--out', 'route']) == 0\n"
        "scenario = str(resources.files('omnisched').joinpath('data/reproduce.yaml'))\n"
        "assert cli.main(['simulate', '--config', scenario, '--out', 'synthetic']) == 0\n"
        "print(loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=tmp_path, env={"PYTHONPATH": str(src)})
    assert out.stdout.splitlines() == ["False", "False", "4 False", "True"]
