"""The package loads each module on the first read of one of its names.

Every check runs in a fresh interpreter, since what a process has
already imported is the thing under test.  The stage sums and closed
forms must not pull in the characters or the series routes: the set-up
time of the p-adic workloads rests on that layering.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ["errors", "numeric", "euler_numbers", "fermionic", "characters", "_direct", "zeta"]


def fresh(code):
    """The JSON that ``code`` prints as its last line, run in a new
    interpreter with the checkout's ``src`` first on the path; ``loaded()``
    there lists the ``qeuler`` modules imported so far."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m[7:] for m in sys.modules if m.startswith('qeuler.'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_bare_import_loads_no_module():
    assert fresh("import qeuler\nprint(json.dumps(loaded()))") == []


def test_first_read_of_a_stage_sum_loads_its_layers_only():
    got = fresh("""
        import qeuler
        qeuler.stage_sum
        # the whole module's exports are bound at once
        print(json.dumps([loaded(), 'higher_order_stage' in vars(qeuler)]))
    """)
    assert got == [["errors", "fermionic", "numeric"], True]


def test_first_read_of_a_closed_form_loads_its_layers_only():
    got = fresh("import qeuler\nqeuler.qeuler_higher\nprint(json.dumps(loaded()))")
    assert got == ["errors", "euler_numbers", "numeric"]


def test_padic_layers_import_no_series_module():
    got = fresh("""
        import qeuler.errors, qeuler.numeric, qeuler.euler_numbers, qeuler.fermionic
        print(json.dumps(loaded()))
    """)
    assert got == ["errors", "euler_numbers", "fermionic", "numeric"]
    assert not {"characters", "_direct", "zeta", "_verify", "cli"} & set(got)


def test_every_public_name_is_its_defining_modules_object():
    got = fresh(f"""
        import importlib, qeuler
        modules = [importlib.import_module('qeuler.' + m) for m in {LIBRARY!r}]
        owners = {{}}
        for name in qeuler.__all__:
            owners[name] = [m.__name__ for m in modules if name in getattr(m, '__all__', ())
                            and getattr(m, name) is getattr(qeuler, name)]
        print(json.dumps(owners))
    """)
    assert len(got) == 49
    assert got.pop("__version__") == []
    assert all(len(owners) == 1 for owners in got.values()), got


def test_star_import_and_dir_cover_all():
    got = fresh("""
        import qeuler
        names = set(dir(qeuler))
        namespace = {}
        exec('from qeuler import *', namespace)
        print(json.dumps([sorted(set(qeuler.__all__) - names),
                          sorted(set(qeuler.__all__) - set(namespace)),
                          all(namespace[n] is getattr(qeuler, n) for n in qeuler.__all__)]))
    """)
    assert got == [[], [], True]


def test_submodules_resolve_after_a_bare_import():
    got = fresh(f"""
        import qeuler
        print(json.dumps([getattr(qeuler, m) is sys.modules['qeuler.' + m] for m in {LIBRARY!r}]))
    """)
    assert got == [True] * len(LIBRARY)


def test_unknown_name_raises_attribute_error():
    got = fresh("""
        import qeuler
        try:
            qeuler.no_such_name
        except AttributeError as exc:
            message = str(exc)
        try:
            from qeuler import no_such_name  # noqa: F401
        except ImportError as exc:
            imported = type(exc).__name__
        print(json.dumps([message, imported, hasattr(qeuler, 'cli'), loaded()]))
    """)
    assert got == ["module 'qeuler' has no attribute 'no_such_name'", "ImportError", False, []]
