"""The CLI runner and the shared inputs of the CI checks.

`python -m pytest ci` needs no install and no environment variable: the
library is read from `src` and the test helpers from `tests`, here and in
every child process.  The relation sets and tableaux are built by the
library, once per session, and written as the CLI reads them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = [str(ROOT / "src"), str(ROOT / "tests")]
sys.path[:0] = PATH

from helpers import bad_pattern_lower, bad_pattern_upper, rel, spread_seed  # noqa: E402
from wpimod import (  # noqa: E402
    Pyramid, RelationSet, Tableau, all_indices, standard_set, tableau_to_json,
)


def gl(n):
    return Pyramid((1,) * n)


def relations(pyramid, *edges):
    """A relation set from (greater, lesser, strict) triples."""
    return RelationSet(pyramid, [rel(*e) for e in edges])


def tableau(pyramid, classes, offsets):
    """A tableau with the given classes (one name for all) and offsets, in
    `all_indices` order."""
    if isinstance(classes, str):
        classes = [classes] * len(offsets)
    return Tableau(pyramid, dict(zip(all_indices(pyramid), zip(classes, offsets))))


def weights(*factors, points=None):
    """A weights file's body: each factor's weight as whitespace-separated entries."""
    body = {"weights": [w.split() for w in factors]}
    return body if points is None else {**body, "points": points.split()}


ODD_PRIMES = [p for p in range(3, 138) if all(p % q for q in range(2, p))]
SIXTEEN = [f"1/{p} 1/{q}" for p, q in zip(ODD_PRIMES[::2], ODD_PRIMES[1::2])]

WEIGHTS = {
    "gap": weights("1000000000000 0", "1 0"),
    "moved_point": weights("1 0", "1 0", points="0 -1"),
    "p_denominator": weights("1/2305843009213693951 0", "1/3 1/5"),
    "large_entry": weights("1152921504606846975 0", "1/3 1/5"),
    "p_apart": weights("2305843009213693950 0 0", "1/3 1/5 1/7"),
    "gl3_generic": weights("1/3 1/7 2/5", "1/5 1/2 3/11"),
    "half_integral": weights("1/2 -1/2 1", "-1 -1 3/2"),
    "gl3_fractional": weights("1/3 1/7 2/5", "1/5 1/2 3/11", points="1/2 -2/3"),
    "gl2_fractional": weights("1/3 1/7", "2/5 1/11", "1/13 3/7", points="1/3 0 -3/4"),
    "sixteen_generic": weights(*SIXTEEN),
    # 16 distinct point denominators 2, 3, 5, ..., 53: the scale is their
    # product, about 3.3e19
    "sixteen_fractional": weights(
        *SIXTEEN, points=" ".join(f"1/{p}" for p in [2] + ODD_PRIMES[:15])),
    "four_generic": weights("1/3 1/7", "1/5 1/2", "2/9 0", "1/11 3/4"),
    "gl3_linked_pair": weights("2 2 0", "1 1/2 1"),
    "gl4_linked_pair": weights("3 1 0 -2", "1 0 0 -1"),
}


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    """Every input written once, as a file: its path by name."""
    gl3, gl4, p122, p222 = gl(3), gl(4), Pyramid((1, 2, 2)), Pyramid((2, 2, 2))
    sets = {
        "gl2_standard": standard_set(gl(2)),
        "gl3_standard": standard_set(gl3),
        "gl4_standard": standard_set(gl4),
        "p122_standard": standard_set(p122),
        "p222_standard": standard_set(p222),
        # criterion 2's negative controls, through the rows above and below
        "upper_control": bad_pattern_upper(),
        "lower_control": bad_pattern_lower(),
        "gl4_empty": relations(gl4),
        "p222_empty": relations(p222),
        "p222_one_edge": relations(p222, ((1, 2, 1), (1, 1, 1), False)),
        "gl4_one_edge": relations(gl4, ((1, 2, 1), (1, 3, 2), True)),
        "gl4_top_edge": relations(gl4, ((1, 4, 1), (1, 4, 2), False)),
        "gl6_unbridged": relations(
            gl(6), ((1, 4, 1), (1, 5, 1), True), ((1, 5, 1), (1, 6, 1), True),
            ((1, 5, 3), (1, 6, 5), True), ((1, 5, 4), (1, 4, 4), False),
            ((1, 6, 2), (1, 5, 2), False), ((1, 6, 5), (1, 5, 5), False)),
        "gl5_cycle": relations(
            gl(5), ((1, 2, 1), (1, 3, 3), True), ((1, 3, 1), (1, 4, 4), True),
            ((1, 3, 2), (1, 4, 2), True), ((1, 3, 3), (1, 4, 1), True),
            ((1, 4, 1), (1, 5, 1), True), ((1, 5, 5), (1, 4, 1), False)),
        # the reversed interlacing set (1,10,j+1) >= (1,9,j) > (1,10,j)
        "gl10_reversed": relations(gl(10), *(e for j in range(1, 10) for e in (
            ((1, 10, j + 1), (1, 9, j), False), ((1, 9, j), (1, 10, j), True)))),
    }
    tableaux = {
        "gl3_spread_seed": spread_seed(sets["gl3_standard"]),
        "gl4_spread_seed": spread_seed(sets["gl4_standard"]),
        "p122_seed": spread_seed(sets["p122_standard"]),
        "p222_seed": spread_seed(sets["p222_standard"]),
        "gl2_seed": tableau(gl(2), "0", [-1, 0, -3]),
        "gl3_linked": tableau(gl3, "a", [1, 3, 0, 4, 1, -2]),
        "gl3_other": tableau(gl3, "a", [-3, -1, 2, 4, 1, -2]),
        "gl4_linked": tableau(gl4, "a", [2, 4, 0, 5, 2, -1, 6, 3, 0, -3]),
        "gl4_top_seed": tableau(gl4, "g0 g1 g2 g3 g4 g5 c0 c0 g6 g7".split(), [0] * 10),
    }
    objs = {name: {"pyramid": C.pyramid.to_json(), **C.to_json()} for name, C in sets.items()}
    objs.update((name, tableau_to_json(t)) for name, t in tableaux.items())
    folder = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, obj in {**objs, **WEIGHTS}.items():
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({"v": 1, **obj}) + "\n", encoding="utf-8")
    return paths


@pytest.fixture(scope="session")
def check():
    """`check(args, exit=, sha256=, out=, timeout=)` runs `python *args` with
    `src` and `tests` on its path, killed after `timeout` seconds, and
    requires its exit code and, when given, the sha256 of its stdout or its
    stdout less the final newline."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATH))

    def run(args, exit=0, sha256=None, out=None, timeout=60):
        proc = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              timeout=timeout)
        assert proc.returncode == exit, proc.stderr.decode()[-3000:]
        if sha256 is not None:
            assert hashlib.sha256(proc.stdout).hexdigest() == sha256
        if out is not None:
            assert proc.stdout.decode() == out + "\n"
    return run
