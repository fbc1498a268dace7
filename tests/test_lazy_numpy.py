"""numpy loads on first use: binary work runs in processes without it.

Each case runs in a fresh interpreter, prints its results, and reports
whether `numpy` is in `sys.modules` at the end.  The expected outputs are
what the library printed when it still imported numpy at import time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import redundarith
from redundarith.codes import made_code, msb_rows, to_json_dict, to_text

SRC = str(Path(redundarith.__file__).resolve().parents[1])

LIB = "from redundarith import *\nfrom redundarith import make_from_value as m\n"
CLI = "from redundarith.cli import main\nprint('exit', main({!r}))\n"
README_CODE = "mrc 5 3 2 0\n101\n011\n110\n001\n111\n"  # README "CLI"


def cli_file(text: str, *argv: str) -> str:
    """A script that writes `text` to a file and runs the CLI on `argv`,
    with FILE in an argument standing for that file's path."""
    return ("import os, tempfile\nfrom redundarith.cli import main\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    path = os.path.join(tmp, 'code.txt')\n"
            f"    with open(path, 'w') as fh:\n        fh.write({text!r})\n"
            f"    print('exit', main([arg.replace('FILE', path) for arg in {list(argv)!r}]))\n")


# id: (script, its stdout)
BINARY = {
    "import": ("import redundarith\n", ""),
    "import-cli": ("import redundarith.cli\n", ""),
    "make_from_value": (LIB + "c = m(45, 2, 8)\nprint(c.packed, c.width, value_of(c))\n",
                        "(45, 0) 8 45\n"),
    "multiply": (LIB + "print(to_json(multiply(m(45, 1, 6), m(57, 1, 6))))\n",
                 '{"digits": [[0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 0, 0, 0, '
                 '1, 0, 0, 0, 0, 0]], "lsb_exp": 0, "radix": 2, "rows": 2, "width": 14}\n'),
    "multiply-signed": (LIB + "p = multiply(m(45, 1, 6), m(57, 1, 6), signed=True)\n"
                        "print(to_text(p) + str(signed_product_value(p, 6)))\n",
                        "mrc 2 17 2 0\n00000010001000101\n00000010001000000\n133\n"),
    "fused_mac": (LIB + "out = fused_mac(m(1000, 2, 12), m(45, 1, 6), m(57, 1, 6))\n"
                  "print(to_text(out) + str(value_of(out)))\n",
                  "mrc 2 18 2 0\n000000100111101101\n000000010000000000\n3565\n"),
    "add_two_row": (LIB + "print(to_text(add_two_row(m(7, 2, 3), m(5, 2, 3))), end='')\n",
                    "mrc 2 4 2 0\n1000\n0100\n"),
    "quad_add": (LIB + "q = quad_add(quad_from_value(-7, 4), quad_from_value(3, 4))\n"
                 "print(q)\nprint(to_json(q.pos))\nprint(to_json(q.neg))\n",
                 'QuadSignedCode(value=-4)\n'
                 '{"digits": [[0, 0, 1, 1], [0, 0, 0, 0]], "lsb_exp": 0, "radix": 2, "rows": 2, "width": 4}\n'
                 '{"digits": [[0, 1, 1, 1], [0, 0, 0, 0]], "lsb_exp": 0, "radix": 2, "rows": 2, "width": 4}\n'),
    "value_of": (LIB + "from fractions import Fraction\n"
                 "print(value_of(make_from_value(Fraction(11, 4), 2, 6, 2, -2)))\n", "11/4\n"),
    "divide-bisect": (LIB + "print(divide(45, 57, 2, 3))\n", "([3, 0, 2], 30)\n"),
    "divide-eager": (LIB + "print(divide(45, 57, 2, 3, method='eager'))\n", "([3, 0, 2], 30)\n"),
    "evaluate": (LIB + "r = evaluate('3*5 - 7/2 + div(1, 3, 2, 4)')\n"
                 "print(r.value)\nprint(to_text(r.code.pos) + to_text(r.code.neg), end='')\n",
                 "3029/256\nmrc 2 13 2 -8\n0111101010101\n0000000000000\n"
                 "mrc 2 13 2 -8\n0001110000000\n0000000000000\n"),
    "map_eval": (LIB + "s = map_eval(MapConfig(width=8, mode='one-shot'), a=m(200, 1, 8), "
                 "b=m(131, 1, 8), c=m(77, 1, 8))\nprint(map_total(s), s.overflow_count)\n",
                 "26277 0\n"),
    "map_accumulate": (LIB + "cfg = MapConfig(width=6, mode='accumulate')\n"
                       "s = map_accumulate(cfg, [{'a': m(45, 1, 6), 'b': m(57, 1, 6)}] * 3)\n"
                       "print(map_total(s), s.overflow_count)\n", "7695 3\n"),
    "accumulator": (LIB + "acc = acc_step(acc_new(8), m(200, 1, 8))\n"
                    "acc = acc_step2(acc, m(255, 2, 8))\nacc = acc_step(acc, m(99, 1, 8))\n"
                    "print(acc.packed, acc.overflow_count, acc_total(acc))\n", "(196, 102) 1 554\n"),
    "from_text": (LIB + f"c = from_text({README_CODE!r})\nprint(c.packed, c.width, value_of(c))\n",
                  "(5, 3, 6, 1, 7) 3 22\n"),
    "from_json": (LIB + "c = from_json('{\"digits\": [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], "
                  "[1, 1, 1]], \"lsb_exp\": 0, \"radix\": 2, \"rows\": 5, \"width\": 3}')\n"
                  "print(c.packed, c.width, value_of(c))\n", "(5, 3, 6, 1, 7) 3 22\n"),
    "cli-reduce": (cli_file(README_CODE, "reduce", "FILE"), "mrc 2 6 2 0\n001110\n001000\nexit 0\n"),
    "cli-add-file": (cli_file("mrc 1 3 2 0\n111\n", "add", "@FILE", "5"),
                     "mrc 2 4 2 0\n1000\n0100\nexit 0\n"),
    "cli-map-file": (cli_file("mrc 1 8 2 0\n01001101\n", "map", "a=200", "b=131", "c=@FILE", "--width", "8"),
                     "total 26277\noverflow_count 0\nexit 0\n"),
    "cli-mul": (CLI.format(["mul", "45", "57", "--width", "6"]),
                "mrc 2 14 2 0\n00010111100101\n00010000100000\nexit 0\n"),
    "cli-mul-signed": (CLI.format(["mul", "45", "57", "--width", "6", "--signed"]),
                       "mrc 2 17 2 0\n00000010001000101\n00000010001000000\nvalue 133\nexit 0\n"),
    "cli-mul-json": (CLI.format(["mul", "45", "57", "--width", "6", "--json"]),
                     '{"digits": [[0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 0, 0, 0, '
                     '1, 0, 0, 0, 0, 0]], "lsb_exp": 0, "radix": 2, "rows": 2, "width": 14}\nexit 0\n'),
    "cli-mac": (CLI.format(["mac", "1000", "45", "57"]),
                "mrc 2 17 2 0\n00000100111101101\n00000010000000000\nexit 0\n"),
    "cli-add": (CLI.format(["add", "7", "5"]), "mrc 2 4 2 0\n1000\n0100\nexit 0\n"),
    "cli-div": (CLI.format(["div", "45", "57", "2", "3"]),
                "digits 3 0 2\nresidual 30\nquotient 25/32\nexit 0\n"),
    "cli-eval-json": (CLI.format(["eval", "3*5 - 7/2", "--json"]),
                      '{"neg": {"digits": [[0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0]], "lsb_exp": -1, '
                      '"radix": 2, "rows": 2, "width": 6}, "pos": {"digits": [[0, 1, 1, 1, 1, 0], '
                      '[0, 0, 0, 0, 0, 0]], "lsb_exp": -1, "radix": 2, "rows": 2, "width": 6}, '
                      '"value": "23/2"}\nexit 0\n'),
    "cli-map": (CLI.format(["map", "a=200", "b=131", "c=77", "--width", "8"]),
                "total 26277\noverflow_count 0\nexit 0\n"),
    # --trace writes to stderr; stdout is that of the untraced commands
    "cli-mul-trace": (CLI.format(["mul", "45", "57", "--width", "6", "--trace"]),
                      "mrc 2 14 2 0\n00010111100101\n00010000100000\nexit 0\n"),
    "cli-map-tc-trace": (CLI.format(["map", "a=13", "b=3", "c=15", "--width", "4", "--tc", "--trace"]),
                         "total 246\noverflow_count 1\nsigned_total -10\nexit 0\n"),
    # the fuzz ops that take no digit matrix draw and check binary operands as ints
    "fuzz_verify": (LIB + "print(fuzz_verify(seed=1, trials=28, scope=('mul', 'mac', 'div', 'map')).to_text(), "
                    "end='')\n", "fuzz seed=1 trials=28 scope=mul,mac,div,map\npassed 28/28\n"),
    "cli-fuzz": (CLI.format(["fuzz", "--seed", "1", "--scope", "mul,mac,div,map"]),
                 "fuzz seed=1 trials=100 scope=mul,mac,div,map\npassed 100/100\nexit 0\n"),
    "cli-report": (CLI.format(["report", "--table", "2.1"]),
                   "report 2.1\nm        m2  m3  m4  stages  derived\n3        2           1       ok\n"
                   "4..7     3   2       2       ok\n8..15    4   3   2   3       ok\n"
                   "16..31   5   3   2   3       ok\n32..63   6   3   2   3       ok\n"
                   "64..127  7   3   2   3       ok\nexit 0\n"),
}


def fresh(script: str) -> tuple:
    """(stdout, whether numpy was loaded) of `script` run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script += "import sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, loaded = proc.stdout.splitlines(keepends=True)
    return "".join(lines), loaded.strip()


@pytest.mark.parametrize("case", BINARY)
def test_binary_path_runs_without_numpy(case):
    script, want = BINARY[case]
    assert fresh(script) == (want, "False")


def test_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples; compared with the interpreter's own
    # start-up modules, so a site hook that loads either cannot trip it
    script = ("import sys\nbefore = set(sys.modules)\nimport redundarith.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    assert fresh(script) == ("[]\n", "False")


def test_radix3_loads_numpy_on_first_use():
    script = (LIB + "c = add_two_row(m(7, 2, None, 3), m(5, 2, None, 3))\n"
              "print(to_text(c), end='')\nprint(c.digits.tolist())\n")
    assert fresh(script) == ("mrc 2 3 3 0\n000\n110\n[[0, 0, 0], [0, 1, 1]]\n", "True")


def test_binary_writers_match_the_digit_matrix(rng):
    # to_text and to_json_dict write binary rows from `packed`; the digit
    # matrix, read MSB first, is the reference
    for width in range(131):
        for rows in range(1, 5):
            ints = [int.from_bytes(rng.bytes(17), "little") % (1 << width) for _ in range(rows - 1)]
            code = made_code([(1 << width) - 1, *ints], width)
            want = code.digits[:, ::-1].tolist()
            assert msb_rows(code) == to_json_dict(code)["digits"] == want
            header = f"mrc {rows} {width} 2 0\n"
            assert to_text(code) == header + "".join("".join(map(str, row)) + "\n" for row in want)
