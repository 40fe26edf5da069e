"""The README's examples run as shown and give the values their comments state.

Every fenced python block runs in order, in one namespace.  A statement with
a comment on its lines states a value, and CLAIMS holds the check of each:
a commented statement without a check, or a check whose statement the
README no longer shows, fails.  Every line of a fenced sh block that starts
with "spinpol " (a trailing backslash joins the next line) runs through
cli.main in a temporary directory and must exit 0; the pip and pytest
blocks do not run.  The README names no private attribute of the package.
"""

import ast
import importlib
import io
import pkgutil
import re
import shlex
import tokenize
from pathlib import Path

import numpy as np
import pytest

import spinpol
from spinpol import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def _blocks(lang):
    return [body for tag, body in FENCE.findall(README.read_text(encoding="utf-8")) if tag == lang]


def _run_python():
    """The namespace after every python block, and {statement: (comments, value)} of each commented one."""
    namespace, shown = {}, {}
    for block in _blocks("python"):
        tokens = tokenize.generate_tokens(io.StringIO(block).readline)
        comments = {tok.start[0]: tok.string for tok in tokens if tok.type == tokenize.COMMENT}
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                value = None
            stated = [comments[n] for n in range(node.lineno, node.end_lineno + 1) if n in comments]
            if stated:
                shown[ast.get_source_segment(block, node)] = " ".join(stated), value
    return namespace, shown


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _shapes(*pairs):
    """Each (array, shape) pair's array has that shape."""
    assert [np.shape(a) for a, _ in pairs] == [shape for _, shape in pairs]


def _pair(ns, value):
    pair = ns["pair"]
    np.testing.assert_array_equal(pair.chi_plus, [1, 0])
    np.testing.assert_array_equal(pair.chi_minus, [0, 1j])


def _phase_and_mapping(ns, value):
    phi0, mapping = value
    assert phi0 == np.pi / 2
    pair = ns["pair"]
    assert _same_bits(mapping[:, 0], pair.chi_plus) and _same_bits(mapping[:, 1], pair.chi_minus)


def _packets(ns, value):
    # each batched result equals the stacked single-packet calls bit for bit
    batch, x, t = ns["batch"], ns["x"], ns["t"]
    for p, (one, i_vec, alpha) in enumerate(zip(ns["specs"], ns["i_vecs"], ns["alphas"])):
        cfg = spinpol.PacketConfig(i_vec=i_vec, alpha=alpha)
        rho, s = spinpol.local_spv(one, cfg, x[p], t[p])
        assert _same_bits(rho, ns["rho"][p]) and _same_bits(s, ns["s"][p])
        assert _same_bits(spinpol.total_spin(one, cfg), ns["spins"][p])
    _shapes((batch.k, (2, 125, 3)), (batch.amplitude, (2, 125)), (batch.weight, (2, 125)))


# statement: (its comment in the README, the check of what the comment states)
CLAIMS = {
    "pair = sp.eigen_spinors(frame)": ("# chi+ = (1, 0), chi- = (0, i)", _pair),
    "pair.phi0, pair.mapping": ("# pi/2 and the columns (chi+, chi-)", _phase_and_mapping),
    "sp.spv(chi)": ("# (0, 1, 0)", lambda ns, value: np.testing.assert_array_equal(value, [0.0, 1.0, 0.0])),
    "sp.spv_rotation_residual(frame, np.pi / 2, np.array([1, 1]) / np.sqrt(2))": (
        "# at most 1e-15", lambda ns, value: np.testing.assert_array_less(value, 1e-15 * (1 + 1e-12))
    ),
    "sp.total_spin(spec, cfg)": (
        "# (0, 0, 0.495003) to 1e-6",
        lambda ns, value: np.testing.assert_allclose(value, [0.0, 0.0, 0.495003], rtol=0, atol=1e-6),
    ),
    "frames = sp.build_frame(k_hat, [1.0, 0, 0])": (
        "# u, v of shape (729, 3)",
        lambda ns, value: _shapes((ns["frames"].u, (729, 3)), (ns["frames"].v, (729, 3))),
    ),
    "varpi = sp.mapping_matrix(frames)": ("# (729, 2, 2)", lambda ns, value: _shapes((ns["varpi"], (729, 2, 2)))),
    "hs = sp.heisenberg_sigma(frames)": (
        "# hs.cartesian(): (729, 3, 2, 2)", lambda ns, value: _shapes((ns["hs"].cartesian(), (729, 3, 2, 2)))
    ),
    "batch = sp.Spectrum(**stack)": ("# k (2, 125, 3), amplitude and weight (2, 125)", _packets),
    "rho, s = sp.local_spv(batch, cfgs, x, t)": (
        "# rho (2,), s (2, 3)", lambda ns, value: _shapes((ns["rho"], (2,)), (ns["s"], (2, 3)))
    ),
    "spins = sp.total_spin(batch, cfgs)": ("# (2, 3)", lambda ns, value: _shapes((ns["spins"], (2, 3)))),
    "np.array_equal(spins, one)": ("# True", lambda ns, value: np.testing.assert_equal(value, True)),
}


def test_python_examples_give_the_values_they_state():
    namespace, shown = _run_python()
    assert sorted(shown) == sorted(CLAIMS), "README comments and CLAIMS name different statements"
    for statement, (comment, check) in CLAIMS.items():
        stated, value = shown[statement]
        assert stated == comment, f"the README now states {stated!r} for {statement}"
        check(namespace, value)


def _cli_lines():
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("spinpol "):
                lines.append(shlex.split(line, comments=True)[1:])
    return lines


def test_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    assert [argv[0] for argv in lines] == ["spectrum-gen", "field", "total-spin", "verify", "verify"]
    for argv in lines:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "field":
            # the values the README states for this line
            rows, nodes = map(int, re.search(r"(\d+) rows \((\d+) node points\)", out).groups())
            prob = float(re.search(r"total probability on grid: (\S+)", out).group(1))
            assert (rows, nodes) == (9261, 848)
            assert abs(prob - 0.99999109) < 5e-9
    text = README.read_text(encoding="utf-8")
    assert "writes 9261 rows, 848 of them node points" in text
    assert "total probability on the grid of 0.99999109" in text


def _attribute(obj, name):
    # a dataclass field with a default factory is no class attribute
    fields = getattr(obj, "__dataclass_fields__", {})
    return fields[name] if name in fields else getattr(obj, name)


def _private_names(text):
    """Backticked names in text, outside fenced blocks, that resolve to a private spinpol attribute.

    A name resolves from the package, from one of its modules or from a class
    one of them defines, by module name or directly: `frames._Last.get`,
    `_frame_blocks` and `_cache` (a field of Frame) all do.
    """
    starts = {"spinpol": spinpol}
    for info in pkgutil.iter_modules(spinpol.__path__):
        module = starts[info.name] = importlib.import_module(f"spinpol.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                starts.setdefault(name, obj)
    found = []
    for name in re.findall(r"`([^`\n]+)`", FENCE.sub("", text)):
        if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name):
            continue
        parts = name.split(".")
        for start, obj in starts.items():
            path = parts[1:] if parts[0] == start else parts
            try:
                for part in path:
                    obj = _attribute(obj, part)
            except AttributeError:
                continue
            if any(part.startswith("_") for part in parts):
                found.append(name)
            break
    return list(dict.fromkeys(found))


def test_readme_names_no_private_attribute():
    assert _private_names(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "text, found",
    [
        (
            "`wavepacket._frame_blocks` and `Frame._derived`, `_g17`, `_cache`",
            ["wavepacket._frame_blocks", "Frame._derived", "_g17", "_cache"],
        ),
        ("`build_frame`, `spinpol.frames.EPS_PARALLEL`, `exc.index`, `_nothing_here`", []),
        ("```python\nx = sp._bits\n```\n`heisenberg._direct`", ["heisenberg._direct"]),
    ],
)
def test_private_name_guard_finds_what_it_should(text, found):
    assert _private_names(text) == found
