"""Fuzz of the text front end: any document ends in a defined outcome."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covsolve import cli
from covsolve.probelang import ParseError, format_spec, parse_spec
from covsolve.vecspace import TYPES_BY_NAME

_TYPES = st.sampled_from(sorted(TYPES_BY_NAME))
# mostly literals every type takes, sometimes ones that some types reject
_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "3", "0.5"]),
    st.sampled_from(["-1", "-7", "255", "2.5e3", "1e39", "1e400",
                     "9007199254740993", "18446744073709551615"]))
_COMPARATORS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
_CONSTANTS = st.sampled_from(["0", "1", "2.5", "10", "0.1", "1e400"])


def _expressions(names):
    return st.recursive(
        st.one_of(st.sampled_from(names), _CONSTANTS),
        lambda sub: st.one_of(
            st.builds("{} {} {}".format, sub, st.sampled_from("+-*/"), sub),
            st.builds("-{}".format, sub),
            st.builds("({})".format, sub),
            st.builds("{}({})".format, st.sampled_from(["abs", "f64"]), sub),
            st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), sub, sub),
        ),
        max_leaves=6)


_TOKEN_SOUP = st.lists(st.sampled_from([
    "var", "init", "abe", "x", "y", ":", "=", "f32", "u8", "0", "1e400", "+", "-",
    "*", "/", "(", ")", ",", "abs", "min", "sin", "==", "<", ">=", "#"]),
    max_size=8).map(" ".join)


@st.composite
def documents(draw):
    """A well-formed document, then arbitrary lines spliced in."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z"]),
                          min_size=1, max_size=3, unique=True))
    exprs = _expressions(names)
    lines = [f"var {name} : {draw(_TYPES)}" for name in names]
    lines += [f"init {name} = {draw(_LITERALS)}" for name in names]
    lines += [f"abe {draw(exprs)} {draw(_COMPARATORS)} 0"
              for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        noise = draw(st.one_of(_TOKEN_SOUP, st.text(max_size=20)))
        lines.insert(draw(st.integers(0, len(lines))), noise)
    return "\n".join(lines)


DOCUMENTS = documents()


@given(DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_parse_spec_returns_a_round_tripping_spec_or_raises_parse_error(text):
    try:
        spec = parse_spec(text)
    except ParseError:
        return
    assert parse_spec(format_spec(spec)) == spec


@given(DOCUMENTS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_solve_exits_0_1_or_2_without_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.prob"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", str(path), "--max-evals", "500"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
