"""Front-end behaviour: grammar round-trips, golden outputs, determinism,
and the exit-status contract."""

import contextlib
import io
import pathlib
import re

import pytest

from ordercuts.cli import (
    Parser,
    main,
    parse_definitions,
    parse_machine_report,
    print_definitions,
    run,
)
from ordercuts.errors import DomainError, ParseError
from subproc import run_python

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

CORPUS = (FIXTURES / "corpus.defs").read_text()


def invoke(*args):
    proc = run_python("-m", "ordercuts.cli", *args)
    return proc.returncode, proc.stdout


class TestRoundTrip:
    def test_print_parse_idempotent_on_corpus(self):
        defs = parse_definitions(CORPUS)
        canon = print_definitions(defs)
        again = print_definitions(parse_definitions(canon))
        assert canon == again

    def test_countable_corpus(self):
        text = (FIXTURES / "countable.defs").read_text()
        canon = print_definitions(parse_definitions(text))
        assert canon == print_definitions(parse_definitions(canon))

    def test_whitespace_immaterial(self):
        wild = CORPUS.replace(" = ", "   =\n  ").replace("; ", " ;  ")
        assert print_definitions(parse_definitions(wild)) == \
            print_definitions(parse_definitions(CORPUS))

    def test_simple_literal_roundtrip(self):
        text = "let T = well(aleph(1))\n"
        assert print_definitions(parse_definitions(text)) == text

    def test_nested_comp_collapses(self):
        defs = parse_definitions("let A = comp(comp(well(aleph(1))))\n"
                                 "let B = comp(well(aleph(1)))\n"
                                 "let E = comp(empty)\n")
        assert defs[0][1] == defs[1][1]
        assert print_definitions(defs) == ("let A = comp(well(aleph(1)))\n"
                                           "let B = comp(well(aleph(1)))\n"
                                           "let E = empty\n")

    def test_empty_exponent_series_roundtrips(self):
        """A series over lex0 has the one exponent (), printed and read back."""
        from ordercuts.hahn_concrete import ExponentGroup, HahnElement
        defs = [("S", HahnElement.one(ExponentGroup(0)))]
        text = print_definitions(defs)
        assert text == "let S = series(exp=lex0; ():1)\n"
        assert parse_definitions(text) == defs

    def test_unknown_keyword_is_named(self):
        with pytest.raises(ParseError) as err:
            parse_definitions("let T = wobble(aleph(1))\n")
        assert "wobble" in str(err.value)

    def test_undefined_reference(self):
        with pytest.raises(ParseError) as err:
            parse_definitions("let T = rev(U)\n")
        assert "U" in str(err.value)

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_definitions("let T = empty\nlet T = empty\n")


class TestGolden:
    @pytest.mark.parametrize("cmd,fixture,fmt,extra", [
        ("spectrum", "corpus.defs", "text", ("--bound", "aleph(4)")),
        ("spectrum", "corpus.defs", "machine", ("--bound", "aleph(4)")),
        ("classify", "corpus.defs", "text", ()),
        ("classify", "corpus.defs", "machine", ()),
        ("extend", "corpus.defs", "text", ()),
        ("extend", "corpus.defs", "machine", ()),
        ("check-conditions", "corpus.defs", "text", ()),
        ("check-conditions", "corpus.defs", "machine", ()),
        ("verify", "countable.defs", "text", ()),
        ("verify", "countable.defs", "machine", ()),
    ])
    def test_matches_golden_and_stable(self, cmd, fixture, fmt, extra):
        args = ("--in", str(FIXTURES / fixture), "--cmd", cmd,
                "--format", fmt, *extra)
        code1, out1 = invoke(*args)
        code2, out2 = invoke(*args)
        assert out1 == out2, "two runs disagree"
        golden = (GOLDEN / f"{cmd}_{fixture.split('.')[0]}.{fmt}").read_text()
        assert out1 == golden
        assert code1 == code2

    def test_machine_report_reparses(self):
        for name in ("spectrum_corpus.machine", "classify_corpus.machine",
                     "verify_countable.machine"):
            text = (GOLDEN / name).read_text()
            command, rows = parse_machine_report(text)
            assert rows[0]["rec"] == "report"
            rendered = _render_rows(command, rows)
            assert rendered == text

    def test_exit_status_values(self):
        code, _ = invoke("--in", str(FIXTURES / "corpus.defs"),
                         "--cmd", "classify")
        assert code == 0
        code, _ = invoke("--in", str(FIXTURES / "corpus.defs"),
                         "--cmd", "check-conditions")
        assert code == 1  # Jbad and Rfix fail their conditions
        code, _ = invoke("--in", str(FIXTURES / "errors.defs"),
                         "--cmd", "spectrum")
        assert code == 2
        code, _ = invoke("--in", str(FIXTURES / "nonexistent.defs"),
                         "--cmd", "spectrum")
        assert code == 2


def _render_rows(command, rows):
    lines = []
    for fields in rows:
        lines.append("|".join(f"{k}={v}" for k, v in fields.items()))
    return "\n".join(lines) + "\n"


class TestRunApi:
    def test_exit_status_from_report(self):
        defs = parse_definitions(CORPUS)
        assert run(defs, "classify").exit_status == 0
        assert run(defs, "check-conditions").exit_status == 1

    def test_unknown_command_is_refused(self):
        """An unknown command names itself and the known ones, where it used
        to give an empty report with exit status 0."""
        with pytest.raises(DomainError, match=r"unknown command 'bogus'; known: "
                           r"spectrum, classify, extend, verify, check-conditions$"):
            run(parse_definitions(CORPUS), "bogus")

    def test_bound_parsing(self):
        parser = Parser("aleph(3)")
        assert str(parser.parse_cardinal()) == "aleph(3)"

    def test_spectrum_prints_the_canonical_card_set(self, tmp_path):
        """aleph(w) is singular, so reg<aleph(w+1) is printed reg<aleph(w)."""
        text = ("let T = atom(x; cf=aleph(0); ci=aleph(0); coin={reg<aleph(w+1)}; "
                "cofin={aleph(0)}; cuts={(aleph(0),aleph(0))})\n")
        code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum")
        assert (code, err) == (0, "")
        assert "coin={reg<aleph(w)}  cofin={reg<aleph(1)}" in out


class TestScheduleShorthand:
    def test_lim_mu_sets_both_tracks(self):
        defs = parse_definitions(
            "let J = lexsched(mu=aleph(2); k0=aleph(1); l0=aleph(1); "
            "k1=aleph(2); l1=aleph(3); succ=plusplus; lim=mu)\n")
        term = defs[0][1]
        assert str(term.schedule.klim) == "aleph(2)"
        assert str(term.schedule.llim) == "aleph(2)"

    def test_per_track_overrides(self):
        defs = parse_definitions(
            "let J = lexsched(mu=aleph(2); k0=aleph(1); l0=aleph(1); "
            "k1=aleph(2); l1=aleph(3); ksucc=id; lsucc=plus; "
            "klim=aleph(4); llim=aleph(5))\n")
        sched = defs[0][1].schedule
        assert (sched.ksucc, sched.lsucc) == (0, 1)
        assert str(sched.klim) == "aleph(4)"
        assert str(sched.llim) == "aleph(5)"

    def test_lim_explicit_cardinal(self):
        defs = parse_definitions(
            "let J = lexsched(mu=aleph(2); k0=aleph(1); l0=aleph(1); "
            "k1=aleph(2); l1=aleph(3); lim=aleph(6))\n")
        sched = defs[0][1].schedule
        assert str(sched.klim) == str(sched.llim) == "aleph(6)"

    def test_ordinal_index_syntax(self):
        for text, canon in (("aleph(w^2*3+w*2+5)", "aleph(w^2*3+w*2+5)"),
                            ("aleph(0)", "aleph(0)"), ("aleph(w^0*3)", "aleph(3)")):
            defs = parse_definitions(f"let c = {text}\n")
            assert str(defs[0][1]) == canon

    @pytest.mark.parametrize("text,message", [
        ("aleph(1+w)", "CNF exponents must strictly decrease"),
        ("aleph(w+1+w)", "CNF exponents must strictly decrease"),
        ("aleph(w+w)", "CNF exponents must strictly decrease"),
        ("aleph(1+1)", "CNF exponents must strictly decrease"),
        ("aleph(w*0)", "malformed CNF term (1,0)"),
    ])
    def test_ordinal_text_is_cantor_normal_form(self, tmp_path, text, message):
        """Ordinal terms are read as written, so text that is not in Cantor
        normal form (1+w is w, not w+1) is refused at the ordinal."""
        assert_located(tmp_path, f"let c = {text}\n", 15, message)


# ---------------------------------------------------------------------------
# Randomized grammar round-trips
# ---------------------------------------------------------------------------

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ordercuts.cardinals import CardSet, CofPair, ONE, aleph
from ordercuts.chains import LexChain
from ordercuts.hahn_concrete import (
    ExponentGroup,
    HahnElement,
    INT_CHAIN,
    RAT_CHAIN,
    SeriesElement,
)
from ordercuts.order_terms import (
    Atom,
    CardinalSchedule,
    DOM_DEFAULT,
    DOM_ONE,
    DOM_SEG,
    DOM_SINGLE,
    EMPTY,
    LexRefined,
    LexSchedule,
    PHI_SUCC,
    PhiMap,
    PhiPiece,
    chain,
    rev,
    sum_of,
    well,
)
from ordercuts.struct_classify import (
    ComponentAssignment,
    ComponentKind,
    FieldDescriptor,
    GroupDescriptor,
    Residue,
)

A = [aleph(n) for n in range(5)]
cards = st.sampled_from(A)
reg_sets = st.lists(
    st.one_of(st.integers(0, 5).map(lambda n: CardSet.segment_below(aleph(n))),
              st.integers(0, 5).map(lambda n: CardSet.singleton(aleph(n)))),
    max_size=3).map(lambda ps: _u(ps))


def _u(parts):
    out = CardSet.empty()
    for p in parts:
        out = out.union(p)
    return out


def _atom(name, cf_c, ci_c, coin, cofin):
    coin = coin.union(CardSet.singleton(ci_c)) if ci_c.is_infinite else coin
    cofin = cofin.union(CardSet.singleton(cf_c)) if cf_c.is_infinite else cofin
    return Atom(name, cf_c, ci_c, coin, cofin)


atoms = st.builds(_atom, st.sampled_from(["x", "y", "zed"]),
                  st.sampled_from([ONE] + A[:3]), st.sampled_from([ONE] + A[:3]),
                  reg_sets, reg_sets)

base_terms = st.one_of(
    st.just(EMPTY),
    st.integers(1, 9).map(chain),
    st.sampled_from(A[:3]).map(well),
    atoms,
)
terms = st.recursive(
    base_terms,
    lambda inner: st.one_of(
        inner.map(rev),
        st.tuples(inner, inner).map(lambda ab: sum_of(*ab)),
    ),
    max_leaves=5,
)

phi_values = st.one_of(cards.filter(lambda c: c.is_infinite), st.just(PHI_SUCC))


def _phi_piece(kind, card, value):
    if kind != DOM_SINGLE and value == PHI_SUCC:
        value = aleph(0)
    return PhiPiece(kind, card if kind in (DOM_SINGLE, DOM_SEG) else None, value)


phi_pieces = st.builds(
    _phi_piece,
    st.sampled_from([DOM_ONE, DOM_SINGLE, DOM_SEG, DOM_DEFAULT]),
    st.sampled_from(A[:4]).filter(lambda c: c.is_infinite),
    phi_values)
phis = st.lists(phi_pieces, min_size=1, max_size=4).map(
    lambda ps: PhiMap(tuple(ps)))

schedules = st.builds(CardinalSchedule, cards.filter(lambda c: c.is_infinite),
                      cards.filter(lambda c: c.is_infinite),
                      st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2]),
                      cards.filter(lambda c: c.is_infinite),
                      cards.filter(lambda c: c.is_infinite))
lex_terms = st.one_of(
    st.builds(LexSchedule, cards.filter(lambda c: c.is_infinite),
              cards.filter(lambda c: c.is_infinite),
              cards.filter(lambda c: c.is_infinite), schedules, terms),
    st.builds(LexRefined, cards.filter(lambda c: c.is_infinite),
              cards.filter(lambda c: c.is_infinite),
              cards.filter(lambda c: c.is_infinite), phis, phis, terms),
)

comp_choices = st.sampled_from([
    ComponentAssignment(ComponentKind.REALS),
    ComponentAssignment(ComponentKind.DENSE),
    ComponentAssignment(ComponentKind.REALS, ComponentKind.DENSE),
])

points_int = st.integers(-9, 9)
points_rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
hahn_elems = st.one_of(
    st.lists(st.tuples(points_int, st.integers(-4, 4)), max_size=3)
      .map(lambda items: HahnElement.make(INT_CHAIN, items)),
    st.lists(st.tuples(points_rat, st.integers(-4, 4)), max_size=3)
      .map(lambda items: HahnElement.make(RAT_CHAIN, items)),
    st.lists(st.tuples(st.tuples(points_int, points_int), st.integers(-4, 4)),
             max_size=3)
      .map(lambda items: HahnElement.make(LexChain((INT_CHAIN, INT_CHAIN)),
                                          items)),
)
series_elems = st.lists(
    st.tuples(st.tuples(points_rat, points_rat), st.integers(-4, 4)),
    max_size=3).map(lambda items: SeriesElement.make(ExponentGroup(2), items))


def _field(vset, comps, spherical):
    try:
        vg = GroupDescriptor(vset, comps, spherical=spherical, divisible=True)
    except Exception:
        vg = GroupDescriptor.trivial()
    return FieldDescriptor(vg, Residue.REALS, real_closed=True,
                           spherical=spherical)


nonempty_terms = terms.filter(lambda t: str(t) != "empty")
exprs = st.one_of(terms, lex_terms, cards, reg_sets, hahn_elems, series_elems,
                  st.builds(_field, nonempty_terms, comp_choices, st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=4))
def test_random_definitions_roundtrip(values):
    text = "".join(f"let d{i} = {v}\n" for i, v in enumerate(values))
    defs = parse_definitions(text)
    canon = print_definitions(defs)
    assert print_definitions(parse_definitions(canon)) == canon
    assert [v for _, v in parse_definitions(canon)] == [v for _, v in defs]


# ---------------------------------------------------------------------------
# Input errors exit 2 with a located message and no traceback
# ---------------------------------------------------------------------------

def invoke_on(tmp_path, text, *args):
    path = tmp_path / "input.defs"
    path.write_text(text)
    proc = run_python("-m", "ordercuts.cli", "--in", str(path), *args)
    return proc.returncode, proc.stdout, proc.stderr


def assert_located(tmp_path, text, col, message):
    """A malformed definition is a ParseError at (line 1, col), and the CLI
    exits 2 with that located message and no traceback."""
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    assert (exc.value.line, exc.value.column) == (1, col)
    code, out, err = invoke_on(tmp_path, text, "--cmd", "classify")
    assert code == 2
    assert f"line 1, col {col}: {message}" in err
    assert "Traceback" not in err


class TestInputErrors:
    @pytest.mark.parametrize("text", [
        "let M = sum(well(aleph(0)), rev(well(aleph(0))))\n",
        "let W0 = well(aleph(0))\n",
    ])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_rejected(self, tmp_path, text, depth):
        code, out, err = invoke_on(tmp_path, text, "--cmd", "verify",
                                   "--depth", depth)
        assert code == 2
        assert out == ""
        assert "--depth" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data,line,col,byte", [
        (b"let a = chain(2)\n\xff\n", 2, 1, "0xff"),
        (b"let a = 1\r\n\tlet b = \xc3\xa9\xe2\x82", 2, 11, "0xe2"),
    ], ids=["stray-byte", "cut-sequence"])
    def test_invalid_utf8_located(self, tmp_path, data, line, col, byte):
        """A definitions file that is not UTF-8 exits 2 with the line and
        column of the first byte that does not decode, counted in the
        characters before it, and no traceback."""
        path = tmp_path / "input.defs"
        path.write_bytes(data)
        proc = run_python("-m", "ordercuts.cli", "--in", str(path), "--cmd", "spectrum")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: line {line}, col {col}: byte {byte} is not valid UTF-8\n"

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        """One leading UTF-8 byte-order mark is dropped: the output is
        byte-identical to the output on the file without it."""
        path = tmp_path / "input.defs"
        runs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + CORPUS.encode())
            runs.append(run_python("-m", "ordercuts.cli", "--in", str(path),
                                   "--cmd", "spectrum"))
        plain, marked = runs
        assert plain.stdout and plain.stderr == ""
        assert (marked.returncode, marked.stdout, marked.stderr) == \
            (plain.returncode, plain.stdout, plain.stderr)

    @pytest.mark.parametrize("data,line,col", [
        (b"\xef\xbb\xbf\xef\xbb\xbflet a = chain(2)\n", 1, 1),
        (b"\xef\xbb\xbflet a = chain(2)\n\xef\xbb\xbf\n", 2, 1),
        (b"let a = chain(2)\nlet b = \xef\xbb\xbfchain(1)\n", 2, 9),
    ], ids=["second-mark", "later-line", "mid-line"])
    def test_later_byte_order_mark_located(self, tmp_path, data, line, col):
        """A U+FEFF past the one leading mark is a character the grammar
        does not know, located like any other."""
        path = tmp_path / "input.defs"
        path.write_bytes(data)
        proc = run_python("-m", "ordercuts.cli", "--in", str(path), "--cmd", "spectrum")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == \
            f"error: line {line}, col {col}: unexpected character '\\ufeff'\n"

    def test_depth_one_accepted(self, tmp_path):
        code, out, err = invoke_on(tmp_path, "let W0 = well(aleph(0))\n",
                                   "--cmd", "verify", "--depth", "1")
        assert code == 0
        assert "verdict=pass" in out

    @pytest.mark.parametrize("text,col,message", [
        ("let H = hahn(chain=int; 1:1/0)\n", 29, "zero denominator"),
        ("let S = series(exp=lex2; (0,0):1/0)\n", 34, "zero denominator"),
        ("let H = hahn(chain=int; 1:1/x)\n", 29, "expected a denominator"),
    ])
    def test_bad_denominator(self, tmp_path, text, col, message):
        assert_located(tmp_path, text, col, message)

    @pytest.mark.parametrize("text,col,message", [
        ("let a = {aleph(w)}\n", 10,
         "card sets hold infinite regular cardinals, got aleph(w)"),
        ("let a = {1}\n", 10, "card sets hold infinite regular cardinals, got 1"),
        ("let a = atom(x; cuts={(aleph(w),1)})\n", 23,
         "cut cofinality components must be 1 or regular, got aleph(w)"),
        ("let a = well(1)\n", 9,
         "well order length must be an infinite regular cardinal, got 1"),
        ("let a = well(aleph(w))\n", 9,
         "well order length must be an infinite regular cardinal, got aleph(w)"),
        ("let a = aleph(w*0)\n", 15, "malformed CNF term (1,0)"),
    ])
    def test_library_error_located(self, tmp_path, text, col, message):
        """A value the library refuses is reported at the construct that
        names it."""
        assert_located(tmp_path, text, col, message)

    @pytest.mark.parametrize("text,line,col,message", [
        ("# head\n\nlet a = aleph(1)\n\tlet b = {aleph(0) aleph(1)}\n", 4, 20,
         "expected '}', found 'aleph'"),
        ("\r\nlet a = 1\r\n# c (\r\nlet b = well(aleph(1) x)\r\n", 4, 23,
         "expected ')', found 'x'"),
        ("let a = 1\n\n\tlet\tb = \tnope\n", 3, 11, "undefined name nope"),
        ("# x\n\n  let a = $\n", 3, 11, "unexpected character '$'"),
        ("let a = 1\n\n# trailing (\nlet b = sum(", 4, 13, "expected an order term"),
        ("let a = 1 # (\n\n\n\t\tlet b = rev(\r\n  chain(x))\n", 5, 9,
         "chain needs a size"),
    ])
    def test_error_position_after_comments_and_blank_lines(self, tmp_path, text,
                                                           line, col, message):
        """A tab is one column, and a comment, a blank line or a `\\r\\n`
        line end counts as a line."""
        with pytest.raises(ParseError) as exc:
            parse_definitions(text)
        assert (exc.value.line, exc.value.column) == (line, col)
        assert message in str(exc.value)
        code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}, col {col}: ")

    @pytest.mark.parametrize("text,col,message", [
        ("let H = hahn(chain=fin(x); 0:1)\n", 24, "fin(n) needs an integer size"),
        ("let H = hahn(chain=lex(int,int); (1,2,3):1)\n", 38,
         "lex(int,int) points have 2 coordinates"),
        ("let H = hahn(chain=fin(3); 5:1)\n", 9, "5 is not a point of fin(3)"),
        ("let H = hahn(chain=lex(int,int); (1):1)\n", 9,
         "(1) is not a point of lex(int,int)"),
        ("let S = series(exp=lex2; (1):1)\n", 9,
         "(1) is not an exponent of lex2"),
        ("let H = hahn(chain=fin(0))\n", 20, "fin(0) has no points"),
        ("let H = hahn(chain=lex(int,fin(0)); (1,0):1)\n", 28,
         "fin(0) has no points"),
    ])
    def test_bad_element_located(self, tmp_path, text, col, message):
        assert_located(tmp_path, text, col, message)

    @pytest.mark.parametrize("text,args,col,message", [
        ("let a = {aleph(0) aleph(1)}\n", (), 19, "expected '}', found 'aleph'"),
        ("let a = {aleph(0), reg<aleph(2),}\n", (), 33, "expected a cardinal, found '}'"),
        ("let x = atom(q; cuts={(1,1) (1,aleph(0))})\n", (), 29, "expected '}', found '('"),
        ("let x = atom(q; cuts={(1,1),})\n", (), 29, "expected '(', found '}'"),
        ("let R = lexref(mu=aleph(2); k0=aleph(2); l0=aleph(2); "
         "phil=[1->aleph(0) default->aleph(1)]; phir=[1->aleph(0)])\n", (), 73,
         "expected ']', found 'default'"),
        ("let R = lexref(mu=aleph(2); k0=aleph(2); l0=aleph(2); "
         "phil=[1->aleph(0),]; phir=[1->aleph(0)])\n", (), 73,
         "expected a cardinal, found ']'"),
        ("let h = hahn(chain=lex(int rat); (1,2):1)\n", (), 28, "expected ')', found 'rat'"),
        ("let h = hahn(chain=lex(int,); (1,2):1)\n", (), 28,
         "index chain is int/rat/fin(n)/lex(...)"),
        ("let s = series(exp=lex2; (0 1):1)\n", (), 29, "expected ')', found '1'"),
        ("let s = series(exp=lex2; (0,1,):1)\n", (), 31, "expected a rational"),
        ("let h = hahn(chain=lex(int,int); (1 2):1)\n", (), 37, "expected ')', found '2'"),
        ("let h = hahn(chain=lex(int,int); (1,):1)\n", (), 37, "expected a rational"),
        ("let h = hahn(chain=int; 1:2 3:4)\n", (), 29, "expected ')', found '3'"),
        ("let h = hahn(chain=int; 1:2,)\n", (), 29, "expected a rational"),
        ("let s = series(exp=lex2; (0,0):1 (1,0):1)\n", (), 34, "expected ')', found '('"),
        ("let s = series(exp=lex2; (0,0):1,)\n", (), 34, "expected '(', found ')'"),
        ("let x = atom(q; cf=aleph(0); cofin={aleph(0)}; cf=aleph(1))\n", (), 48,
         "duplicate key 'cf'"),
        ("let x = atom(q; card<=aleph(0); card<=aleph(1))\n", (), 33,
         "duplicate key 'card'"),
        ("let W0 = well(aleph(0))\n", ("--bound", "aleph(3) junk"), 10,
         "trailing text after the cardinal"),
    ], ids=["cardset-missing", "cardset-trailing", "cuts-missing", "cuts-trailing",
            "phi-missing", "phi-trailing", "lexchain-missing", "lexchain-trailing",
            "exponent-missing", "exponent-trailing", "lexpoint-missing",
            "lexpoint-trailing", "hahn-missing", "hahn-trailing", "series-missing",
            "series-trailing", "atom-key-repeated", "atom-card-repeated",
            "bound-trailing"])
    def test_lists_keys_and_bound_located(self, tmp_path, text, args, col, message):
        """Lists take one comma between items and none after the last, a key
        appears once per block, and --bound is one cardinal: anything else
        exits 2 with a located message and prints no report."""
        if not args:
            with pytest.raises(ParseError) as exc:
                parse_definitions(text)
            assert (exc.value.line, exc.value.column) == (1, col)
        code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum", *args)
        assert (code, out) == (2, "")
        assert f"line 1, col {col}: {message}" in err
        assert "--bound" in err or not args
        assert "Traceback" not in err

    @pytest.mark.parametrize("top", ["ints_at_top", "dense_at_top"])
    def test_bare_top_component_refused(self, tmp_path, top):
        """A top-special component is spelled `<kind>+<kind>_at_top`, the
        way it prints; a bare `<kind>_at_top` is no component kind."""
        assert_located(tmp_path, f"let G = group(vset=well(aleph(0)); comp={top})\n",
                       41, "component kind is reals/ints/dense")

    @pytest.mark.parametrize("bound", ["aleph(w)", "1", "aleph(0"])
    def test_bound_must_be_finite_aleph(self, tmp_path, bound):
        code, out, err = invoke_on(tmp_path, "let W0 = well(aleph(0))\n",
                                   "--cmd", "spectrum", "--bound", bound)
        assert (code, out) == (2, "")
        assert "--bound" in err
        assert "Traceback" not in err

    LEXSCHED_I = ("lexsched(mu=aleph(1); k0=aleph(1); l0=aleph(1); k1=aleph(1); "
                  "l1=aleph(1); i=")
    LEXREF_I = ("lexref(mu=aleph(1); k0=aleph(1); l0=aleph(1); "
                "phil=[1->aleph(0), default->aleph(0)]; "
                "phir=[1->aleph(0), default->aleph(0)]; i=")

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("head,tail,depth", [
        ("rev(", ")", 1000),
        ("rev(", ")", 3000),
        ("sum(chain(1), rev(", "))", 300),
        (LEXSCHED_I, ")", 1000),
        (LEXSCHED_I, ")", 3000),
        (LEXREF_I, ")", 1000),
        ("lex(", ")", 600),
    ])
    def test_deep_nesting_located(self, tmp_path, head, tail, depth):
        """Order terms, and a group over one, nest to any depth: the parser
        keeps the open constructs on a list.  A factor of a Hahn index
        chain's `lex(` is int/rat/fin(n), so a nested `lex(` stops at once
        with a located message and no traceback."""
        if head != "lex(":
            body = head * depth + "well(aleph(0))" + tail * depth
            text = f"let T = {body}\nlet G = group(vset={body}; comp=reals)\n"
            defs = parse_definitions(text)
            canon = print_definitions(defs)
            assert parse_definitions(canon) == defs
            assert print_definitions(parse_definitions(canon)) == canon
            # an even number of reversals cancels
            if head == "rev(":
                assert str(defs[0][1]) == "well(aleph(0))"
            code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum")
            assert (code, err) == (0, "")
            assert out == invoke_on(tmp_path, canon, "--cmd", "spectrum")[1]
            return
        text = f"let H = hahn(chain={head * depth}int{tail * depth})\n"
        with pytest.raises(ParseError) as exc:
            parse_definitions(text)
        line, col = exc.value.line, exc.value.column
        assert line == 1 and len("let H = hahn(chain=") < col <= len(head) * depth + 20
        code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum")
        assert code == 2
        assert out == ""
        assert re.search(r"line 1, col \d+: a lex factor is int/rat/fin\(n\)", err)
        assert "Traceback" not in err

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_verify_refusal_names_the_head(self, tmp_path):
        """`verify` refuses a 3,000-level `lexsched` nest by naming the head
        of the refused construct, so the error record does not grow with
        the nesting."""
        head = ("lexsched(mu=aleph(1); k0=aleph(1); l0=aleph(1); k1=aleph(1); "
                "l1=aleph(2); i=")
        text = "let X = " + head * 3000 + "well(aleph(0))" + ")" * 3000 + "\n"
        code, out, err = invoke_on(tmp_path, text, "--cmd", "verify",
                                   "--format", "machine")
        assert (code, err) == (2, "")
        [record] = re.findall(r"^rec=row\|name=X\|error=.*$", out, re.M)
        assert len(record.encode()) < 1024
        assert "lexsched(...) is not in the concretizable countable fragment" in record

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_every_command_on_deep_nests(self, tmp_path):
        """A 1,000-level nest, a lexicographic product over it, a discrete
        group over a 1,201-level nest whose reversals alternate at its top
        end, and a 1,000-level nest of alternating `lexsched` and `lexref`
        with a group over it go through every command: each exits 0 or 1
        with a report and no traceback."""
        nest = "sum(well(aleph(0)), rev(" * 1000 + "well(aleph(0))" + "))" * 1000
        alt = "chain(2)"
        for level in range(1201):
            alt = f"sum(well(aleph(0)), rev({alt}))" if level % 2 == 0 else \
                f"sum(rev({alt}), rev(well(aleph(0))))"
        lex_nest = "".join(self.LEXSCHED_I if k % 2 == 0 else self.LEXREF_I
                           for k in range(1000)) + "well(aleph(0))" + ")" * 1000
        order = f"let T = {nest}\n"
        text = order + (
            f"let A = {alt}\n"
            "let D = group(vset=A; comp=reals+ints_at_top; spherical=true; "
            "discrete=true; divisible=false)\n"
            "let L = lexsched(mu=aleph(1); k0=aleph(1); l0=aleph(1); k1=aleph(1); "
            "l1=aleph(1); i=T)\n"
            f"let X = {lex_nest}\n"
            "let E = group(vset=X; comp=reals)\n")
        # verify reports an error on a lexicographic product, which has no
        # concrete model, so it runs on the nest alone
        for cmd, defs, items in (("spectrum", text, "TALX"), ("extend", text, "TADLXE"),
                                 ("verify", order, "T"), ("classify", text, "DE"),
                                 ("check-conditions", text, "LX")):
            code, out, err = invoke_on(tmp_path, defs, "--cmd", cmd)
            assert code in (0, 1) and err == "", (cmd, err[-500:])
            assert re.findall(r"^== (\w+) ", out, re.M) == list(items)

    def test_nesting_400_deep_still_parses(self, tmp_path):
        text = "let T = " + "rev(" * 400 + "well(aleph(0))" + ")" * 400 + "\n"
        code, out, err = invoke_on(tmp_path, text, "--cmd", "spectrum")
        assert (code, err) == (0, "")
        assert out == invoke_on(tmp_path, "let T = well(aleph(0))\n",
                                "--cmd", "spectrum")[1]

    @pytest.mark.parametrize("depth", [150, 200])
    def test_deep_sum_rev_renders(self, tmp_path, depth):
        body = "sum(chain(1), rev(" * depth + "well(aleph(0))" + "))" * depth
        ((_, term),) = parse_definitions(f"let T = {body}\n")
        assert str(term) == body
        code, out, err = invoke_on(tmp_path, f"let T = {body}\n", "--cmd", "extend")
        assert code == 0
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Mutated definition text never escapes the exit-status contract
# ---------------------------------------------------------------------------

FUZZ_CHARS = "()[]{},;:=<>+-*/_ \n0123456789abcehiklmnoprstuvwxyz"
FUZZ_COMMANDS = ("spectrum", "classify", "extend", "check-conditions")
mutations = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace")),
              st.integers(0, len(CORPUS)), st.sampled_from(FUZZ_CHARS)),
    min_size=1, max_size=4)


def mutate(text, edits):
    for op, pos, ch in edits:
        pos = min(pos, len(text))
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + ch + text[pos + 1:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations)
def test_mutated_corpus_keeps_exit_contract(tmp_path_factory, edits):
    """Every run exits 0, 1 or 2 and prints no traceback; an exception
    escaping `main` fails the test."""
    path = tmp_path_factory.getbasetemp() / "mutated.defs"
    path.write_text(mutate(CORPUS, edits))
    for cmd in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--in", str(path), "--cmd", cmd])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        # an input error is reported at its line and column
        assert not err.getvalue() or re.match(r"error: line \d+, col \d+: ", err.getvalue())
