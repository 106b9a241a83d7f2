import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from entrank import (
    CharPComponent,
    ConsistencyError,
    SpecError,
    compute_places,
    count_composite,
    entropy_rank_one_check,
    mixing_check,
    parse_spec,
    place_spec,
)
from entrank.action import iter_shell_points
from tests.conftest import ratio_shift_spec

LOG2, LOG3 = math.log(2), math.log(3)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_x2x3_valid(x2x3_spec):
    assert x2x3_spec.d == 2 and x2x3_spec.noetherian
    comp, mult = x2x3_spec.components[0]
    assert mult == 1 and comp.field.degree == 1


def test_parse_ledrappier_valid(ledrappier_spec):
    comp, _ = ledrappier_spec.components[0]
    assert isinstance(comp, CharPComponent)
    assert comp.q == 2 and len(comp.generators) == 1
    assert len(comp.generators[0].terms) == 3


def test_parse_rejects_zero_xi():
    with pytest.raises(SpecError, match=r"xi\[0\]"):
        parse_spec({"d": 2, "components": [
            {"multiplicity": 1, "char": 0, "min_poly": [0, 1],
             "xi": [[0, 1], [3, 1]]}]})


def test_parse_rejects_mismatched_d():
    with pytest.raises(SpecError, match="xi"):
        parse_spec({"d": 3, "components": [
            {"multiplicity": 1, "char": 0, "min_poly": [0, 1],
             "xi": [[2, 1], [3, 1]]}]})


def test_parse_rejects_bad_schema():
    with pytest.raises(SpecError, match="components"):
        parse_spec({"d": 2})
    with pytest.raises(SpecError, match="char"):
        parse_spec({"d": 1, "components": [{"multiplicity": 1, "char": 4,
                                            "generators": []}]})
    with pytest.raises(SpecError, match="multiplicity"):
        parse_spec({"d": 1, "components": [{"multiplicity": 0, "char": 0,
                                            "min_poly": [0, 1], "xi": [[2, 1]]}]})
    with pytest.raises(SpecError, match="min_poly"):
        parse_spec({"d": 1, "components": [{"multiplicity": 1, "char": 0,
                                            "min_poly": [-1, 0, 1], "xi": [[2, 1], [0, 1]]}]})


def _bool_probe_doc():
    return {"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]},
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}]}]}


@pytest.mark.parametrize("path, edit", [
    (r"^d:", lambda doc: doc.update(d=True)),
    (r"components\[0\]\.multiplicity", lambda doc: doc["components"][0].update(multiplicity=True)),
    (r"components\[0\]\.char", lambda doc: doc["components"][0].update(char=False)),
    (r"components\[0\]\.min_poly", lambda doc: doc["components"][0].update(min_poly=[True, 1])),
    (r"components\[0\]\.xi\[0\]", lambda doc: doc["components"][0].update(xi=[[2, True]])),
    (r"components\[1\]\.generators\[0\]\.terms\[1\]\.exp",
     lambda doc: doc["components"][1]["generators"][0]["terms"][1].update(exp=[True])),
    (r"components\[1\]\.generators\[0\]\.terms\[0\]\.coeff",
     lambda doc: doc["components"][1]["generators"][0]["terms"][0].update(coeff=True)),
])
def test_parse_rejects_booleans_as_integers(path, edit):
    parse_spec(_bool_probe_doc())
    doc = _bool_probe_doc()
    edit(doc)
    with pytest.raises(SpecError, match=path):
        parse_spec(doc)


def test_parse_rejects_the_boolean_spec_that_used_to_count():
    # true read as 1: min_poly t + 1 and xi = 2, which counted 7 at n = 3
    with pytest.raises(SpecError, match=r"d: must be an integer"):
        parse_spec({"d": True, "components": [
            {"char": 0, "min_poly": [True, 1], "xi": [[2, True]]}]})
    with pytest.raises(SpecError, match=r"min_poly"):
        parse_spec({"d": 1, "components": [
            {"char": 0, "min_poly": [True, 1], "xi": [[2, 1]]}]})


def test_parse_rejects_duplicate_exponents():
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec({"d": 1, "components": [
            {"multiplicity": 1, "char": 2,
             "generators": [{"terms": [{"exp": [1], "coeff": 1},
                                       {"exp": [1], "coeff": 1}]}]}]})


# ---------------------------------------------------------------------------
# places and Lyapunov data
# ---------------------------------------------------------------------------

def test_compute_places_x2x3(x2x3_spec):
    pc = compute_places(x2x3_spec.components[0][0])
    labels = [p.label() for p in pc.places]
    assert labels == ["arch[0](real)", "finite(p=2,f=1,e=1)", "finite(p=3,f=1,e=1)"]
    lyap = [tuple(round(v, 12) for v in row) for row in pc.lyapunov]
    assert lyap == [
        (round(LOG2, 12), round(LOG3, 12)),
        (round(-LOG2, 12), 0.0),
        (0.0, round(-LOG3, 12)),
    ]


def test_compute_places_d1():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]})
    pc = compute_places(spec.components[0][0])
    assert [p.label() for p in pc.places] == ["arch[0](real)", "finite(p=2,f=1,e=1)"]
    assert abs(pc.lyapunov[0][0] - LOG2) < 1e-12
    assert abs(pc.lyapunov[1][0] + LOG2) < 1e-12


def test_compute_places_golden_mean(golden_mean_spec):
    pc = compute_places(golden_mean_spec.components[0][0])
    labels = [p.label() for p in pc.places]
    assert labels == ["arch[0](real)", "arch[1](real)", "finite(p=2,f=2,e=1)"]
    # xi = (theta, 2): the inert place above 2 sees only the second coordinate
    assert pc.lyapunov[2][0] == 0.0
    assert abs(pc.lyapunov[2][1] + 2 * LOG2) < 1e-12


@pytest.mark.parametrize("spec_name", ["x2x3_spec", "golden_mean_spec"])
def test_lyapunov_rows_sum_to_zero(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    pc = compute_places(spec.components[0][0])
    for i in range(spec.d):
        assert abs(sum(row[i] for row in pc.lyapunov)) < 1e-9


def test_compute_places_deterministic(x2x3_spec):
    a = compute_places(x2x3_spec.components[0][0])
    b = compute_places(x2x3_spec.components[0][0])
    assert [p.label() for p in a.places] == [p.label() for p in b.places]
    assert a.lyapunov == b.lyapunov


PINS = json.loads((Path(__file__).parent / "data" / "placement_pins.json").read_text())
SPECS = Path(__file__).parent.parent / "specs"


@pytest.mark.parametrize("name", sorted(PINS))
def test_placed_rows_match_pinned_values(name):
    # every lyapunov float as float.hex, and the (re, im, rad) integers of
    # each archimedean row at DEFAULT_PREC and at twice it, as recorded when
    # placement still held an mpf ball, its dyadic copy and a float row
    from entrank import load_spec
    from entrank.numberfield import DEFAULT_PREC, log_sigma_ball

    pc = place_spec(load_spec(str(SPECS / name))).placed_char0()[0][0]
    assert [[x.hex() for x in row] for row in pc.lyapunov] == PINS[name]["lyapunov"]
    got = []
    for place, row in zip(pc.places, pc.rows):
        if place.kind == "arch":
            assert row == tuple(log_sigma_ball(place, x) for x in pc.component.xi)
            got += [[place.label(), prec, [list(log_sigma_ball(place, x, prec))
                                           for x in pc.component.xi]]
                    for prec in (DEFAULT_PREC, 2 * DEFAULT_PREC)]
    assert got == PINS[name]["arch_rows"]


# xi = (-2 - 2t/3, -1 - t/2) in Q(t), t^2 + t + 3 = 0: 3 splits and xi_1 has
# valuations +1 and -1 at the two places above it, so 3 divides no norm
SPLIT_CANCEL_DOC = {"d": 2, "components": [
    {"multiplicity": 1, "char": 0, "min_poly": [3, 1, 1],
     "xi": [[-2, 1, -2, 3], [-1, 1, -1, 2]]}]}


def test_compute_places_keeps_primes_cancelled_in_the_norm():
    pc = compute_places(parse_spec(SPLIT_CANCEL_DOC).components[0][0])
    above_3 = sorted(o for p, o in zip(pc.places, pc.rows)
                     if p.kind == "finite" and p.p == 3)
    assert above_3 == [(-1, 0), (1, 0)]


X2X3_DOC = {"d": 2, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[2, 1], [3, 1]]}]}
COFACTOR_DOC = {"d": 2, "components": [{"char": 0, "min_poly": [-3, 2, 1, 1], "xi": [
    [-1, 2, -2, 3, -2, 1], [-1, 3, 1, 1, 1, 2]]}]}


@pytest.mark.parametrize("doc, p", [(X2X3_DOC, 2), (X2X3_DOC, 3), (COFACTOR_DOC, 3),
                                    (COFACTOR_DOC, 2347), (SPLIT_CANCEL_DOC, 3)])
def test_placement_raises_when_a_finite_place_is_dropped(doc, p, monkeypatch):
    # the last place above p goes missing: the rows no longer carry some
    # |N(xi_i)|, which the count and g's exact zero read off them
    import entrank.action as action

    full = action.finite_places_above
    monkeypatch.setattr(action, "finite_places_above", lambda field, q, support=None: (
        full(field, q, support)[:-1] if q == p else full(field, q, support)))
    with pytest.raises(ConsistencyError, match="placed finite places give"):
        place_spec(parse_spec(doc))


def test_ratio_shift_places():
    spec = ratio_shift_spec(2)
    pc = compute_places(spec.components[0][0])
    got = {p.label(): l for p, l in zip(pc.places, pc.lyapunov)}
    assert abs(got["finite(p=2,f=1,e=1)"][1] - 2 * LOG2) < 1e-12
    assert abs(got["arch[0](real)"][1] - (LOG3 - 2 * LOG2)) < 1e-12


# ---------------------------------------------------------------------------
# bounded checks
# ---------------------------------------------------------------------------

def test_mixing_x2x3_clean(x2x3_spec):
    rep = mixing_check(x2x3_spec, radius=10)
    assert rep.passed and not rep.violations


def test_mixing_detects_minus_one():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[-1, 1]]}]})
    rep = mixing_check(spec, radius=4)
    assert not rep.passed
    assert any("root of unity of order 2" in v for v in rep.violations)
    assert any("xi^(2,) = 1" in v for v in rep.violations)


def _char0_spec(min_poly, xi) -> dict:
    """A one-component char-0 spec document; xi as lists of Fractions."""
    return {"d": len(xi), "components": [{"char": 0, "min_poly": min_poly, "xi": [
        [v for c in x for v in (Fraction(c).numerator, Fraction(c).denominator)] for x in xi]}]}


def _brute_force_violations(spec, radius: float) -> list[str]:
    """mixing_check's char-0 report by scanning without any gate: each xi_j
    multiplied up to the largest order a root of unity can have in its
    field, then xi^n == 1 at every representative n in the ball."""
    out = []
    for idx, (comp, _mult) in enumerate(spec.components):
        field, one = comp.field, comp.field.one()
        for j, x in enumerate(comp.xi):
            acc = x
            for k in range(1, 2 * field.degree ** 2 + 3):
                if acc == one:
                    out.append(f"components[{idx}]: xi[{j}] = 1" if k == 1 else
                               f"components[{idx}]: xi[{j}] is a root of unity of order {k}")
                    break
                acc = field.mul(acc, x)
        for n in iter_shell_points(spec.d, 0, radius):
            if field.pow_vector(comp.xi, n) == one:
                out.append(f"components[{idx}]: xi^{n} = 1")
    return out


@pytest.mark.parametrize("min_poly, xi, first", [
    ([1, 0, 1], [[0, 1], [2, 0]], "components[0]: xi[0] is a root of unity of order 4"),
    # (-1 + theta) / 2 with theta^2 = -3 is a cube root of unity with denominator 2
    ([3, 0, 1], [[Fraction(-1, 2), Fraction(1, 2)], [2, 0]],
     "components[0]: xi[0] is a root of unity of order 3"),
    # theta (theta - 1) = 1 in the golden-mean field: both are units of norm -1
    ([-1, -1, 1], [[0, 1], [-1, 1]], "components[0]: xi^(1, 1) = 1"),
])
def test_mixing_check_finds_every_planted_relation(min_poly, xi, first):
    spec = parse_spec(_char0_spec(min_poly, xi))
    rep = mixing_check(spec, radius=8)
    assert not rep.passed and rep.violations[0] == first
    assert list(rep.violations) == _brute_force_violations(spec, 8)


def test_mixing_check_matches_a_brute_force_scan_on_seeded_specs():
    # sweep-like specs with relations planted in most of them: xi_2 = +-xi_1^k,
    # a root of unity, or an independent draw
    rng = random.Random(2106)
    specs = planted = 0
    while specs < 200:
        degree, d = rng.randint(1, 6), rng.choice((1, 2, 2, 3))
        min_poly = [rng.randint(-3, 3) for _ in range(degree)] + [1]
        first = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 1, 2, 3))) for _ in range(degree)]
        try:
            field = parse_spec(_char0_spec(min_poly, [first])).components[0][0].field
        except SpecError:
            continue
        x = field.element(first)
        if x.is_zero():
            continue
        xs = [x]
        for _ in range(d - 1):
            kind = rng.randrange(4)
            if kind == 0:
                y = field.element([Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                                   for _ in range(degree)])
                if y.is_zero():
                    y = field.one()
            elif kind == 1:
                y = field.element([rng.choice((-1, 1))] + [0] * (degree - 1))
            else:
                y = field.pow(rng.choice(xs), rng.choice((-2, -1, 1, 2)))
                if rng.random() < 0.5:
                    y = field.sub(field.zero(), y)
            xs.append(y)
        rng.shuffle(xs)
        spec = parse_spec(_char0_spec(min_poly, [
            [Fraction(a, y.den) for a in y.num] for y in xs]))
        rep = mixing_check(spec, radius=4)
        assert list(rep.violations) == _brute_force_violations(spec, 4)
        specs += 1
        planted += not rep.passed
    assert planted >= 80


def test_golden_mean_mixing_check_takes_no_power(golden_mean_spec, monkeypatch):
    # N(theta) = -1 and N(2) = 4, so only n = (k, 0) passes the norm test,
    # and theta is not a root of unity
    from entrank.numberfield import NumberField

    calls = []
    monkeypatch.setattr(NumberField, "pow_vector", lambda self, xs, n: calls.append(n))
    rep = mixing_check(golden_mean_spec, radius=8)
    assert rep.passed and calls == []


def test_one_charpoly_per_xi_on_a_cold_spec_op():
    # placement's support primes, mixing_check's orders and norms, and the
    # inverses behind four counts all read one computation per xi_i
    import entrank.numberfield as nf

    spec = parse_spec({"d": 2, "components": [{"char": 0, "min_poly": [-3, 2, 1, 1], "xi": [
        [-1, 2, -2, 3, -2, 1], [-1, 3, 1, 1, 1, 2]]}]})
    nf._charpoly_core.cache_clear()
    nf._pow_cached.cache_clear()
    ps = place_spec(spec)
    assert mixing_check(spec, radius=3).passed
    for n in ((1, 1), (-1, -1), (2, -1), (-2, 1)):
        assert count_composite(ps, n).value >= 1
    assert nf._charpoly_core.cache_info().misses == 2


def test_mixing_ledrappier_clean(ledrappier_spec):
    rep = mixing_check(ledrappier_spec, radius=6)
    assert rep.passed and not rep.violations


def test_mixing_detects_charp_membership():
    # generator u1 - 1 makes u1^n - 1 a member for every n
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                   {"exp": [1, 0], "coeff": 1}]}]}]})
    rep = mixing_check(spec, radius=3)
    assert not rep.passed
    assert any("(1, 0)" in v for v in rep.violations)


def test_rank_check_char0_passes(x2x3_spec):
    rep = entropy_rank_one_check(x2x3_spec)
    assert rep.passed


def test_rank_check_ledrappier_passes(ledrappier_spec):
    rep = entropy_rank_one_check(ledrappier_spec)
    assert rep.passed


def test_rank_check_full_shift_fails():
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 2, "generators": []}]})
    rep = entropy_rank_one_check(spec)
    assert not rep.passed
    assert rep.violations


def test_place_spec_partition(x2x3_spec, ledrappier_spec):
    ps = place_spec(x2x3_spec)
    assert len(ps.placed_char0()) == 1 and not ps.charp()
    ps2 = place_spec(ledrappier_spec)
    assert not ps2.placed_char0() and len(ps2.charp()) == 1
