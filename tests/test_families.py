import math
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bakerfr import cli, families, maps, multibaker, transfer
from bakerfr.families import family
from bakerfr.fluctuation import exact_distribution, fr_report
from bakerfr.maps import RegionLabel
from bakerfr.transfer import ConsistencyError
from reference import class_chain

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

# a family with a rational l of denominator at most 60 in its range
family_l = st.one_of(
    st.tuples(st.just("map1"),
              st.fractions(min_value=F(1, 60), max_value=F(59, 60), max_denominator=60)),
    st.tuples(st.just("map2"),
              st.fractions(min_value=F(1, 60), max_value=F(1, 4), max_denominator=60)))


def test_cross_check_runs_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.transition_matrix

    def counting(map1d):
        calls.append(map1d.branches[0].hi)  # strip A is [0, l) in both families
        return original(map1d)

    monkeypatch.setattr(transfer, "transition_matrix", counting)
    families._family.cache_clear()
    fr_report(exact_distribution("map2", "1/8", 6))
    first = len(calls)
    fr_report(exact_distribution("map2", F(1, 8), 6))
    assert first > 0
    assert len(calls) == first
    assert family("map2", "1/8") is family("map2", F(1, 8))
    fr_report(exact_distribution("map1", "2/3", 6))
    fr_report(exact_distribution("map1", F(2, 3), 6))
    assert calls[first:] == [F(2, 3)] * first  # same work per build, once per l


def test_region_measures_run_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.region_measures

    def counting(map1d):
        calls.append((map1d.name, map1d.branches[0].hi))
        return original(map1d)

    # every binding a record build could reach the measures through
    monkeypatch.setattr(transfer, "region_measures", counting)
    monkeypatch.setattr(multibaker, "region_measures", counting, raising=False)
    families._family.cache_clear()
    for l in (F(1, 8), F(3, 37), F(1, 8)):
        family("map2", l)
        family("map1", l)
    assert calls == [("map2_x", F(1, 8)), ("map1_x", F(1, 8)),
                     ("map2_x", F(3, 37)), ("map1_x", F(3, 37))]


@pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
def test_one_build_and_one_projection_per_record(monkeypatch, name, l):
    builder = families._STATED[name][0]
    built, projected = [], []
    real_build, real_project = getattr(maps, builder), transfer.project_unstable

    def build(arg):
        built.append(real_build(arg))
        return built[-1]

    def project(m):
        projected.append(real_project(m))
        return projected[-1]

    monkeypatch.setattr(maps, builder, build)
    monkeypatch.setattr(transfer, "project_unstable", project)
    families._family.cache_clear()
    fam = family(name, l)
    assert (len(built), len(projected)) == (1, 1)
    # the record keeps the very objects it built and checked
    assert fam.map is built[0] and fam.x_factor is projected[0]
    config = cli.ExperimentConfig(command="density", family=name, l=l)
    assert cli._base_map(config) is fam.map
    assert (len(built), len(projected)) == (1, 1)
    families._family.cache_clear()


@pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
def test_one_chain_per_consumer(monkeypatch, name, l):
    # one labelled chain for the transitions, one inside the stationary solve
    counts = {"_strip_chain": 0, "transition_matrix": 0}
    for attr in counts:
        real = getattr(transfer, attr)

        def counting(arg, real=real, attr=attr):
            counts[attr] += 1
            return real(arg)

        monkeypatch.setattr(transfer, attr, counting)
    families._family.cache_clear()
    family(name, l)
    assert counts == {"_strip_chain": 2, "transition_matrix": 1}
    families._family.cache_clear()


@pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
def test_one_stationary_solve_per_consumer(monkeypatch, name, l):
    # the record build solves once, for region_measures; each
    # invariant_density call solves once more, and Family.density, which
    # spreads the stated weights, not at all
    calls = []
    real = transfer._nullspace_vector

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(transfer, "_nullspace_vector", counting)
    families._family.cache_clear()
    fam = family(name, l)
    assert len(calls) == 1
    for expected in (2, 3):
        transfer.invariant_density(fam.x_factor)
        assert len(calls) == expected
    assert fam.density == transfer.invariant_density(fam.x_factor)
    assert len(calls) == 4
    families._family.cache_clear()


def test_consumers_build_no_family_map(monkeypatch):
    from bakerfr.periodic_orbits import enumerate_orbits

    k = maps.build_composite(F(1, 8))  # flattens its own map2, on purpose
    family("map1", F(2, 3)), family("map2", F(1, 8))

    def refuse(l):
        raise AssertionError(f"a consumer built a family map at l={l}")

    monkeypatch.setattr(maps, "build_simple_baker", refuse)
    monkeypatch.setattr(maps, "build_generalized_baker", refuse)
    assert len(enumerate_orbits(F(2, 3), 3)) == 8
    assert multibaker.simulate_current(F(1, 8), 10, 2, seed=0).particles == 10
    families.verify_x_factor(family("map2", F(1, 8)).map)
    families.verify_composite(k)
    for name, l in (("map1", F(2, 3)), ("map2", F(1, 8))):
        cli._base_map(cli.ExperimentConfig(command="density", family=name, l=l))


def test_record_mappings_reject_assignment():
    fam = family("map2", F(1, 8))
    for mapping, key in ((fam.trans, (A, A)), (fam.col, A), (fam.initial["stationary"], A),
                         (fam.initial, "uniform"), (fam.g, A),
                         (fam.conjugacy, A), (fam.successors, A), (fam.trace, 1),
                         (fam.det, 0), (fam.starts, "uniform"),
                         (fam.starts["uniform"][0], 0), (fam.starts["uniform"][1], 0)):
        with pytest.raises(TypeError):
            mapping[key] = 0
    with pytest.raises(AttributeError):
        fam.psi = F(0)


@pytest.mark.parametrize("name,l", [("map2", F(3, 37)), ("map1", F(2, 3))])
def test_strip_slope_that_disagrees_with_the_column_weight_raises(name, l):
    fam = family(name, l)
    bad = fam._replace(col=MappingProxyType({**fam.col, A: fam.col[A] * 2}))
    with pytest.raises(ConsistencyError, match="inverse strip slopes .* != column weights"):
        families._verify(bad)
    families._verify(fam)


@pytest.mark.parametrize("route,message", [
    # a corrupted column of the transitions gives a column weight that
    # disagrees with the strip slope
    ("transition_matrix", "inverse strip slopes .* != column weights"),
    ("region_measures", "measures .* != closed form"),
    ("analytic_current", "current route"),
])
def test_geometric_disagreement_raises(monkeypatch, route, message):
    l = F(3, 37)
    real = {"transition_matrix": transfer.transition_matrix,
            "region_measures": transfer.region_measures,
            "analytic_current": multibaker.analytic_current}[route]

    def corrupted(arg):
        good = real(arg)
        if route == "transition_matrix":
            return {**good, (A, A): good[A, A] + 1}
        if route == "region_measures":
            return {**good, A: good[A] / 2}
        return good + 1

    monkeypatch.setattr(multibaker if route == "analytic_current" else transfer,
                        route, corrupted)
    # the current route exists for map2 alone
    names = ("map2",) if route == "analytic_current" else ("map2", "map1")
    for name in names:
        families._family.cache_clear()
        with pytest.raises(ConsistencyError, match=message):
            family(name, l)
    monkeypatch.undo()
    for name in names:
        assert family(name, l).l == l  # the failure was not cached


@pytest.mark.parametrize("name,l,entry", [
    # the second region of the first class, its last successor: the column
    # keeps its largest entry, so only the class check can see it
    ("map2", F(3, 37), (C, D)),
    ("map1", F(2, 3), (B, B)),
])
def test_a_class_with_two_rows_raises(monkeypatch, name, l, entry):
    real = transfer.transition_matrix

    def corrupted(map1d):
        good = real(map1d)
        return {**good, entry: good[entry] / 2}

    monkeypatch.setattr(transfer, "transition_matrix", corrupted)
    families._family.cache_clear()
    with pytest.raises(ConsistencyError, match="another transition row than"):
        family(name, l)
    monkeypatch.undo()
    families._family.cache_clear()
    check_against_oracle(name, l)


@pytest.mark.parametrize("change,message", [
    # D's own successor set splits {B, D}; the transition rows are untouched
    (lambda fam: {"successors": MappingProxyType({**fam.successors, D: (A,)})},
     "class chain of 3 classes"),
    (lambda fam: {"trace": MappingProxyType({**fam.trace, 0: 1})}, "the exact law needs"),
    (lambda fam: {"trace": MappingProxyType({1: fam.trace[1]})}, "the exact law needs"),
    (lambda fam: {"det": MappingProxyType({**fam.det, 1: 1})}, "determinant free of z"),
    (lambda fam: {"starts": MappingProxyType({**fam.starts, "uniform": (
        fam.starts["uniform"][0],
        MappingProxyType({g: 2 * c for g, c in fam.starts["uniform"][1].items()}))})},
     "from the uniform start"),
], ids=["three-classes", "trace-with-z0", "one-term-trace", "det-with-z", "start-rows"])
def test_a_chain_outside_the_recurrence_raises(change, message):
    fam = family("map2", F(3, 37))
    with pytest.raises(ConsistencyError, match=message):
        families._verify(fam._replace(**change(fam)))
    families._verify(fam)


@settings(max_examples=40, deadline=None)
@given(l=st.fractions(min_value=F(1, 400), max_value=F(99, 400), max_denominator=400))
def test_characteristic_polynomial_has_the_gallavotti_cohen_symmetry(l):
    # x^2 - T(z) x + Delta of the class chain is unchanged under
    # z -> 1 / (base z): the eigenvalues, and so the long-time cumulant
    # generating function of g, have the Gallavotti-Cohen symmetry
    fam = family("map2", l)
    a, b, delta = fam.trace[1], fam.trace[-1], F(fam.det.get(0, 0), fam.den ** 2)

    def characteristic(a, b):
        """{(power of x, power of z): coefficient}"""
        return {key: c for key, c in {(2, 0): F(1), (1, 1): -F(a, fam.den),
                                      (1, -1): -F(b, fam.den), (0, 0): delta}.items() if c}

    def reflected(poly):
        return {(i, -j): c / fam.unit_base ** j for (i, j), c in poly.items()}

    assert reflected(characteristic(a, b)) == characteristic(a, b)
    assert reflected(characteristic(a, b + 1)) != characteristic(a, b + 1)


def lumped_chain(fam):
    """The class chain M(z) of `reference.class_chain` with `Fraction`
    entries {power of z: probability}."""
    chain = class_chain(fam)
    d = math.lcm(*(p.denominator for p in fam.trans.values()))
    m = [[{} for _ in chain.classes] for _ in chain.classes]
    for y, terms in enumerate(chain.into):
        for x, c, g in terms:
            m[x][y][g] = m[x][y].get(g, 0) + F(c, d)
    return chain.classes, m


def poly_sum(*polys, scale=1):
    out = {}
    for poly in polys:
        for k, c in poly.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def poly_product(p, q):
    return poly_sum(*({i + j: u * v} for i, u in p.items() for j, v in q.items()))


@settings(max_examples=40, deadline=None)
@given(case=family_l)
@example(case=("map2", F(1, 4)))   # det M = 0
def test_polynomials_equal_the_lumped_chain(case):
    # the record derives D tr M, D^2 det M and the start terms from the
    # region chain; here they are read off the 1 x 1 or 2 x 2 class chain
    name, l = case
    fam = family(name, l)
    classes, m = lumped_chain(fam)
    d, k = fam.den, len(classes)
    assert fam.trace == poly_sum(*(m[x][x] for x in range(k)), scale=d)
    if k == 2:
        minus = poly_sum(poly_product(m[0][1], m[1][0]), scale=-1)
        assert fam.det == poly_sum(poly_product(m[0][0], m[1][1]), minus, scale=d * d)
    else:
        assert fam.det == {}
    for start, w in fam.initial.items():
        e = math.lcm(*(v.denominator for v in w.values()))
        s = [poly_sum(*({fam.g[r]: w[r]} for r in cls)) for cls in classes]
        sm = [poly_product(s[x], m[x][y]) for x in range(k) for y in range(k)]
        assert fam.starts[start] == (poly_sum(*s, scale=e), poly_sum(*sm, scale=e * d))


def test_bad_input_is_a_value_error():
    with pytest.raises(ValueError):
        family("map3", F(1, 8))
    with pytest.raises(ValueError):
        family("map2", F(1, 3))
    with pytest.raises(ValueError):
        family("map1", 1)


def map1_oracle(l):
    """The closed forms of map1 at l: the weights are the strip widths,
    and successive symbols are independent draws from them."""
    col = {A: l, B: 1 - l}
    den = l.denominator
    return {"labels": (A, B), "g": {A: 1, B: -1}, "conjugacy": {A: B, B: A},
            "successors": {A: (A, B), B: (A, B)},
            "partition": ((0, l, A), (l, 1, B)),
            "trans": {(i, j): col[j] for i in (A, B) for j in (A, B)}, "col": col,
            "initial": {"stationary": col, "uniform": col},
            "unit_base": l / (1 - l), "psi": 2 * l - 1, "alpha_bounds": (1, 1),
            # one class: an iid chain, M(z) = l z + (1-l) / z
            "classes": ((A, B),), "den": den,
            "into": (((0, den * l, 1), (0, den * (1 - l), -1)),),
            # E = D = den; E s 1 = den M(z), E D s M 1 = den^2 M(z)^2
            "trace": {-1: den * (1 - l), 1: den * l}, "det": {},
            "starts": {start: ({-1: den * (1 - l), 1: den * l},
                               {-2: (den * (1 - l)) ** 2, 0: 2 * den ** 2 * l * (1 - l),
                                2: (den * l) ** 2})
                       for start in ("stationary", "uniform")}}


def map2_oracle(l):
    """The closed forms of map2 at l: A and C jump to C or D with
    probability 1/2 each; B and D jump to A with probability 2l and to B
    with probability 1 - 2l.  So {A, C} and {B, D} lump to the class
    chain M(z) = [[1/(2z), 1/2], [2l, (1-2l) z]], g counted on arrival."""
    labels = (A, B, C, D)
    successors = {A: (C, D), B: (A, B), C: (C, D), D: (A, B)}
    col = {A: 2 * l, B: 1 - 2 * l, C: F(1, 2), D: F(1, 2)}
    z = 1 + 4 * l
    den = math.lcm((2 * l).denominator, 2)
    initial = {"stationary": {A: 2 * l / z, B: (1 - 2 * l) / z, C: 2 * l / z, D: 2 * l / z},
               "uniform": {A: l, B: F(1, 2) - l, C: F(1, 4), D: F(1, 4)}}
    starts = {}
    for start, w in initial.items():
        # s = (E (w_A + w_C / z), E (w_B z + w_D)) over the classes {A, C}, {B, D}
        e = math.lcm(*(v.denominator for v in w.values()))
        moved = {-2: w[C] / 2, -1: (w[A] + w[C]) / 2, 0: w[A] / 2 + 2 * l * w[D],
                 1: 2 * l * w[B] + (1 - 2 * l) * w[D], 2: (1 - 2 * l) * w[B]}
        starts[start] = ({-1: e * w[C], 0: e * (w[A] + w[D]), 1: e * w[B]},
                         {k: e * den * v for k, v in moved.items()})
    return {"labels": labels, "g": {A: 0, B: 1, C: -1, D: 0},
            "conjugacy": {A: A, B: C, C: B, D: D}, "successors": successors,
            "partition": ((0, l, A), (l, F(1, 2), B), (F(1, 2), F(3, 4), C),
                          (F(3, 4), 1, D)),
            "trans": {(i, j): col[j] if j in successors[i] else 0
                      for i in labels for j in labels},
            "col": col, "initial": initial,
            "unit_base": 2 * (1 - 2 * l), "psi": (1 - 4 * l) / z,
            "alpha_bounds": (4 * l, 1 / (4 * l)),
            "classes": ((A, C), (B, D)), "den": den,
            # into {A, C}: A from {B, D} with 2l, C from {A, C} with 1/2;
            # into {B, D}: B from {B, D} with 1 - 2l, D from {A, C} with 1/2
            "into": (((1, den * 2 * l, 0), (0, den // 2, -1)),
                     ((1, den * (1 - 2 * l), 1), (0, den // 2, 0))),
            # D T = D (1-2l) z + D/(2z), D^2 det M = D^2 (1/2 - 2l), zero at l = 1/4
            "trace": {-1: den // 2, 1: den * (1 - 2 * l)},
            "det": {0: den ** 2 * (F(1, 2) - 2 * l)} if l != F(1, 4) else {},
            "starts": starts}


ORACLES = {"map1": map1_oracle, "map2": map2_oracle}


def check_against_oracle(name, l):
    """The record against the oracle, the oracle's class chain (`classes`,
    `into`) against the test lumping `reference.class_chain`, and the
    oracle's `partition` against the record's x-factor strips: the record
    holds neither a class chain nor a partition."""
    fam = family(name, l)
    chain = class_chain(fam)
    strips = tuple((b.lo, b.hi, b.label) for b in fam.x_factor.branches)
    for field, want in ORACLES[name](l).items():
        got = strips if field == "partition" else getattr(
            chain if field in chain._fields else fam, field)
        assert got == want, field
        if isinstance(want, dict):
            inner = want.items() if field == "initial" else ()
            for got_map, want_map in [(got, want)] + [(got[k], v) for k, v in inner]:
                assert list(got_map) == list(want_map), f"key order of {field}"
                assert isinstance(got_map, MappingProxyType), field
    assert fam.l == l and fam.name == name
    return fam


def test_closed_forms():
    # the oracles against numbers worked by hand
    assert map2_oracle(F(1, 8))["initial"]["stationary"] == {
        A: F(1, 6), B: F(1, 2), C: F(1, 6), D: F(1, 6)}
    assert (map2_oracle(F(1, 8))["unit_base"], map2_oracle(F(1, 8))["psi"],
            map2_oracle(F(1, 8))["alpha_bounds"]) == (F(3, 2), F(1, 3), (F(1, 2), 2))
    assert (map1_oracle(F(2, 3))["unit_base"], map1_oracle(F(2, 3))["psi"]) == (2, F(1, 3))
    # the derived record against the oracles, at the two equilibria (every
    # jacobian is 1) and at fixed points away from them
    for name, l in [("map2", F(1, 4)), ("map1", F(1, 2)), ("map2", F(1, 8)),
                    ("map1", F(1, 8)), ("map2", F(3, 37)), ("map1", F(3, 37)),
                    ("map1", F(2, 3))]:
        check_against_oracle(name, l)


@settings(max_examples=30, deadline=None)
@given(case=family_l)
def test_record_builds_for_random_l(case):
    name, l = case
    fam = check_against_oracle(name, l)
    fresh = transfer.project_unstable(getattr(maps, families._STATED[name][0])(l))
    assert fresh == fam.x_factor


@pytest.mark.parametrize("name,l,g", [
    ("map2", F(3, 37), {A: 1, B: 0, C: -1, D: 0}),   # A and B swapped
    ("map1", F(2, 3), {A: 0, B: -1}),
])
def test_g_that_disagrees_with_the_jacobians_raises(monkeypatch, name, l, g):
    builder, _g, conjugacy, weights = families._STATED[name]
    monkeypatch.setitem(families._STATED, name, (builder, g, conjugacy, weights))
    families._family.cache_clear()
    with pytest.raises(ConsistencyError, match="branch jacobians .* to the power -g"):
        family(name, l)
    monkeypatch.undo()
    families._family.cache_clear()
    assert family(name, l).g != g


@pytest.mark.parametrize("name,l,swap", [("map2", F(3, 37), (B, C)),
                                         ("map1", F(2, 3), (A, B))])
def test_the_sign_of_g_is_stated(monkeypatch, name, l, swap):
    # negating g and inverting the unit base leaves every jacobian, stay
    # ratio and measure as it was: no geometric route can fix the sign of
    # g.  For map2 the bias form of the unit base does (2/(2-b) > 1 for
    # b > 0), and so would the current route (its closed form counts B as
    # +1); map1 then builds the mirrored record.
    builder, g, conjugacy, weights = families._STATED[name]
    i, j = swap
    mirrored = {**g, i: g[j], j: g[i]}
    true = family(name, l)
    monkeypatch.setitem(families._STATED, name, (builder, mirrored, conjugacy, weights))
    families._family.cache_clear()
    if name == "map2":
        with pytest.raises(ConsistencyError, match=r"unit base .* != 2/\(2-b\)"):
            family(name, l)
        mu = true.initial["stationary"]
        assert multibaker.analytic_current(l) != sum(mu[r] * mirrored[r] for r in mu)
    else:
        fam = family(name, l)
        assert (fam.unit_base, fam.psi) == (1 / true.unit_base, -true.psi)
    monkeypatch.undo()
    families._family.cache_clear()


# ---------------------------------------------------------------------------
# the one door from a map to its record
# ---------------------------------------------------------------------------


def test_the_door_returns_the_record():
    k = maps.build_composite(F(3, 37))
    assert families.verify_x_factor(k) is family("map2", F(3, 37))
    assert families.verify_x_factor(family("map1", F(2, 3)).map) is family("map1", F(2, 3))


def test_the_door_refuses_a_map_without_a_region_partition():
    m = maps.build_generalized_baker(F(1, 8))
    for bare in (m._replace(l=None), m._replace(family=None)):
        with pytest.raises(ValueError, match="carries no region partition"):
            families.verify_x_factor(bare)


def test_consumers_reach_the_record_through_the_door_once(monkeypatch):
    from bakerfr import ensembles

    real, calls = families.verify_x_factor, []

    def counting(m):
        calls.append(m.name)
        return real(m)

    # every module that holds the name: the consumers call it from there
    for module in (families, ensembles, cli):
        monkeypatch.setattr(module, "verify_x_factor", counting)
    k = maps.build_composite(F(1, 8))
    runs = {
        "compile_map": lambda: ensembles.compile_map(k),
        "verify_composite": lambda: families.verify_composite(k),
        "verify_reversibility": lambda: maps.verify_reversibility(
            k, maps.build_involution("map2"), maps.random_rational_points(5, seed=0)),
        "cmd_density": lambda: cli.cmd_density(
            cli.ExperimentConfig(command="density", family="map2", l=F(1, 8))),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, (name, calls)
