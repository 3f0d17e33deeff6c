import pytest

from cmrank.strata import (
    BOUNDARY_MAX_G,
    StratumQuery,
    boundary_components,
    smooth_cover_exists,
    stratum_dim,
)


def test_dim_examples():
    assert stratum_dim(StratumQuery(g=2, f=0, f_E=0, space="B_Eg")) == 0
    assert stratum_dim(StratumQuery(g=2, f=1, f_E=1, space="B_Eg")) == 0
    assert stratum_dim(StratumQuery(g=4, f=2, f_E=0, space="B_Eg")) == 4
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=3, f=5, f_E=1, space="B_Eg"))


def test_dim_windows_and_errors():
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=1, f=0, space="B_g"))
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=3, f=4, space="B_g"))
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=3, f=-1, space="H_g"))
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=3, f=1, space="A_g"))
    with pytest.raises(ValueError):
        stratum_dim(StratumQuery(g=3, f=1, f_E=2, space="B_Eg"))


def test_golden_tables_g2_to_g8():
    for g in range(2, 9):
        for f_E in (0, 1):
            for f in range(f_E, g + f_E):
                assert stratum_dim(StratumQuery(g, f, f_E, "B_Eg")) == g - 2 + f - f_E
        for f in range(0, g + 1):
            assert stratum_dim(StratumQuery(g, f, 0, "B_g")) == g - 2 + f
            assert stratum_dim(StratumQuery(g, f, 0, "H_g")) == g - 1 + f


def test_fixed_curve_vs_bielliptic_identity():
    for g in range(2, 13):
        for f_E in (0, 1):
            for f in range(f_E, g + f_E):
                if not 0 <= f <= g:
                    continue
                assert (
                    stratum_dim(StratumQuery(g, f, f_E, "B_Eg"))
                    == stratum_dim(StratumQuery(g, f, 0, "B_g")) - f_E
                )


def test_boundary_components_g2():
    comps = boundary_components(2)
    assert [c.kind for c in comps] == ["delta_ct", "xi_nct"]
    assert all((c.g1, c.g2) == (1, 0) for c in comps)
    assert all(c.dim == 0 for c in comps)


def test_boundary_components_g4():
    comps = boundary_components(4)
    labels = [c.label for c in comps]
    assert labels == [
        "delta_{1,2}",
        "xi_{1,2}",
        "Xi_{2,1}",
        "Xi_{3,0}",
        "Delta_{2,2}",
        "Delta_{3,1}",
    ]
    delta_ct = comps[0]
    assert "Delta_2" in delta_ct.note
    assert all(c.dim == 2 * 4 - 4 for c in comps)


def test_boundary_component_counts():
    # (g-1) Xi components + (g-2) Delta components before the g1 = 1 split
    for g in [*range(2, 13), BOUNDARY_MAX_G]:
        comps = boundary_components(g)
        xi_like = [c for c in comps if c.kind in ("Xi", "delta_ct", "xi_nct")]
        deltas = [c for c in comps if c.kind == "Delta"]
        assert len(xi_like) - 1 == g - 1  # delta/xi pair counts once
        assert len(deltas) == g - 2
        assert len(comps) == (g - 1) + (g - 2) + 1


def test_boundary_containments():
    comps = boundary_components(5)
    by_label = {c.label: c for c in comps}
    assert by_label["xi_{1,3}"].contained_in == "Delta_0"
    assert by_label["Xi_{2,2}"].contained_in == "Delta_0"
    assert by_label["delta_{1,3}"].contained_in == "Delta_1"
    assert by_label["Delta_{4,1}"].contained_in == "Delta_1"
    assert by_label["Delta_{2,3}"].contained_in == "Delta_2"


def test_smooth_cover_exists():
    assert smooth_cover_exists(3, 2, 0, 0) is False
    assert smooth_cover_exists(3, 3, 0, 0) is True
    assert smooth_cover_exists(5, 2, 0, 0) is True
    assert smooth_cover_exists(7, 4, 4, 1) is True
    assert smooth_cover_exists(7, 4, 0, 1) is False
    assert smooth_cover_exists(7, 4, 4, 0) is False
    assert smooth_cover_exists(7, 4, 3, 0) is True
    with pytest.raises(ValueError):
        smooth_cover_exists(2, 3, 1, 0)
    with pytest.raises(ValueError):
        smooth_cover_exists(9, 3, 1, 0)
    with pytest.raises(ValueError):
        smooth_cover_exists(7, 1, 0, 0)
