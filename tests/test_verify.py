import pytest

from padicqm import PadicqmError, Place
from padicqm.verify import CHECKS

PADIC_ONLY = ("overlap", "gauss")


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_zero_trials_raise(name):
    with pytest.raises(PadicqmError, match="trials"):
        CHECKS[name](trials=0)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_no_place_raises(name):
    with pytest.raises(PadicqmError, match="place"):
        CHECKS[name](places=())


@pytest.mark.parametrize("name", PADIC_ONLY)
def test_real_place_alone_raises_for_padic_checks(name):
    with pytest.raises(PadicqmError, match="place"):
        CHECKS[name](places=(Place.real(),))


@pytest.mark.parametrize("name", PADIC_ONLY)
def test_padic_checks_skip_the_real_place(name):
    # the real place is dropped, leaving the same run as the p-adic places alone
    p3 = Place.prime(3)
    assert CHECKS[name](places=(Place.real(), p3), trials=2) == CHECKS[name](
        places=(p3,), trials=2
    ) == []
