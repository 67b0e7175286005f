"""The braid transposes of the dual module against the formulas they replaced.

dual.sigma_prime reads sigma(g, h) off sigma's table and swaps its legs
(sigma' = tau sigma tau), sigma_X = tau sigma^-1 tau has sigma's order
(SigmaOperator.order), and the sigma'-connection is the dual of the braid
connection, DualConnection(nabla_sigma(cal)).  Each must agree with the formula it replaced
(dense_paths) on every calculus of the bicovariant catalog sample; the
connection is compared on seeded function-valued vector fields.
"""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, funcs, groups
from finitegeo.braid import sigma_for
from finitegeo.connection import nabla_sigma
from finitegeo.dual import DualConnection, VectorField, sigma_prime
from finitegeo.errors import NotBicovariant, NotInHatG

import dense_paths
from test_one_pass_sums import IDS, SAMPLE


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_sigma_prime_is_sigma_with_its_legs_swapped(name, cal):
    for h in cal.hatG:
        for g in cal.hatG:
            assert sigma_prime(cal, h, g) == dense_paths.sigma_prime(cal, h, g)
    for prime in (sigma_prime, dense_paths.sigma_prime):
        with pytest.raises(NotInHatG):
            prime(cal, 0, cal.hatG[0])
        with pytest.raises(NotInHatG):
            prime(cal, cal.hatG[0], 0)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_sigma_x_order_is_sigma_order(name, cal):
    assert sigma_for(cal).order() == dense_paths.sigma_x_order(cal)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_sigma_prime_connection_is_the_dual_braid_connection(name, cal):
    group = cal.group
    rng = random.Random(len(cal.hatG) * 37 + group.order)
    prime = DualConnection(nabla_sigma(cal))
    for _ in range(3):
        labels = rng.sample(cal.hatG, max(1, len(cal.hatG) // 2))
        x = VectorField(cal, {
            g: funcs.from_values(group, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                         for _ in group.elements()]) if k % 3 else k + 1
            for k, g in enumerate(labels)
        })
        assert prime.apply(x) == dense_paths.sigma_prime_connection_apply(cal, x)


def test_transposes_need_a_bicovariant_calculus():
    s3 = groups.symmetric(3)
    cal = calculus.from_hatG(s3, [s3.element_index("a")])
    a = cal.hatG[0]
    for call in (lambda: sigma_prime(cal, a, a), lambda: dense_paths.sigma_prime(cal, a, a),
                 lambda: sigma_for(cal).order(), lambda: dense_paths.sigma_x_order(cal),
                 lambda: DualConnection(nabla_sigma(cal))):
        with pytest.raises(NotBicovariant):
            call()
