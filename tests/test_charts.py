"""Chart construction: the box is checked once, and its scale computed once."""

import math

import numpy as np
import pytest

from projcurv.charts import ComplexChart, RealChart

CHARTS = (ComplexChart, RealChart)


class TestChartConstruction:
    @pytest.mark.parametrize("chart_type", CHARTS)
    @pytest.mark.parametrize("radius", [[math.nan], [math.inf], [-math.inf], [0.0], [-1.0],
                                        [0.5, math.nan]])
    def test_a_radius_that_is_not_positive_and_finite_is_refused(self, chart_type, radius):
        with pytest.raises(ValueError, match="chart radii must be positive and finite"):
            chart_type(dim=len(radius), radius=radius)

    @pytest.mark.parametrize("chart_type", CHARTS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_centre_that_is_not_finite_is_refused(self, chart_type, bad):
        with pytest.raises(ValueError, match="chart center must be finite"):
            chart_type(dim=2, center=[0.1, bad], radius=[1.0, 1.0])

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(0.0, math.inf)])
    def test_a_complex_centre_with_a_part_that_is_not_finite_is_refused(self, bad):
        with pytest.raises(ValueError, match="chart center must be finite"):
            ComplexChart(dim=1, center=[bad], radius=[1.0])

    @pytest.mark.parametrize("chart_type", CHARTS)
    def test_the_scale_is_the_largest_radius(self, chart_type):
        chart = chart_type(dim=3, radius=[0.2, 1.7, 0.9])
        assert chart.scale == 1.7
        assert type(chart.scale) is float
        # a broadcast radius, and the default unit box
        assert chart_type(dim=2, radius=0.4).scale == 0.4
        assert chart_type(dim=2).scale == 1.0

    def test_a_product_chart_has_its_own_scale(self):
        a = ComplexChart(dim=1, radius=[0.3])
        b = ComplexChart(dim=2, radius=[1.1, 0.6])
        assert a.product(b).scale == 1.1
        assert np.array_equal(a.product(b).radius, [0.3, 1.1, 0.6])
