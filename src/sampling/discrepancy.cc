#include "sampling/discrepancy.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ppm::sampling {

double
starL2Discrepancy(const std::vector<dspace::UnitPoint> &unit)
{
    assert(!unit.empty());
    const std::size_t p = unit.size();
    const std::size_t d = unit.front().size();
    const double pd = static_cast<double>(p);

    double sum1 = 0.0;
    for (const auto &x : unit) {
        assert(x.size() == d);
        double prod = 1.0;
        for (double v : x)
            prod *= 1.0 - v * v;
        sum1 += prod;
    }

    double sum2 = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            double prod = 1.0;
            for (std::size_t k = 0; k < d; ++k)
                prod *= 1.0 - std::max(unit[i][k], unit[j][k]);
            sum2 += prod;
        }
    }

    const double dd = static_cast<double>(d);
    const double sq = std::pow(3.0, -dd)
        - std::pow(2.0, 1.0 - dd) / pd * sum1
        + sum2 / (pd * pd);
    return std::sqrt(std::max(0.0, sq));
}

double
centeredL2Discrepancy(const std::vector<dspace::UnitPoint> &unit)
{
    assert(!unit.empty());
    const std::size_t p = unit.size();
    const std::size_t d = unit.front().size();
    const double pd = static_cast<double>(p);

    double sum1 = 0.0;
    for (const auto &x : unit) {
        assert(x.size() == d);
        double prod = 1.0;
        for (double v : x) {
            const double z = std::fabs(v - 0.5);
            prod *= 1.0 + 0.5 * z - 0.5 * z * z;
        }
        sum1 += prod;
    }

    // The pair sum, lane-parallel over j. Per (point, dim) the loop
    // reads u, 1 + 0.5 z and 0.5 z, dimension-major and padded to
    // whole blocks of j; each pair's term keeps the expression
    // ((1 + 0.5 z_i) + 0.5 z_j) - 0.5 |u_i - u_j|, its product runs
    // over k ascending, and the products join sum2 in (i, j) order.
    constexpr std::size_t kLanes = 8;
    const std::size_t stride = (p + kLanes - 1) / kLanes * kLanes;
    std::vector<double> u(d * stride, 0.5);
    std::vector<double> one_half_z(d * stride, 1.0);
    std::vector<double> half_z(d * stride, 0.0);
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t k = 0; k < d; ++k) {
            const double z = std::fabs(unit[i][k] - 0.5);
            u[k * stride + i] = unit[i][k];
            one_half_z[k * stride + i] = 1.0 + 0.5 * z;
            half_z[k * stride + i] = 0.5 * z;
        }
    }
    double sum2 = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j0 = 0; j0 < p; j0 += kLanes) {
            double prod[kLanes];
            std::fill_n(prod, kLanes, 1.0);
            for (std::size_t k = 0; k < d; ++k) {
                const double ui = u[k * stride + i];
                const double ai = one_half_z[k * stride + i];
                const double *uj = &u[k * stride + j0];
                const double *bj = &half_z[k * stride + j0];
                for (std::size_t l = 0; l < kLanes; ++l)
                    prod[l] *= (ai + bj[l]) - 0.5 * std::fabs(ui - uj[l]);
            }
            const std::size_t lanes = std::min(kLanes, p - j0);
            for (std::size_t l = 0; l < lanes; ++l)
                sum2 += prod[l];
        }
    }

    const double dd = static_cast<double>(d);
    const double sq = std::pow(13.0 / 12.0, dd)
        - 2.0 / pd * sum1
        + sum2 / (pd * pd);
    return std::sqrt(std::max(0.0, sq));
}

} // namespace ppm::sampling
