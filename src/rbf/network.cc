#include "rbf/network.hh"

#include <cassert>
#include <stdexcept>
#include <string>

#include "math/linalg.hh"

namespace ppm::rbf {

RbfNetwork::RbfNetwork(std::vector<GaussianBasis> bases,
                       std::vector<double> weights)
    : bases_(std::move(bases)), weights_(std::move(weights))
{
    if (bases_.empty())
        throw std::invalid_argument(
            "rbf::RbfNetwork: at least one basis required");
    if (bases_.size() != weights_.size())
        throw std::invalid_argument(
            "rbf::RbfNetwork: " + std::to_string(bases_.size()) +
            " bases but " + std::to_string(weights_.size()) +
            " weights");
    for (const auto &b : bases_)
        if (b.dimensions() != bases_.front().dimensions())
            throw std::invalid_argument(
                "rbf::RbfNetwork: mixed basis dimensionalities");
    plan_ = std::make_shared<const BatchPlan>(bases_, weights_);
}

double
RbfNetwork::predict(const dspace::UnitPoint &x) const
{
    if (empty())
        throw std::logic_error(
            "rbf::RbfNetwork::predict: empty network");
    if (x.size() != dimensions())
        throw std::invalid_argument(
            "rbf::RbfNetwork::predict: point has " +
            std::to_string(x.size()) + " dimensions, network has " +
            std::to_string(dimensions()));
    return plan_->predictOne(x);
}

std::vector<double>
RbfNetwork::predict(const std::vector<dspace::UnitPoint> &xs) const
{
    if (empty())
        throw std::logic_error(
            "rbf::RbfNetwork::predict: empty network");
    for (const auto &x : xs)
        if (x.size() != dimensions())
            throw std::invalid_argument(
                "rbf::RbfNetwork::predict: point has " +
                std::to_string(x.size()) +
                " dimensions, network has " +
                std::to_string(dimensions()));
    return plan_->predict(xs);
}

std::vector<double>
RbfNetwork::predictRows(std::span<const double> rows,
                        std::size_t dims) const
{
    if (empty())
        throw std::logic_error(
            "rbf::RbfNetwork::predict: empty network");
    return plan_->predictRows(rows, dims);
}

std::size_t
RbfNetwork::dimensions() const
{
    return bases_.empty() ? 0 : bases_.front().dimensions();
}

math::Matrix
designMatrix(const std::vector<GaussianBasis> &bases,
             const std::vector<dspace::UnitPoint> &xs)
{
    if (bases.empty())
        return math::Matrix(xs.size(), 0);
    const BatchPlan plan(bases, {});
    return plan.designMatrix(xs);
}

RbfNetwork
fitWeights(std::vector<GaussianBasis> bases,
           const std::vector<dspace::UnitPoint> &xs,
           const std::vector<double> &ys)
{
    assert(!bases.empty());
    assert(xs.size() == ys.size());
    assert(xs.size() >= bases.size());
    const math::Matrix h = designMatrix(bases, xs);
    const auto fit = math::leastSquares(h, ys);
    return RbfNetwork(std::move(bases), fit.coefficients);
}

} // namespace ppm::rbf
