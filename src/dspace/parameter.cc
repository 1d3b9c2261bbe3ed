#include "dspace/parameter.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ppm::dspace {

std::string
transformName(Transform t)
{
    return t == Transform::Log ? "log" : "linear";
}

Parameter::Parameter(std::string name, double min_value, double max_value,
                     int levels, Transform transform, bool integer)
    : name_(std::move(name)), min_(min_value), max_(max_value),
      levels_(levels), transform_(transform), integer_(integer)
{
    assert(min_ < max_ && "parameter range must be non-degenerate");
    assert(levels_ >= 0 && levels_ != 1 && "need 0 (S) or >= 2 levels");
    assert((transform_ != Transform::Log || min_ > 0.0) &&
           "log transform requires a positive range");
    if (transform_ == Transform::Log) {
        log2_min_ = std::log2(min_);
        log2_span_ = std::log2(max_) - log2_min_;
    }
}

double
Parameter::toUnit(double raw) const
{
    const double clamped = std::clamp(raw, min_, max_);
    if (transform_ == Transform::Log)
        return (std::log2(clamped) - log2_min_) / log2_span_;
    return (clamped - min_) / (max_ - min_);
}

double
Parameter::fromUnit(double unit) const
{
    const double u = std::clamp(unit, 0.0, 1.0);
    if (transform_ == Transform::Log)
        return std::exp2(log2_min_ + u * log2_span_);
    return min_ + u * (max_ - min_);
}

double
Parameter::levelValue(int level, int count) const
{
    assert(count >= 2);
    assert(level >= 0 && level < count);
    const double u = static_cast<double>(level) /
        static_cast<double>(count - 1);
    return quantize(fromUnit(u));
}

double
Parameter::snapToLevel(double raw, int count) const
{
    assert(count >= 2);
    const double u = toUnit(raw);
    const int level = static_cast<int>(
        std::lround(u * static_cast<double>(count - 1)));
    return levelValue(std::clamp(level, 0, count - 1), count);
}

int
Parameter::effectiveLevels(int sample_size) const
{
    if (!sampleSizeLevels())
        return levels_;
    return std::max(2, sample_size);
}

double
Parameter::quantize(double raw) const
{
    if (!integer_)
        return raw;
    return std::round(raw);
}

bool
Parameter::contains(double raw) const
{
    // Inclusive bounds: min and max themselves are always inside. The
    // tolerance has two parts — one relative to the span, and one
    // relative to the bound magnitudes — because a narrow range at a
    // large magnitude (say [999999, 1000001]) makes the span term
    // smaller than one ulp of the endpoints, and a query that went
    // through fromUnit/quantize round trips could land a few ulps
    // past an endpoint and be spuriously rejected at the boundary.
    const double tol = 1e-9 * (max_ - min_) +
        1e-12 * std::max(std::fabs(min_), std::fabs(max_));
    return raw >= min_ - tol && raw <= max_ + tol;
}

} // namespace ppm::dspace
