/**
 * @file
 * A single microarchitectural design parameter: its raw range, the
 * number of discrete levels it takes, and the transformation (linear or
 * log) under which the model treats it (paper Table 1, last column).
 */

#ifndef PPM_DSPACE_PARAMETER_HH
#define PPM_DSPACE_PARAMETER_HH

#include <string>

namespace ppm::dspace {

/**
 * Input transformation applied before modeling (paper Table 1).
 *
 * Cache sizes vary over two orders of magnitude and behave
 * multiplicatively, so they are modeled in log space; everything else is
 * modeled linearly.
 */
enum class Transform
{
    Linear,
    Log,
};

/** Name of a Transform value ("linear" / "log"). */
std::string transformName(Transform t);

/**
 * Number of levels used by Table 1 for parameters whose level count
 * depends on the sample size ("S" in the paper). A Parameter with
 * levels == kSampleSizeLevels takes one level per LHS sample point.
 */
inline constexpr int kSampleSizeLevels = 0;

/**
 * Definition of one design parameter.
 *
 * Ranges are stored with min <= max in raw units (e.g. KB for cache
 * sizes, cycles for latencies). The paper sometimes lists the "low
 * performance" end first (e.g. pipe_depth low=24, high=7); we keep the
 * numeric ordering and record the paper's orientation only in tables.
 */
class Parameter
{
  public:
    /**
     * @param name Short identifier, e.g. "pipe_depth".
     * @param min_value Numeric minimum (raw units).
     * @param max_value Numeric maximum (raw units).
     * @param levels Number of discrete levels, or kSampleSizeLevels for
     *               a sample-size-dependent level count.
     * @param transform Modeling transform.
     * @param integer Whether raw values must be integers.
     */
    Parameter(std::string name, double min_value, double max_value,
              int levels, Transform transform, bool integer);

    const std::string &name() const { return name_; }
    double minValue() const { return min_; }
    double maxValue() const { return max_; }
    int levels() const { return levels_; }
    Transform transform() const { return transform_; }
    bool isInteger() const { return integer_; }

    /** True iff the level count depends on the sample size. */
    bool
    sampleSizeLevels() const
    {
        return levels_ == kSampleSizeLevels;
    }

    /**
     * Map a raw value into [0, 1] under the parameter transform.
     * Values outside the range are clamped.
     */
    double toUnit(double raw) const;

    /** Inverse of toUnit(); @p unit outside [0, 1] is clamped. */
    double fromUnit(double unit) const;

    /**
     * Raw value of level @p level out of @p count levels, evenly spaced
     * in transformed space (level 0 = min, level count-1 = max).
     * Integer parameters are rounded; rounding can make adjacent levels
     * collide for dense level counts, which is harmless for sampling.
     */
    double levelValue(int level, int count) const;

    /** Snap @p raw to the nearest of @p count levels. */
    double snapToLevel(double raw, int count) const;

    /**
     * The level count to use for a sample of @p sample_size points:
     * the parameter's own count, or @p sample_size when the count is
     * sample-size dependent.
     */
    int effectiveLevels(int sample_size) const;

    /** Round to integer if the parameter is integral. */
    double quantize(double raw) const;

    /**
     * True iff @p raw lies within the closed interval [min, max].
     * Bounds are inclusive by contract — queries at exactly min or
     * max are valid — and a small tolerance (relative to both the
     * span and the endpoint magnitudes) absorbs round-trip error, so
     * a value a few ulps past an endpoint is not spuriously rejected.
     */
    bool contains(double raw) const;

  private:
    std::string name_;
    double min_;
    double max_;
    int levels_;
    Transform transform_;
    bool integer_;
    /**
     * Log transform only: log2(min) and log2(max) - log2(min), the
     * same values toUnit/fromUnit would compute per call.
     */
    double log2_min_ = 0.0;
    double log2_span_ = 0.0;
};

} // namespace ppm::dspace

#endif // PPM_DSPACE_PARAMETER_HH
