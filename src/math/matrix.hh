/**
 * @file
 * Dense row-major matrix and vector utilities used by the regression
 * machinery (least-squares fits for RBF output weights and the linear
 * baseline model).
 */

#ifndef PPM_MATH_MATRIX_HH
#define PPM_MATH_MATRIX_HH

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace ppm::math {

/** Column/row vector of doubles. */
using Vector = std::vector<double>;

/**
 * Dense row-major matrix of doubles.
 *
 * Small, dependency-free matrix type. The model-building code works with
 * design matrices of at most a few hundred rows and columns, so a simple
 * contiguous row-major layout is both adequate and cache friendly.
 */
class Matrix
{
  public:
    /** Construct an empty 0x0 matrix. */
    Matrix() = default;

    /**
     * Construct a rows x cols matrix.
     *
     * @param rows Number of rows.
     * @param cols Number of columns.
     * @param fill Initial value of every element.
     */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /**
     * Construct from nested initializer lists, e.g.
     * Matrix{{1, 2}, {3, 4}}. All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** Number of rows. */
    std::size_t rows() const { return rows_; }
    /** Number of columns. */
    std::size_t cols() const { return cols_; }
    /** True iff the matrix has zero elements. */
    bool empty() const { return data_.empty(); }

    // Element access is defined in the header so that loops over a
    // matrix inline it (the build has no link-time optimisation).

    /** Element access (unchecked beyond assert). */
    double &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    /** Element access (unchecked beyond assert). */
    double
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Pointer to the first element of row @p r. */
    double *
    rowPtr(std::size_t r)
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }
    /** Pointer to the first element of row @p r. */
    const double *
    rowPtr(std::size_t r) const
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    /** Copy of row @p r as a Vector. */
    Vector row(std::size_t r) const;
    /** Copy of column @p c as a Vector. */
    Vector col(std::size_t c) const;

    /** Set row @p r from @p v; v.size() must equal cols(). */
    void setRow(std::size_t r, const Vector &v);
    /** Set column @p c from @p v; v.size() must equal rows(). */
    void setCol(std::size_t c, const Vector &v);

    /** Return the transpose. */
    Matrix transposed() const;

    /** Matrix product this * other. */
    Matrix operator*(const Matrix &other) const;
    /** Matrix-vector product this * v. */
    Vector operator*(const Vector &v) const;

    /** Elementwise sum; shapes must match. */
    Matrix operator+(const Matrix &other) const;
    /** Elementwise difference; shapes must match. */
    Matrix operator-(const Matrix &other) const;
    /** Scale every element by @p s. */
    Matrix scaled(double s) const;

    /** A^T * A, computed without forming the transpose. */
    Matrix gram() const;
    /** A^T * y for y.size() == rows(). */
    Vector transposeTimes(const Vector &y) const;

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    /**
     * Matrix with the given columns.
     * @param columns Column vectors; all must share one length.
     */
    static Matrix fromColumns(const std::vector<Vector> &columns);

    /** Human-readable rendering for debugging and test failures. */
    std::string toString() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product; sizes must match. */
double dot(const Vector &a, const Vector &b);

/** Euclidean norm. */
double norm(const Vector &v);

/** a - b elementwise; sizes must match. */
Vector subtract(const Vector &a, const Vector &b);

/** a + b elementwise; sizes must match. */
Vector add(const Vector &a, const Vector &b);

/** v scaled by s. */
Vector scale(const Vector &v, double s);

} // namespace ppm::math

#endif // PPM_MATH_MATRIX_HH
