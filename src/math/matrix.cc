#include "math/matrix.hh"

#include <cassert>
#include <cmath>
#include <sstream>

namespace ppm::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        assert(row.size() == cols_ && "ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Vector
Matrix::row(std::size_t r) const
{
    assert(r < rows_);
    return Vector(rowPtr(r), rowPtr(r) + cols_);
}

Vector
Matrix::col(std::size_t c) const
{
    assert(c < cols_);
    Vector out(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        out[r] = (*this)(r, c);
    return out;
}

void
Matrix::setRow(std::size_t r, const Vector &v)
{
    assert(v.size() == cols_);
    for (std::size_t c = 0; c < cols_; ++c)
        (*this)(r, c) = v[c];
}

void
Matrix::setCol(std::size_t c, const Vector &v)
{
    assert(v.size() == rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        (*this)(r, c) = v[r];
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    assert(cols_ == other.rows_);
    Matrix out(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const double *a = rowPtr(r);
        for (std::size_t k = 0; k < cols_; ++k) {
            const double aval = a[k];
            if (aval == 0.0)
                continue;
            const double *b = other.rowPtr(k);
            double *o = out.rowPtr(r);
            for (std::size_t c = 0; c < other.cols_; ++c)
                o[c] += aval * b[c];
        }
    }
    return out;
}

Vector
Matrix::operator*(const Vector &v) const
{
    assert(v.size() == cols_);
    Vector out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        const double *a = rowPtr(r);
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            acc += a[c] * v[c];
        out[r] = acc;
    }
    return out;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

Matrix
Matrix::scaled(double s) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * s;
    return out;
}

Matrix
Matrix::gram() const
{
    Matrix out(cols_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const double *a = rowPtr(r);
        for (std::size_t i = 0; i < cols_; ++i) {
            const double ai = a[i];
            if (ai == 0.0)
                continue;
            double *o = out.rowPtr(i);
            for (std::size_t j = i; j < cols_; ++j)
                o[j] += ai * a[j];
        }
    }
    // Mirror the upper triangle into the lower.
    for (std::size_t i = 0; i < cols_; ++i)
        for (std::size_t j = 0; j < i; ++j)
            out(i, j) = out(j, i);
    return out;
}

Vector
Matrix::transposeTimes(const Vector &y) const
{
    assert(y.size() == rows_);
    Vector out(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        const double *a = rowPtr(r);
        const double yr = y[r];
        for (std::size_t c = 0; c < cols_; ++c)
            out[c] += a[c] * yr;
    }
    return out;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i)
        out(i, i) = 1.0;
    return out;
}

Matrix
Matrix::fromColumns(const std::vector<Vector> &columns)
{
    if (columns.empty())
        return Matrix();
    const std::size_t rows = columns.front().size();
    Matrix out(rows, columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
        assert(columns[c].size() == rows && "ragged columns");
        out.setCol(c, columns[c]);
    }
    return out;
}

std::string
Matrix::toString() const
{
    std::ostringstream os;
    os << rows_ << "x" << cols_ << " [";
    for (std::size_t r = 0; r < rows_; ++r) {
        os << (r ? "; " : "");
        for (std::size_t c = 0; c < cols_; ++c)
            os << (c ? " " : "") << (*this)(r, c);
    }
    os << "]";
    return os.str();
}

double
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
norm(const Vector &v)
{
    return std::sqrt(dot(v, v));
}

Vector
subtract(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

Vector
add(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

Vector
scale(const Vector &v, double s)
{
    Vector out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = v[i] * s;
    return out;
}

} // namespace ppm::math
