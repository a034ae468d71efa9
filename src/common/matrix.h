#ifndef XYSIG_COMMON_MATRIX_H
#define XYSIG_COMMON_MATRIX_H

/// \file matrix.h
/// Dense row-major matrix and LU solver used by the MNA engine.
///
/// The matrices arising from the circuits in this project are small (tens of
/// unknowns), so a dense LU with partial pivoting is both simpler and faster
/// than a sparse solver at this scale. The template parameter supports both
/// double (DC/transient) and std::complex<double> (AC analysis).
///
/// LuSolver can refactorise into its kept storage and solve into a caller
/// buffer, so a Newton loop allocates nothing after its first iteration.
/// Together with Matrix::same_bits this lets the MNA engine keep the factors
/// of the last matrix it factorised and reuse them whenever a newly stamped
/// matrix has exactly the same bits (a linear circuit at a fixed transient
/// step); equal bits in give equal factors out, so the reuse is exact.

#include <complex>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/contracts.h"
#include "common/error.h"

namespace xysig {

/// Dense row-major matrix over T (double or std::complex<double>).
template <typename T>
class Matrix {
public:
    Matrix() = default;

    Matrix(std::size_t rows, std::size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
        XYSIG_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
        XYSIG_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /// Sets every element to value (used to reuse an MNA matrix between
    /// Newton iterations without reallocating).
    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

    /// True when both matrices have the same shape and the same object
    /// representation, element for element. Stricter than ==: +0.0 and -0.0
    /// differ, and a NaN equals a NaN with the same payload. This is the
    /// test under which factors of one matrix are exactly the factors of
    /// the other.
    [[nodiscard]] bool same_bits(const Matrix& other) const noexcept {
        static_assert(std::is_trivially_copyable_v<T>);
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               (data_.empty() ||
                std::memcmp(data_.data(), other.data_.data(),
                            data_.size() * sizeof(T)) == 0);
    }

    /// Row-major element storage (rows() * cols() elements), for inner
    /// loops that check their sizes once up front.
    [[nodiscard]] T* data() noexcept { return data_.data(); }
    [[nodiscard]] const T* data() const noexcept { return data_.data(); }

    /// Matrix-vector product. x.size() must equal cols().
    [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const {
        XYSIG_EXPECTS(x.size() == cols_);
        std::vector<T> y(rows_, T{});
        for (std::size_t r = 0; r < rows_; ++r) {
            T acc{};
            const T* row = &data_[r * cols_];
            for (std::size_t c = 0; c < cols_; ++c)
                acc += row[c] * x[c];
            y[r] = acc;
        }
        return y;
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

namespace detail {
inline double lu_abs(double v) noexcept { return v < 0 ? -v : v; }
inline double lu_abs(const std::complex<double>& v) noexcept { return std::abs(v); }
} // namespace detail

/// LU decomposition with partial pivoting (Doolittle, in-place).
///
/// Factorises a square matrix, then solves any number of right-hand sides.
/// factor() refactorises into the storage kept from the previous call, and
/// solve_into() writes into a caller buffer, so a solver reused across a
/// Newton loop allocates only when the system size changes.
template <typename T>
class LuSolver {
public:
    /// A solver holding no factors; call factor() before solving.
    LuSolver() = default;

    /// Factorises a. Throws NumericError if the matrix is singular to working
    /// precision (pivot magnitude below pivot_tol).
    explicit LuSolver(Matrix<T> a, double pivot_tol = 1e-13) : lu_(std::move(a)) {
        factor_in_place(pivot_tol);
    }

    /// Replaces the held factors with those of a, reusing the kept storage
    /// when the size is unchanged. Throws NumericError if the matrix is
    /// singular to working precision (pivot magnitude below pivot_tol); a
    /// solver that threw holds no factors.
    void factor(const Matrix<T>& a, double pivot_tol = 1e-13) {
        factored_ = false;
        lu_ = a;
        factor_in_place(pivot_tol);
    }

    /// True once factor() has succeeded (and no later call has thrown).
    [[nodiscard]] bool factored() const noexcept { return factored_; }

    /// Solves A x = b for the factorised A into x (resized to n). b.size()
    /// must equal n, and x must not be b.
    void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
        XYSIG_EXPECTS(factored_);
        const std::size_t n = lu_.rows();
        XYSIG_EXPECTS(b.size() == n);
        XYSIG_EXPECTS(&b != &x);
        x.resize(n);
        const T* const m = lu_.data();
        // Apply permutation, then forward substitution (unit lower factor).
        for (std::size_t i = 0; i < n; ++i) {
            const T* const row_i = m + i * n;
            T acc = b[perm_[i]];
            for (std::size_t j = 0; j < i; ++j)
                acc -= row_i[j] * x[j];
            x[i] = acc;
        }
        // Back substitution.
        for (std::size_t ii = n; ii-- > 0;) {
            const T* const row_i = m + ii * n;
            T acc = x[ii];
            for (std::size_t j = ii + 1; j < n; ++j)
                acc -= row_i[j] * x[j];
            x[ii] = acc / row_i[ii];
        }
    }

    /// Solves A x = b for the factorised A. b.size() must equal n.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const {
        std::vector<T> x;
        solve_into(b, x);
        return x;
    }

private:
    /// Factorises lu_ in place; sets factored_ only when every pivot passed.
    void factor_in_place(double pivot_tol) {
        XYSIG_EXPECTS(lu_.rows() == lu_.cols());
        const std::size_t n = lu_.rows();
        perm_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            perm_[i] = i;

        T* const m = lu_.data();
        for (std::size_t k = 0; k < n; ++k) {
            T* const row_k = m + k * n;
            // Partial pivoting: pick the largest magnitude in column k.
            std::size_t pivot_row = k;
            double best = detail::lu_abs(row_k[k]);
            for (std::size_t r = k + 1; r < n; ++r) {
                const double mag = detail::lu_abs(m[r * n + k]);
                if (mag > best) {
                    best = mag;
                    pivot_row = r;
                }
            }
            if (best < pivot_tol)
                throw NumericError("LuSolver: singular matrix (pivot " +
                                   std::to_string(best) + " at column " +
                                   std::to_string(k) + ")");
            if (pivot_row != k) {
                T* const row_p = m + pivot_row * n;
                for (std::size_t c = 0; c < n; ++c)
                    std::swap(row_k[c], row_p[c]);
                std::swap(perm_[k], perm_[pivot_row]);
            }
            const T pivot = row_k[k];
            for (std::size_t r = k + 1; r < n; ++r) {
                T* const row_r = m + r * n;
                const T l_rk = row_r[k] / pivot;
                row_r[k] = l_rk;
                for (std::size_t c = k + 1; c < n; ++c)
                    row_r[c] -= l_rk * row_k[c];
            }
        }
        factored_ = true;
    }

    Matrix<T> lu_;
    std::vector<std::size_t> perm_;
    bool factored_ = false;
};

/// Convenience one-shot solve of A x = b.
template <typename T>
[[nodiscard]] std::vector<T> solve_linear_system(Matrix<T> a, const std::vector<T>& b) {
    return LuSolver<T>(std::move(a)).solve(b);
}

/// Solves the normal equations for least squares: min ||A x - b||_2.
/// Small, dense problems only (used by the regression estimator).
[[nodiscard]] inline std::vector<double> solve_least_squares(const Matrix<double>& a,
                                                             const std::vector<double>& b,
                                                             double ridge = 0.0) {
    XYSIG_EXPECTS(b.size() == a.rows());
    XYSIG_EXPECTS(ridge >= 0.0);
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix<double> ata(n, n);
    std::vector<double> atb(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < m; ++k)
                acc += a(k, i) * a(k, j);
            ata(i, j) = acc;
        }
        ata(i, i) += ridge;
        double acc = 0.0;
        for (std::size_t k = 0; k < m; ++k)
            acc += a(k, i) * b[k];
        atb[i] = acc;
    }
    return solve_linear_system(std::move(ata), atb);
}

} // namespace xysig

#endif // XYSIG_COMMON_MATRIX_H
