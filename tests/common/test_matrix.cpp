// Unit tests for the dense matrix and LU solver feeding the MNA engine.

#include "common/matrix.h"

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace xysig {
namespace {

TEST(Matrix, StoresAndRetrieves) {
    Matrix<double> m(2, 3);
    m(0, 0) = 1.0;
    m(1, 2) = -4.5;
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 2), -4.5);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, OutOfRangeAccessIsContractViolation) {
    Matrix<double> m(2, 2);
    EXPECT_THROW((void)m(2, 0), ContractError);
    EXPECT_THROW((void)m(0, 2), ContractError);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
    Matrix<double> m(2, 2);
    m(0, 0) = 1.0;
    m(0, 1) = 2.0;
    m(1, 0) = 3.0;
    m(1, 1) = 4.0;
    const std::vector<double> x = {5.0, 6.0};
    const auto y = m.multiply(x);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 17.0);
    EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(LuSolver, SolvesIdentity) {
    Matrix<double> eye(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        eye(i, i) = 1.0;
    const std::vector<double> b = {1.0, 2.0, 3.0};
    const auto x = solve_linear_system(std::move(eye), b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(LuSolver, SolvesGeneralSystem) {
    // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3
    Matrix<double> a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const auto x = solve_linear_system(std::move(a), {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, PivotingHandlesZeroDiagonal) {
    // Leading zero forces a row swap.
    Matrix<double> a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    const auto x = solve_linear_system(std::move(a), {2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolver, SingularMatrixThrows) {
    Matrix<double> a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW((void)solve_linear_system(std::move(a), {1.0, 2.0}), NumericError);
}

TEST(LuSolver, FactorisesOnceSolvesMany) {
    Matrix<double> a(2, 2);
    a(0, 0) = 4.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const LuSolver<double> lu(std::move(a));
    const auto x1 = lu.solve({5.0, 4.0});
    const auto x2 = lu.solve({9.0, 7.0});
    EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
    EXPECT_NEAR(x1[0] + 3.0 * x1[1], 4.0, 1e-12);
    EXPECT_NEAR(4.0 * x2[0] + x2[1], 9.0, 1e-12);
    EXPECT_NEAR(x2[0] + 3.0 * x2[1], 7.0, 1e-12);
}

TEST(LuSolver, RefactorAndSolveIntoMatchFreshSolver) {
    // Pivoting reorders this system, so the kept permutation is exercised.
    Matrix<double> a(3, 3);
    const double vals[3][3] = {{0.5, 2.0, -1.0}, {3.0, 0.25, 1.5}, {-2.0, 1.0, 4.0}};
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = vals[r][c];
    const std::vector<double> b = {1.0, -2.0, 0.5};
    const auto want = LuSolver<double>(a).solve(b);

    LuSolver<double> lu;
    EXPECT_FALSE(lu.factored());
    Matrix<double> other(3, 3, 1.0);
    for (std::size_t i = 0; i < 3; ++i)
        other(i, i) = 5.0;
    lu.factor(other); // leaves storage of the right size behind
    lu.factor(a);
    ASSERT_TRUE(lu.factored());
    std::vector<double> x = {9.0, 9.0, 9.0};
    lu.solve_into(b, x);
    ASSERT_EQ(x.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                  std::bit_cast<std::uint64_t>(want[i]));
}

TEST(LuSolver, FailedRefactorHoldsNoFactors) {
    Matrix<double> good(2, 2);
    good(0, 0) = 2.0;
    good(1, 1) = 4.0;
    LuSolver<double> lu(good);
    ASSERT_TRUE(lu.factored());
    Matrix<double> singular(2, 2, 1.0);
    EXPECT_THROW(lu.factor(singular), NumericError);
    EXPECT_FALSE(lu.factored());
    lu.factor(good);
    EXPECT_TRUE(lu.factored());
    EXPECT_EQ(lu.solve({2.0, 8.0}), (std::vector<double>{1.0, 2.0}));
}

TEST(Matrix, SameBitsComparesShapeAndRepresentation) {
    Matrix<double> a(2, 2, 1.0);
    Matrix<double> b = a;
    EXPECT_TRUE(a.same_bits(b));
    b(1, 0) = std::nextafter(1.0, 2.0);
    EXPECT_FALSE(a.same_bits(b));
    // Equal as values, different as bits: +0.0 and -0.0 can factorise to
    // zeros of different sign, so the check must tell them apart.
    Matrix<double> pz(1, 1, 0.0);
    Matrix<double> nz(1, 1, -0.0);
    EXPECT_FALSE(pz.same_bits(nz));
    EXPECT_FALSE(Matrix<double>(1, 4).same_bits(Matrix<double>(2, 2)));
    EXPECT_TRUE(Matrix<double>().same_bits(Matrix<double>()));
}

TEST(LuSolver, ComplexSystem) {
    using C = std::complex<double>;
    Matrix<C> a(2, 2);
    a(0, 0) = C(1.0, 1.0);
    a(0, 1) = C(0.0, 0.0);
    a(1, 0) = C(0.0, 0.0);
    a(1, 1) = C(0.0, 2.0);
    const auto x = solve_linear_system(std::move(a), std::vector<C>{C(2.0, 0.0), C(0.0, 4.0)});
    EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
    EXPECT_NEAR(x[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(x[1].imag(), 0.0, 1e-12);
}

TEST(LuSolver, ResidualSmallOnIllConditionedButSolvable) {
    // Hilbert 4x4: ill-conditioned; check the residual, not the solution.
    const std::size_t n = 4;
    Matrix<double> a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = 1.0 / static_cast<double>(i + j + 1);
    Matrix<double> a_copy = a;
    const std::vector<double> b = {1.0, 0.0, 0.0, 1.0};
    const auto x = solve_linear_system(std::move(a), b);
    const auto r = a_copy.multiply(x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(r[i], b[i], 1e-8);
}

TEST(LeastSquares, RecoversLineCoefficients) {
    // y = 2x + 1 sampled exactly: LS must recover [2, 1].
    Matrix<double> a(4, 2);
    std::vector<double> b(4);
    for (std::size_t i = 0; i < 4; ++i) {
        const double x = static_cast<double>(i);
        a(i, 0) = x;
        a(i, 1) = 1.0;
        b[i] = 2.0 * x + 1.0;
    }
    const auto coef = solve_least_squares(a, b);
    EXPECT_NEAR(coef[0], 2.0, 1e-10);
    EXPECT_NEAR(coef[1], 1.0, 1e-10);
}

TEST(LeastSquares, RidgeShrinksCoefficients) {
    Matrix<double> a(3, 1);
    a(0, 0) = 1.0;
    a(1, 0) = 2.0;
    a(2, 0) = 3.0;
    const std::vector<double> b = {2.0, 4.0, 6.0};
    const auto plain = solve_least_squares(a, b);
    const auto ridged = solve_least_squares(a, b, 10.0);
    EXPECT_NEAR(plain[0], 2.0, 1e-10);
    EXPECT_LT(ridged[0], plain[0]);
    EXPECT_GT(ridged[0], 0.0);
}

} // namespace
} // namespace xysig
