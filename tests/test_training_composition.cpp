/**
 * @file
 * Numerical validation of Table 1: for each stationary choice (Y-stn,
 * X-stn, W-stn), the prescribed dataflows for the forward,
 * backward-data and backward-weight GeMMs of Y = X W must compute the
 * exact same mathematical results — with each matrix stored in the
 * orientation the row prescribes and never re-transposed between
 * passes. Run end-to-end through the sliced MeshSlice functional
 * implementations on a 2x4 mesh.
 */
#include <gtest/gtest.h>

#include "core/functional.hpp"

namespace meshslice {
namespace {

constexpr double kTol = 2e-3;

class Table1Composition : public ::testing::Test
{
  protected:
    static constexpr std::int64_t kM = 64; // tokens
    static constexpr std::int64_t kIn = 96;
    static constexpr std::int64_t kOut = 32;
    static constexpr int kS = 2;
    static constexpr int kB = 2;
    const MeshShape mesh{2, 4};

    Matrix x = Matrix::random(kM, kIn, 1);   // X
    Matrix w = Matrix::random(kIn, kOut, 2); // W
    Matrix dy = Matrix::random(kM, kOut, 3); // Y'

    Matrix y_ref = Matrix::gemm(x, w);
    Matrix dx_ref = Matrix::gemm(dy, w.transpose());
    Matrix dw_ref = Matrix::gemm(x.transpose(), dy);

    /** MeshSlice @p df on @p a and @p b sharded on the mesh. */
    Matrix
    sliced(Dataflow df, const Matrix &a, const Matrix &b) const
    {
        return funcGemm(Algorithm::kMeshSlice, df,
                        DistMatrix::scatter(a, mesh),
                        DistMatrix::scatter(b, mesh), kS, kB)
            .gather();
    }
};

TEST_F(Table1Composition, YStationaryRow)
{
    // Y = OS(X, W); X' = LS(Y', W); W' = RS(X, Y').
    Matrix y = sliced(Dataflow::kOS, x, w);
    EXPECT_TRUE(y.allClose(y_ref, kTol));

    Matrix dx = sliced(Dataflow::kLS, dy, w);
    EXPECT_TRUE(dx.allClose(dx_ref, kTol));

    Matrix dw = sliced(Dataflow::kRS, x, dy);
    EXPECT_TRUE(dw.allClose(dw_ref, kTol));
}

TEST_F(Table1Composition, XStationaryRow)
{
    // W is stored transposed once at initialization (Sec 3.2.1); no
    // further transposes are needed across the three passes.
    Matrix wt = w.transpose();

    // Y = LS(X, W^T).
    Matrix y = sliced(Dataflow::kLS, x, wt);
    EXPECT_TRUE(y.allClose(y_ref, kTol));

    // X' = OS(Y', W^T).
    Matrix dx = sliced(Dataflow::kOS, dy, wt);
    EXPECT_TRUE(dx.allClose(dx_ref, kTol));

    // W'^T = RS(Y', X) — the gradient arrives already transposed,
    // matching the transposed weight storage.
    Matrix dwt = sliced(Dataflow::kRS, dy, x);
    EXPECT_TRUE(dwt.allClose(dw_ref.transpose(), kTol));
}

TEST_F(Table1Composition, WStationaryRow)
{
    // X is stored transposed (the layer's input arrives transposed).
    Matrix xt = x.transpose();

    // Y = RS(X^T, W).
    Matrix y = sliced(Dataflow::kRS, xt, w);
    EXPECT_TRUE(y.allClose(y_ref, kTol));

    // X'^T = LS(W, Y').
    Matrix dxt = sliced(Dataflow::kLS, w, dy);
    EXPECT_TRUE(dxt.allClose(dx_ref.transpose(), kTol));

    // W' = OS(X^T, Y').
    Matrix dw = sliced(Dataflow::kOS, xt, dy);
    EXPECT_TRUE(dw.allClose(dw_ref, kTol));
}

TEST_F(Table1Composition, AllRowsAgreeWithEachOther)
{
    // The three rows are different schedules for the same math: their
    // forward results must agree bit-for-bit-ish.
    Matrix y_os = sliced(Dataflow::kOS, x, w);
    Matrix y_ls = sliced(Dataflow::kLS, x, w.transpose());
    Matrix y_rs = sliced(Dataflow::kRS, x.transpose(), w);
    EXPECT_TRUE(y_os.allClose(y_ls, kTol));
    EXPECT_TRUE(y_os.allClose(y_rs, kTol));
}

TEST_F(Table1Composition, GradientCheckAgainstFiniteDifference)
{
    // Spot-check dW numerically: dL/dW[i,j] with L = sum(Y * dY)
    // equals (X^T dY)[i,j].
    const double eps = 1e-3;
    Matrix dw = sliced(Dataflow::kRS, x, dy);
    for (auto [i, j] :
         {std::pair{0, 0}, {5, 3}, {95, 31}, {17, 12}}) {
        Matrix wp = w;
        wp.at(i, j) += static_cast<float>(eps);
        Matrix wm = w;
        wm.at(i, j) -= static_cast<float>(eps);
        double lp = 0.0, lm = 0.0;
        Matrix yp = Matrix::gemm(x, wp);
        Matrix ym = Matrix::gemm(x, wm);
        for (std::int64_t r = 0; r < kM; ++r)
            for (std::int64_t c = 0; c < kOut; ++c) {
                lp += yp.at(r, c) * dy.at(r, c);
                lm += ym.at(r, c) * dy.at(r, c);
            }
        const double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(fd, dw.at(i, j), 5e-2) << "(" << i << "," << j << ")";
    }
}

} // namespace
} // namespace meshslice
