/**
 * @file
 * Numerical verification of every distributed GeMM algorithm against a
 * dense reference, swept over mesh shapes, dataflows and slice counts
 * with parameterized tests — the repository's ground truth that the
 * MeshSlice algorithm (and each baseline) computes the right answer.
 */
#include <gtest/gtest.h>

#include "core/functional.hpp"
#include "gemm/slicing.hpp"

namespace meshslice {
namespace {

constexpr double kTol = 2e-3; // float accumulation-order slack

/** `funcGemm` on @p a and @p b sharded on @p mesh, gathered. */
Matrix
runGathered(Algorithm algo, Dataflow df, const Matrix &a, const Matrix &b,
            MeshShape mesh, int s_count = 1, int block = 1)
{
    return funcGemm(algo, df, DistMatrix::scatter(a, mesh),
                    DistMatrix::scatter(b, mesh), s_count, block)
        .gather();
}

struct FuncCase
{
    int meshRows;
    int meshCols;
    int sliceCount;
    int block;
};

std::string
caseName(const ::testing::TestParamInfo<FuncCase> &info)
{
    const FuncCase &c = info.param;
    return "mesh" + std::to_string(c.meshRows) + "x" +
           std::to_string(c.meshCols) + "_S" +
           std::to_string(c.sliceCount) + "_B" + std::to_string(c.block);
}

class FunctionalGemm : public ::testing::TestWithParam<FuncCase>
{
  protected:
    // Global dims chosen so every swept mesh/S/B divides evenly in
    // every dataflow (the sliced dim is K for OS, N for LS, M for RS).
    static constexpr std::int64_t kM = 96;
    static constexpr std::int64_t kK = 96;
    static constexpr std::int64_t kN = 96;
};

TEST_P(FunctionalGemm, MeshSliceOSMatchesReference)
{
    const FuncCase &p = GetParam();
    MeshShape mesh{p.meshRows, p.meshCols};
    Matrix a = Matrix::random(kM, kK, 1);
    Matrix b = Matrix::random(kK, kN, 2);
    Matrix ref = Matrix::gemm(a, b);
    const Matrix c = runGathered(Algorithm::kMeshSlice, Dataflow::kOS, a,
                                 b, mesh, p.sliceCount, p.block);
    EXPECT_TRUE(c.allClose(ref, kTol)) << "max diff " << c.maxAbsDiff(ref);
}

TEST_P(FunctionalGemm, MeshSliceLSMatchesReference)
{
    const FuncCase &p = GetParam();
    MeshShape mesh{p.meshRows, p.meshCols};
    Matrix a = Matrix::random(kM, kK, 3);
    Matrix b = Matrix::random(kN, kK, 4); // B is N x K; C = A B^T
    Matrix ref = Matrix::gemm(a, b.transpose());
    const Matrix c = runGathered(Algorithm::kMeshSlice, Dataflow::kLS, a,
                                 b, mesh, p.sliceCount, p.block);
    EXPECT_TRUE(c.allClose(ref, kTol)) << "max diff " << c.maxAbsDiff(ref);
}

TEST_P(FunctionalGemm, MeshSliceRSMatchesReference)
{
    const FuncCase &p = GetParam();
    MeshShape mesh{p.meshRows, p.meshCols};
    Matrix a = Matrix::random(kK, kM, 5); // A is K x M; C = A^T B
    Matrix b = Matrix::random(kK, kN, 6);
    Matrix ref = Matrix::gemm(a.transpose(), b);
    const Matrix c = runGathered(Algorithm::kMeshSlice, Dataflow::kRS, a,
                                 b, mesh, p.sliceCount, p.block);
    EXPECT_TRUE(c.allClose(ref, kTol)) << "max diff " << c.maxAbsDiff(ref);
}

TEST_P(FunctionalGemm, CollectiveAgreesWithMeshSlice)
{
    // Collective 2D GeMM is the S=1 special case; both must agree with
    // each other (and the reference) on all dataflows.
    const FuncCase &p = GetParam();
    MeshShape mesh{p.meshRows, p.meshCols};
    Matrix a = Matrix::random(kM, kK, 7);
    Matrix b = Matrix::random(kK, kN, 8);
    Matrix collective =
        runGathered(Algorithm::kCollective, Dataflow::kOS, a, b, mesh);
    Matrix meshslice = runGathered(Algorithm::kMeshSlice, Dataflow::kOS, a,
                                   b, mesh, p.sliceCount, p.block);
    EXPECT_TRUE(collective.allClose(meshslice, kTol));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalGemm,
    ::testing::Values(FuncCase{1, 1, 1, 8}, FuncCase{2, 2, 2, 4},
                      FuncCase{2, 4, 2, 2}, FuncCase{4, 2, 3, 2},
                      FuncCase{4, 4, 2, 2}, FuncCase{2, 2, 6, 2},
                      FuncCase{1, 4, 4, 2}, FuncCase{4, 1, 4, 2},
                      FuncCase{2, 2, 1, 8}, FuncCase{8, 2, 2, 1},
                      FuncCase{2, 8, 3, 1}, FuncCase{3, 2, 2, 2}),
    caseName);

// ------------------------------------------------------------------
// Baseline algorithms
// ------------------------------------------------------------------

struct BaselineCase
{
    int meshRows;
    int meshCols;
};

class BaselineGemm : public ::testing::TestWithParam<BaselineCase>
{
  protected:
    static constexpr std::int64_t kM = 48;
    static constexpr std::int64_t kK = 96;
    static constexpr std::int64_t kN = 48;
};

TEST_P(BaselineGemm, CollectiveOSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 11);
    Matrix b = Matrix::random(kK, kN, 12);
    Matrix ref = Matrix::gemm(a, b);
    Matrix got = runGathered(Algorithm::kCollective, Dataflow::kOS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, CollectiveLSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 13);
    Matrix b = Matrix::random(kN, kK, 14);
    Matrix ref = Matrix::gemm(a, b.transpose());
    Matrix got = runGathered(Algorithm::kCollective, Dataflow::kLS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, CollectiveRSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kK, kM, 15);
    Matrix b = Matrix::random(kK, kN, 16);
    Matrix ref = Matrix::gemm(a.transpose(), b);
    Matrix got = runGathered(Algorithm::kCollective, Dataflow::kRS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, SummaOSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 17);
    Matrix b = Matrix::random(kK, kN, 18);
    Matrix ref = Matrix::gemm(a, b);
    Matrix got = runGathered(Algorithm::kSumma, Dataflow::kOS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, SummaLSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 19);
    Matrix b = Matrix::random(kN, kK, 20);
    Matrix ref = Matrix::gemm(a, b.transpose());
    Matrix got = runGathered(Algorithm::kSumma, Dataflow::kLS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, SummaRSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kK, kM, 21);
    Matrix b = Matrix::random(kK, kN, 22);
    Matrix ref = Matrix::gemm(a.transpose(), b);
    Matrix got = runGathered(Algorithm::kSumma, Dataflow::kRS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, WangOSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 23);
    Matrix b = Matrix::random(kK, kN, 24);
    Matrix ref = Matrix::gemm(a, b);
    Matrix got = runGathered(Algorithm::kWang, Dataflow::kOS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, WangLSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kM, kK, 25);
    Matrix b = Matrix::random(kN, kK, 26);
    Matrix ref = Matrix::gemm(a, b.transpose());
    Matrix got = runGathered(Algorithm::kWang, Dataflow::kLS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

TEST_P(BaselineGemm, WangRSMatchesReference)
{
    MeshShape mesh{GetParam().meshRows, GetParam().meshCols};
    Matrix a = Matrix::random(kK, kM, 27);
    Matrix b = Matrix::random(kK, kN, 28);
    Matrix ref = Matrix::gemm(a.transpose(), b);
    Matrix got = runGathered(Algorithm::kWang, Dataflow::kRS, a, b, mesh);
    EXPECT_TRUE(got.allClose(ref, kTol));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineGemm,
    ::testing::Values(BaselineCase{1, 1}, BaselineCase{2, 2},
                      BaselineCase{2, 4}, BaselineCase{4, 2},
                      BaselineCase{4, 4}, BaselineCase{1, 8},
                      BaselineCase{8, 1}, BaselineCase{3, 4},
                      BaselineCase{6, 2}),
    [](const ::testing::TestParamInfo<BaselineCase> &info) {
        return "mesh" + std::to_string(info.param.meshRows) + "x" +
               std::to_string(info.param.meshCols);
    });

TEST(CannonGemm, MatchesReferenceOnSquareMeshes)
{
    for (int p : {1, 2, 3, 4, 6}) {
        MeshShape mesh{p, p};
        Matrix a = Matrix::random(48, 96, 31);
        Matrix b = Matrix::random(96, 48, 32);
        Matrix ref = Matrix::gemm(a, b);
        Matrix got =
            runGathered(Algorithm::kCannon, Dataflow::kOS, a, b, mesh);
        EXPECT_TRUE(got.allClose(ref, kTol)) << "P=" << p;
    }
}

TEST(CannonGemmDeath, RejectsNonSquareMesh)
{
    MeshShape mesh{2, 4};
    Matrix a = Matrix::random(16, 16, 1);
    Matrix b = Matrix::random(16, 16, 2);
    EXPECT_DEATH(runGathered(Algorithm::kCannon, Dataflow::kOS, a, b, mesh),
                 "square");
}

TEST(TwoPointFiveD, MatchesReferenceAcrossDepths)
{
    // The functional 2.5D algorithm must compute the exact product for
    // every depth dividing the base dimension (depth 1 == Cannon).
    for (int p : {2, 4}) {
        for (int depth : {1, 2, p}) {
            if (p % depth != 0)
                continue;
            MeshShape mesh{p, p};
            Matrix a = Matrix::random(32, 64, 61);
            Matrix b = Matrix::random(64, 32, 62);
            Matrix ref = Matrix::gemm(a, b);
            Matrix got = func25DGemm(DistMatrix::scatter(a, mesh),
                                     DistMatrix::scatter(b, mesh), depth)
                             .gather();
            EXPECT_TRUE(got.allClose(ref, kTol))
                << "P=" << p << " depth=" << depth;
        }
    }
}

TEST(TwoPointFiveDDeath, RejectsBadDepth)
{
    MeshShape mesh{4, 4};
    Matrix a = Matrix::random(16, 16, 1);
    Matrix b = Matrix::random(16, 16, 2);
    EXPECT_DEATH(func25DGemm(DistMatrix::scatter(a, mesh),
                             DistMatrix::scatter(b, mesh), 3),
                 "divide");
}

TEST(OneDBaselines, OneDTPMatchesReference)
{
    // 1D TP is Collective OS on a 1 x P ring: X all-gathered, W and Y
    // column-sharded.
    for (int chips : {1, 2, 4, 8}) {
        Matrix x = Matrix::random(32, 24, 41);
        Matrix w = Matrix::random(24, 16, 42);
        Matrix ref = Matrix::gemm(x, w);
        Matrix got = runGathered(Algorithm::kCollective, Dataflow::kOS, x,
                                 w, MeshShape{1, chips});
        EXPECT_TRUE(got.allClose(ref, kTol)) << "chips=" << chips;
    }
}

TEST(OneDBaselines, FsdpMatchesReference)
{
    // FSDP is Collective OS on a P x 1 ring: X and Y row-sharded (the
    // data), W all-gathered.
    for (int chips : {1, 2, 4, 8}) {
        Matrix x = Matrix::random(32, 24, 43);
        Matrix w = Matrix::random(24, 16, 44);
        Matrix ref = Matrix::gemm(x, w);
        Matrix got = runGathered(Algorithm::kCollective, Dataflow::kOS, x,
                                 w, MeshShape{chips, 1});
        EXPECT_TRUE(got.allClose(ref, kTol)) << "chips=" << chips;
    }
}

TEST(DistMatrixTest, ScatterGatherRoundTrip)
{
    Matrix m = Matrix::random(24, 36, 50);
    for (auto [r, c] : {std::pair{1, 1}, {2, 3}, {4, 6}, {3, 2}}) {
        DistMatrix d = DistMatrix::scatter(m, MeshShape{r, c});
        EXPECT_TRUE(d.gather().allClose(m, 0.0));
        EXPECT_EQ(d.shardRows(), 24 / r);
        EXPECT_EQ(d.shardCols(), 36 / c);
    }
}

TEST(FunctionalCrossCheck, AllDataflowsComputeSameLogicalGemm)
{
    // Y = X W computed through OS, LS (W stored transposed) and RS (X
    // stored transposed) must all match — the Table 1 equivalence the
    // autotuner's dataflow selection relies on.
    MeshShape mesh{2, 4};
    const std::int64_t m = 32, k = 48, n = 64;
    Matrix x = Matrix::random(m, k, 60);
    Matrix w = Matrix::random(k, n, 61);
    Matrix ref = Matrix::gemm(x, w);

    Matrix y_os =
        runGathered(Algorithm::kMeshSlice, Dataflow::kOS, x, w, mesh, 2, 2);
    // LS: Y = LS(X, W^T) where the right operand is stored N x K.
    Matrix y_ls = runGathered(Algorithm::kMeshSlice, Dataflow::kLS, x,
                              w.transpose(), mesh, 2, 2);
    // RS: Y = RS(X^T, W) where the left operand is stored K x M.
    Matrix y_rs = runGathered(Algorithm::kMeshSlice, Dataflow::kRS,
                              x.transpose(), w, mesh, 2, 2);
    EXPECT_TRUE(y_os.allClose(ref, kTol));
    EXPECT_TRUE(y_ls.allClose(ref, kTol));
    EXPECT_TRUE(y_rs.allClose(ref, kTol));
}

} // namespace
} // namespace meshslice
