#include "model/block_dist.hpp"

#include "core/functional.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** shard-wise: a += b. */
void
distAdd(DistMatrix &a, const DistMatrix &b)
{
    for (int i = 0; i < a.mesh().rows; ++i)
        for (int j = 0; j < a.mesh().cols; ++j)
            a.shardAt(i, j).add(b.shardAt(i, j));
}

/**
 * Per-token layer-norm statistics of a row-sharded, column-sharded
 * activation: accumulate (sum, sum_sq) across each mesh row — the
 * explicit cross-column reduction — and return one RowStats per mesh
 * row (covering that row's token shard).
 */
std::vector<RowStats>
distRowStats(const DistMatrix &x)
{
    std::vector<RowStats> stats;
    for (int i = 0; i < x.mesh().rows; ++i) {
        std::vector<double> sum, sum_sq;
        for (int j = 0; j < x.mesh().cols; ++j)
            accumulateRowSums(x.shardAt(i, j), sum, sum_sq);
        stats.push_back(rowStatsFromSums(sum, sum_sq, x.cols()));
    }
    return stats;
}

/** Apply per-mesh-row stats shard-wise. */
DistMatrix
distLayerNormApply(const DistMatrix &x, const std::vector<RowStats> &stats)
{
    DistMatrix y(x.mesh(), x.rows(), x.cols());
    for (int i = 0; i < x.mesh().rows; ++i)
        for (int j = 0; j < x.mesh().cols; ++j)
            y.shardAt(i, j) = layerNormApply(
                x.shardAt(i, j), stats[static_cast<size_t>(i)]);
    return y;
}

/** Distributed layer-norm backward (two more cross-column sums). */
DistMatrix
distLayerNormBackward(const DistMatrix &x,
                      const std::vector<RowStats> &stats,
                      const DistMatrix &dy)
{
    DistMatrix dx(x.mesh(), x.rows(), x.cols());
    for (int i = 0; i < x.mesh().rows; ++i) {
        const RowStats &st = stats[static_cast<size_t>(i)];
        const std::int64_t local_rows = x.shardRows();
        std::vector<double> r1(static_cast<size_t>(local_rows), 0.0);
        std::vector<double> r2(static_cast<size_t>(local_rows), 0.0);
        for (int j = 0; j < x.mesh().cols; ++j) {
            const Matrix &xs = x.shardAt(i, j);
            const Matrix &ds = dy.shardAt(i, j);
            for (std::int64_t r = 0; r < xs.rows(); ++r) {
                const double mean = st.mean[static_cast<size_t>(r)];
                const double inv = st.invStd[static_cast<size_t>(r)];
                for (std::int64_t c = 0; c < xs.cols(); ++c) {
                    const double xhat = (xs.at(r, c) - mean) * inv;
                    r1[static_cast<size_t>(r)] += ds.at(r, c);
                    r2[static_cast<size_t>(r)] += ds.at(r, c) * xhat;
                }
            }
        }
        for (int j = 0; j < x.mesh().cols; ++j)
            dx.shardAt(i, j) = layerNormBackward(
                x.shardAt(i, j), st, dy.shardAt(i, j), r1, r2, x.cols());
    }
    return dx;
}

/** Per-chip local attention dims under the paper's sharding. */
struct LocalAttn
{
    std::int64_t seqs;
    std::int64_t heads;
};

LocalAttn
localAttn(const BlockDims &dims, const MeshShape &mesh)
{
    if (dims.batch % mesh.rows != 0)
        panic("distBlock: mesh rows %d must divide batch %lld", mesh.rows,
              static_cast<long long>(dims.batch));
    if (dims.heads % mesh.cols != 0)
        panic("distBlock: mesh cols %d must divide heads %lld", mesh.cols,
              static_cast<long long>(dims.heads));
    return LocalAttn{dims.batch / mesh.rows, dims.heads / mesh.cols};
}

/** Y = X W via the MeshSlice OS dataflow (Table 1, forward). */
DistMatrix
fcForward(const DistBlockConfig &cfg, const DistMatrix &x,
          const DistMatrix &w)
{
    return funcGemm(Algorithm::kMeshSlice, Dataflow::kOS, x, w,
                    cfg.sliceCount, cfg.block);
}

/** X' = Y' W^T via the LS dataflow (Table 1, backward data). */
DistMatrix
fcBackwardData(const DistBlockConfig &cfg, const DistMatrix &dy,
               const DistMatrix &w)
{
    return funcGemm(Algorithm::kMeshSlice, Dataflow::kLS, dy, w,
                    cfg.sliceCount, cfg.block);
}

/** W' = X^T Y' via the RS dataflow (Table 1, backward weight). */
DistMatrix
fcBackwardWeight(const DistBlockConfig &cfg, const DistMatrix &x,
                 const DistMatrix &dy)
{
    return funcGemm(Algorithm::kMeshSlice, Dataflow::kRS, x, dy,
                    cfg.sliceCount, cfg.block);
}

} // namespace

DistMatrix
distBlockForward(const BlockDims &dims, const DistBlockConfig &cfg,
                 const DistMatrix &x, const BlockParams &params,
                 DistBlockCache *cache)
{
    const MeshShape mesh = cfg.mesh;
    const LocalAttn attn = localAttn(dims, mesh);
    DistBlockCache local;
    DistBlockCache &cc = cache ? *cache : local;

    DistMatrix wq = DistMatrix::scatter(params.wq, mesh);
    DistMatrix wk = DistMatrix::scatter(params.wk, mesh);
    DistMatrix wv = DistMatrix::scatter(params.wv, mesh);
    DistMatrix wo = DistMatrix::scatter(params.wo, mesh);
    DistMatrix w1 = DistMatrix::scatter(params.w1, mesh);
    DistMatrix w2 = DistMatrix::scatter(params.w2, mesh);

    cc.x = x;
    cc.stats1 = distRowStats(x);
    cc.ln1 = distLayerNormApply(x, cc.stats1);
    cc.q = fcForward(cfg, cc.ln1, wq);
    cc.k = fcForward(cfg, cc.ln1, wk);
    cc.v = fcForward(cfg, cc.ln1, wv);

    // Attention is chip-local: each chip holds whole sequences (batch
    // sharded over rows) and whole heads (sharded over columns).
    cc.ctx = DistMatrix(mesh, x.rows(), x.cols());
    cc.probs.assign(static_cast<size_t>(mesh.chips()), Matrix());
    for (int i = 0; i < mesh.rows; ++i) {
        for (int j = 0; j < mesh.cols; ++j) {
            Matrix probs;
            cc.ctx.shardAt(i, j) = attentionForward(
                attn.seqs, dims.seq, attn.heads, dims.headDim,
                cc.q.shardAt(i, j), cc.k.shardAt(i, j),
                cc.v.shardAt(i, j), &probs);
            cc.probs[static_cast<size_t>(i * mesh.cols + j)] =
                std::move(probs);
        }
    }

    cc.attnOut = fcForward(cfg, cc.ctx, wo);
    cc.h = x;
    distAdd(cc.h, cc.attnOut);
    cc.stats2 = distRowStats(cc.h);
    cc.ln2 = distLayerNormApply(cc.h, cc.stats2);
    cc.f1 = fcForward(cfg, cc.ln2, w1);
    cc.g = DistMatrix(mesh, cc.f1.rows(), cc.f1.cols());
    for (int i = 0; i < mesh.rows; ++i)
        for (int j = 0; j < mesh.cols; ++j)
            cc.g.shardAt(i, j) = geluForward(cc.f1.shardAt(i, j));
    DistMatrix y = cc.h;
    distAdd(y, fcForward(cfg, cc.g, w2));
    return y;
}

BlockGrads
distBlockBackward(const BlockDims &dims, const DistBlockConfig &cfg,
                  const BlockParams &params, const DistBlockCache &cache,
                  const DistMatrix &dy)
{
    const MeshShape mesh = cfg.mesh;
    const LocalAttn attn = localAttn(dims, mesh);

    DistMatrix wq = DistMatrix::scatter(params.wq, mesh);
    DistMatrix wk = DistMatrix::scatter(params.wk, mesh);
    DistMatrix wv = DistMatrix::scatter(params.wv, mesh);
    DistMatrix wo = DistMatrix::scatter(params.wo, mesh);
    DistMatrix w1 = DistMatrix::scatter(params.w1, mesh);
    DistMatrix w2 = DistMatrix::scatter(params.w2, mesh);

    BlockGrads grads;

    // FFN backward.
    grads.dw2 = fcBackwardWeight(cfg, cache.g, dy).gather();
    DistMatrix dg = fcBackwardData(cfg, dy, w2);
    DistMatrix df1(mesh, dg.rows(), dg.cols());
    for (int i = 0; i < mesh.rows; ++i)
        for (int j = 0; j < mesh.cols; ++j)
            df1.shardAt(i, j) = geluBackward(cache.f1.shardAt(i, j),
                                             dg.shardAt(i, j));
    grads.dw1 = fcBackwardWeight(cfg, cache.ln2, df1).gather();
    DistMatrix dln2 = fcBackwardData(cfg, df1, w1);
    DistMatrix dh = dy;
    distAdd(dh, distLayerNormBackward(cache.h, cache.stats2, dln2));

    // Attention backward.
    grads.dwo = fcBackwardWeight(cfg, cache.ctx, dh).gather();
    DistMatrix dctx = fcBackwardData(cfg, dh, wo);
    DistMatrix dq(mesh, dctx.rows(), dctx.cols());
    DistMatrix dk(mesh, dctx.rows(), dctx.cols());
    DistMatrix dv(mesh, dctx.rows(), dctx.cols());
    for (int i = 0; i < mesh.rows; ++i) {
        for (int j = 0; j < mesh.cols; ++j) {
            Matrix dq_s, dk_s, dv_s;
            attentionBackward(
                attn.seqs, dims.seq, attn.heads, dims.headDim,
                cache.q.shardAt(i, j), cache.k.shardAt(i, j),
                cache.v.shardAt(i, j),
                cache.probs[static_cast<size_t>(i * mesh.cols + j)],
                dctx.shardAt(i, j), &dq_s, &dk_s, &dv_s);
            dq.shardAt(i, j) = std::move(dq_s);
            dk.shardAt(i, j) = std::move(dk_s);
            dv.shardAt(i, j) = std::move(dv_s);
        }
    }
    grads.dwq = fcBackwardWeight(cfg, cache.ln1, dq).gather();
    grads.dwk = fcBackwardWeight(cfg, cache.ln1, dk).gather();
    grads.dwv = fcBackwardWeight(cfg, cache.ln1, dv).gather();
    DistMatrix dln1 = fcBackwardData(cfg, dq, wq);
    distAdd(dln1, fcBackwardData(cfg, dk, wk));
    distAdd(dln1, fcBackwardData(cfg, dv, wv));

    DistMatrix dx = dh;
    distAdd(dx, distLayerNormBackward(cache.x, cache.stats1, dln1));
    grads.dx = dx.gather();
    return grads;
}

} // namespace meshslice
