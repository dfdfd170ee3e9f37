#include "gemm/reshard.hpp"

#include <algorithm>
#include <unordered_map>

#include "hw/chip_config.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Torus degree: each chip sources/sinks re-shard traffic over its
 *  four ICI links in parallel (first-order aggregate bandwidth). */
constexpr int kTorusLinksPerChip = 4;

} // namespace

MeshShape
SurvivorMesh::to() const
{
    validate();
    if (failedRow >= 0)
        return MeshShape{from.rows - 1, from.cols};
    return MeshShape{from.rows, from.cols - 1};
}

std::pair<int, int>
SurvivorMesh::oldCoord(int p, int q) const
{
    const int r = (failedRow >= 0 && p >= failedRow) ? p + 1 : p;
    const int c = (failedCol >= 0 && q >= failedCol) ? q + 1 : q;
    return {r, c};
}

int
SurvivorMesh::oldChipAt(int p, int q) const
{
    auto [r, c] = oldCoord(p, q);
    return r * from.cols + c;
}

void
SurvivorMesh::validate() const
{
    if (from.rows < 1 || from.cols < 1)
        fatal("SurvivorMesh: original mesh %dx%d is empty", from.rows,
              from.cols);
    const bool row_mode = failedRow >= 0;
    const bool col_mode = failedCol >= 0;
    if (row_mode == col_mode)
        fatal("SurvivorMesh: exactly one of failedRow (%d) / failedCol "
              "(%d) must be set — a fail-stop retires one row or one "
              "column of the mesh, never both", failedRow, failedCol);
    if (row_mode && failedRow >= from.rows)
        fatal("SurvivorMesh: failedRow %d out of range for a %dx%d mesh",
              failedRow, from.rows, from.cols);
    if (col_mode && failedCol >= from.cols)
        fatal("SurvivorMesh: failedCol %d out of range for a %dx%d mesh",
              failedCol, from.rows, from.cols);
    if (row_mode && from.rows < 2)
        fatal("SurvivorMesh: cannot retire a row of a %dx%d mesh — no "
              "survivors would remain", from.rows, from.cols);
    if (col_mode && from.cols < 2)
        fatal("SurvivorMesh: cannot retire a column of a %dx%d mesh — "
              "no survivors would remain", from.rows, from.cols);
}

std::vector<SurvivorMesh>
survivorOptionsForChip(MeshShape from, int dead_chip)
{
    if (from.rows < 1 || from.cols < 1)
        fatal("survivorOptionsForChip: mesh %dx%d is empty", from.rows,
              from.cols);
    if (dead_chip < 0 || dead_chip >= from.chips())
        fatal("survivorOptionsForChip: chip %d outside the %dx%d mesh",
              dead_chip, from.rows, from.cols);
    const int dead_row = dead_chip / from.cols;
    const int dead_col = dead_chip % from.cols;
    std::vector<SurvivorMesh> options;
    if (from.rows >= 2)
        options.push_back(SurvivorMesh{from, dead_row, -1});
    if (from.cols >= 2)
        options.push_back(SurvivorMesh{from, -1, dead_col});
    if (options.empty())
        fatal("survivorOptionsForChip: a 1x1 mesh has no survivor "
              "option after chip %d dies", dead_chip);
    return options;
}

std::vector<int>
oldToNewChipMap(const SurvivorMesh &sv)
{
    sv.validate();
    const MeshShape to = sv.to();
    std::vector<int> map(static_cast<size_t>(sv.from.chips()), -1);
    for (int p = 0; p < to.rows; ++p)
        for (int q = 0; q < to.cols; ++q)
            map[static_cast<size_t>(sv.oldChipAt(p, q))] =
                p * to.cols + q;
    return map;
}

ReshardPlan
planReshard(std::int64_t rows, std::int64_t cols, int bytes_per_element,
            const SurvivorMesh &sv)
{
    sv.validate();
    const MeshShape to = sv.to();
    if (rows <= 0 || cols <= 0 || bytes_per_element <= 0)
        fatal("planReshard: matrix %lldx%lld with %d-byte elements is "
              "not re-shardable", static_cast<long long>(rows),
              static_cast<long long>(cols), bytes_per_element);
    if (rows % sv.from.rows != 0 || cols % sv.from.cols != 0 ||
        rows % to.rows != 0 || cols % to.cols != 0)
        fatal("planReshard: %lldx%lld must divide evenly by both the "
              "%dx%d source mesh and the %dx%d survivor mesh",
              static_cast<long long>(rows), static_cast<long long>(cols),
              sv.from.rows, sv.from.cols, to.rows, to.cols);

    const std::int64_t nr1 = rows / sv.from.rows; // old shard rows
    const std::int64_t nc1 = cols / sv.from.cols;
    const std::int64_t nr2 = rows / to.rows; // new shard rows
    const std::int64_t nc2 = cols / to.cols;

    ReshardPlan plan;
    plan.from = sv.from;
    plan.to = to;
    std::unordered_map<int, Bytes> ingress;
    std::unordered_map<int, Bytes> egress;

    // Destination-major enumeration of region overlaps: new shard
    // (p, q) covers global rows [p*nr2, (p+1)*nr2) x cols
    // [q*nc2, (q+1)*nc2); every old shard it intersects contributes
    // one (src -> dst) block movement.
    for (int p = 0; p < to.rows; ++p) {
        for (int q = 0; q < to.cols; ++q) {
            const int dst_chip = sv.oldChipAt(p, q);
            const std::int64_t r_lo = p * nr2;
            const std::int64_t r_hi = (p + 1) * nr2;
            const std::int64_t c_lo = q * nc2;
            const std::int64_t c_hi = (q + 1) * nc2;
            for (std::int64_t i = r_lo / nr1; i * nr1 < r_hi; ++i) {
                const std::int64_t orows =
                    std::min(r_hi, (i + 1) * nr1) - std::max(r_lo, i * nr1);
                for (std::int64_t j = c_lo / nc1; j * nc1 < c_hi; ++j) {
                    const std::int64_t ocols =
                        std::min(c_hi, (j + 1) * nc1) -
                        std::max(c_lo, j * nc1);
                    const Bytes bytes = orows * ocols * bytes_per_element;
                    const int src_chip =
                        static_cast<int>(i) * sv.from.cols +
                        static_cast<int>(j);
                    if (src_chip == dst_chip) {
                        plan.localBytes += bytes;
                        continue;
                    }
                    plan.moves.push_back(
                        ReshardMove{src_chip, dst_chip, bytes});
                    plan.totalBytes += bytes;
                    ingress[dst_chip] += bytes;
                    egress[src_chip] += bytes;
                }
            }
        }
    }
    for (const auto &[chip, bytes] : ingress)
        plan.maxChipIngress = std::max(plan.maxChipIngress, bytes);
    for (const auto &[chip, bytes] : egress)
        plan.maxChipEgress = std::max(plan.maxChipEgress, bytes);
    return plan;
}

DistMatrix
reshard(const DistMatrix &m, const SurvivorMesh &sv)
{
    sv.validate();
    if (!(m.mesh() == sv.from))
        fatal("reshard: matrix is sharded over a %dx%d mesh but the "
              "survivor description starts from %dx%d", m.mesh().rows,
              m.mesh().cols, sv.from.rows, sv.from.cols);
    const MeshShape to = sv.to();
    if (m.rows() % to.rows != 0 || m.cols() % to.cols != 0)
        fatal("reshard: %lldx%lld does not divide evenly over the %dx%d "
              "survivor mesh", static_cast<long long>(m.rows()),
              static_cast<long long>(m.cols()), to.rows, to.cols);

    DistMatrix out(to, m.rows(), m.cols());
    // Each new shard row is read from the old layout in contiguous
    // runs that end at the old shard boundaries: a pure copy, so
    // bit-exact and independent of how block movements are batched.
    out.forEachShardRow([&](std::int64_t r, std::int64_t c0, float *row,
                            std::int64_t count) {
        m.readRow(r, c0, count, row);
    });
    return out;
}

double
reshardBytesModel(double total_bytes, const SurvivorMesh &sv)
{
    sv.validate();
    const MeshShape to = sv.to();
    // Same-owner fraction factorizes over the two axes because row and
    // column ownership are independent. Along an axis split into N old
    // and M new strips, floor(x*N) and floor(x*M) are constant on each
    // elementary interval [k, k+1) / (N*M), so an exact integer count
    // replaces the integral.
    auto same_fraction = [](int n_old, int n_new, int failed) {
        if (failed < 0) {
            // Axis untouched: owners renumber identically.
            return 1.0;
        }
        std::int64_t same = 0;
        const std::int64_t cells =
            static_cast<std::int64_t>(n_old) * n_new;
        for (std::int64_t k = 0; k < cells; ++k) {
            const int old_strip = static_cast<int>(k / n_new);
            const int new_strip = static_cast<int>(k / n_old);
            const int mapped =
                new_strip >= failed ? new_strip + 1 : new_strip;
            if (mapped == old_strip)
                ++same;
        }
        return static_cast<double>(same) / static_cast<double>(cells);
    };
    const double row_same =
        same_fraction(sv.from.rows, to.rows, sv.failedRow);
    const double col_same =
        same_fraction(sv.from.cols, to.cols, sv.failedCol);
    return total_bytes * (1.0 - row_same * col_same);
}

RemapPlan
planRemap(std::int64_t rows, std::int64_t cols, int bytes_per_element,
          MeshShape from, MeshShape to)
{
    if (from.rows < 1 || from.cols < 1 || to.rows < 1 || to.cols < 1)
        fatal("planRemap: mesh shapes %dx%d -> %dx%d must be non-empty",
              from.rows, from.cols, to.rows, to.cols);
    if (rows <= 0 || cols <= 0 || bytes_per_element <= 0)
        fatal("planRemap: tensor %lldx%lld with %d-byte elements is not "
              "remappable", static_cast<long long>(rows),
              static_cast<long long>(cols), bytes_per_element);
    if (rows % from.rows != 0 || cols % from.cols != 0 ||
        rows % to.rows != 0 || cols % to.cols != 0)
        fatal("planRemap: %lldx%lld must divide evenly by both the %dx%d "
              "producer mesh and the %dx%d consumer mesh",
              static_cast<long long>(rows), static_cast<long long>(cols),
              from.rows, from.cols, to.rows, to.cols);

    const std::int64_t nr1 = rows / from.rows; // producer shard rows
    const std::int64_t nc1 = cols / from.cols;
    const std::int64_t nr2 = rows / to.rows; // consumer shard rows
    const std::int64_t nc2 = cols / to.cols;

    RemapPlan plan;
    plan.from = from;
    plan.to = to;
    std::unordered_map<int, Bytes> ingress;
    std::unordered_map<int, Bytes> egress;

    for (int p = 0; p < to.rows; ++p) {
        for (int q = 0; q < to.cols; ++q) {
            const std::int64_t r_lo = p * nr2;
            const std::int64_t r_hi = (p + 1) * nr2;
            const std::int64_t c_lo = q * nc2;
            const std::int64_t c_hi = (q + 1) * nc2;
            for (std::int64_t i = r_lo / nr1; i * nr1 < r_hi; ++i) {
                const std::int64_t orows =
                    std::min(r_hi, (i + 1) * nr1) - std::max(r_lo, i * nr1);
                for (std::int64_t j = c_lo / nc1; j * nc1 < c_hi; ++j) {
                    const std::int64_t ocols =
                        std::min(c_hi, (j + 1) * nc1) -
                        std::max(c_lo, j * nc1);
                    const Bytes bytes = orows * ocols * bytes_per_element;
                    RemapMove move;
                    move.srcRow = static_cast<int>(i);
                    move.srcCol = static_cast<int>(j);
                    move.dstRow = p;
                    move.dstCol = q;
                    move.bytes = bytes;
                    move.matched =
                        move.srcRow == p && move.srcCol == q;
                    plan.totalBytes += bytes;
                    if (move.matched)
                        plan.matchedBytes += bytes;
                    else
                        plan.movedBytes += bytes;
                    ingress[p * to.cols + q] += bytes;
                    egress[static_cast<int>(i) * from.cols +
                           static_cast<int>(j)] += bytes;
                    plan.moves.push_back(move);
                }
            }
        }
    }
    for (const auto &[chip, bytes] : ingress)
        plan.maxChipIngress = std::max(plan.maxChipIngress, bytes);
    for (const auto &[chip, bytes] : egress)
        plan.maxChipEgress = std::max(plan.maxChipEgress, bytes);
    return plan;
}

double
remapBytesModel(double total_bytes, MeshShape from, MeshShape to)
{
    if (from.rows < 1 || from.cols < 1 || to.rows < 1 || to.cols < 1)
        fatal("remapBytesModel: mesh shapes %dx%d -> %dx%d must be "
              "non-empty", from.rows, from.cols, to.rows, to.cols);
    if (total_bytes < 0.0)
        fatal("remapBytesModel: total bytes must be >= 0 (got %g)",
              total_bytes);
    // Same-position fraction factorizes over the axes; along one axis
    // split into N producer and M consumer strips, floor(x*N) and
    // floor(x*M) are constant on each elementary interval of length
    // 1 / (N*M), so an exact integer count replaces the integral.
    auto same_fraction = [](int n_from, int n_to) {
        std::int64_t same = 0;
        const std::int64_t cells =
            static_cast<std::int64_t>(n_from) * n_to;
        for (std::int64_t k = 0; k < cells; ++k)
            if (k / n_to == k / n_from)
                ++same;
        return static_cast<double>(same) / static_cast<double>(cells);
    };
    const double row_same = same_fraction(from.rows, to.rows);
    const double col_same = same_fraction(from.cols, to.cols);
    return total_bytes * (1.0 - row_same * col_same);
}

Time
reshardTime(const ChipConfig &cfg, const ReshardPlan &plan)
{
    const Bytes bottleneck =
        std::max(plan.maxChipIngress, plan.maxChipEgress);
    return cfg.launchOverhead +
           static_cast<double>(bottleneck) / reshardChipRate(cfg) +
           cfg.syncLatency;
}

Time
reshardTimeModel(const ChipConfig &cfg, double moved_bytes,
                 int survivor_chips)
{
    if (survivor_chips < 1)
        fatal("reshardTimeModel: need at least one survivor chip (got %d)",
              survivor_chips);
    if (moved_bytes < 0.0)
        fatal("reshardTimeModel: moved bytes must be >= 0 (got %g)",
              moved_bytes);
    return cfg.launchOverhead +
           moved_bytes / static_cast<double>(survivor_chips) /
               reshardChipRate(cfg) +
           cfg.syncLatency;
}

std::vector<ReshardChipTraffic>
reshardChipTraffic(const ReshardPlan &plan)
{
    std::unordered_map<int, ReshardChipTraffic> by_chip;
    auto slot = [&by_chip](int chip) -> ReshardChipTraffic & {
        ReshardChipTraffic &t = by_chip[chip];
        t.chip = chip;
        return t;
    };
    for (const ReshardMove &mv : plan.moves) {
        slot(mv.srcChip).egress += mv.bytes;
        slot(mv.dstChip).ingress += mv.bytes;
    }
    std::vector<ReshardChipTraffic> out;
    out.reserve(by_chip.size());
    for (const auto &kv : by_chip)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const ReshardChipTraffic &a, const ReshardChipTraffic &b) {
                  return a.chip < b.chip;
              });
    return out;
}

Rate
reshardChipRate(const ChipConfig &cfg)
{
    return kTorusLinksPerChip * cfg.iciLinkBandwidth /
           cfg.logicalMeshContention;
}

} // namespace meshslice
