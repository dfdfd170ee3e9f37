#include "gemm/reshard.hpp"

#include <algorithm>

#include "hw/chip_config.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Torus degree: each chip sources/sinks re-shard traffic over its
 *  four ICI links in parallel (first-order aggregate bandwidth). */
constexpr int kTorusLinksPerChip = 4;

/**
 * The one block-overlap walk of a layout change: a (rows x cols)
 * matrix cut into equal blocks over a `from`-shaped mesh, re-cut over
 * a `to`-shaped one. Destination-major: new block (p, q) in row-major
 * order, then every old block (i, j) it intersects in row-major order,
 * each visited as visit(i, j, p, q, bytes) with the overlap's bytes.
 * The caller has checked that the dimensions divide both meshes.
 */
template <typename Visit>
void
forEachBlockOverlap(std::int64_t rows, std::int64_t cols,
                    int bytes_per_element, MeshShape from, MeshShape to,
                    Visit &&visit)
{
    const std::int64_t nr1 = rows / from.rows; // old block rows
    const std::int64_t nc1 = cols / from.cols;
    const std::int64_t nr2 = rows / to.rows; // new block rows
    const std::int64_t nc2 = cols / to.cols;
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
                    visit(static_cast<int>(i), static_cast<int>(j), p, q,
                          orows * ocols * bytes_per_element);
                }
            }
        }
    }
}

/**
 * The one strip count of a layout change, per axis: the fraction of an
 * axis cut into @p n_old old and @p n_new new equal strips whose owner
 * stays. New strip s lies on old strip s, or on s + 1 at or past the
 * @p retired line (negative: no line retired). floor(x * n_old) and
 * floor(x * n_new) are constant on each elementary interval
 * [c, c + 1) / (n_old * n_new), so an exact integer count replaces the
 * integral.
 */
double
sameOwnerFraction(int n_old, int n_new, int retired)
{
    std::int64_t same = 0;
    const std::int64_t cells = static_cast<std::int64_t>(n_old) * n_new;
    for (std::int64_t c = 0; c < cells; ++c) {
        const std::int64_t s = c / n_old; // new strip
        const std::int64_t owner = retired >= 0 && s >= retired ? s + 1 : s;
        if (owner == c / n_new)
            ++same;
    }
    return static_cast<double>(same) / static_cast<double>(cells);
}

/** @p total_bytes times the measure of the unit square whose owner
 *  changes: row and column ownership are independent, so the
 *  same-owner fraction factorizes over the two axes. */
double
movedBytesModel(double total_bytes, MeshShape from, MeshShape to,
                int retired_row, int retired_col)
{
    const double row_same =
        sameOwnerFraction(from.rows, to.rows, retired_row);
    const double col_same =
        sameOwnerFraction(from.cols, to.cols, retired_col);
    return total_bytes * (1.0 - row_same * col_same);
}

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
planReshard(const std::vector<std::pair<std::int64_t, std::int64_t>> &matrices,
            int bytes_per_element, const SurvivorMesh &sv)
{
    sv.validate();
    const MeshShape to = sv.to();
    for (const auto &[rows, cols] : matrices) {
        if (rows <= 0 || cols <= 0 || bytes_per_element <= 0)
            fatal("planReshard: matrix %lldx%lld with %d-byte elements is "
                  "not re-shardable", static_cast<long long>(rows),
                  static_cast<long long>(cols), bytes_per_element);
        if (rows % sv.from.rows != 0 || cols % sv.from.cols != 0 ||
            rows % to.rows != 0 || cols % to.cols != 0)
            fatal("planReshard: %lldx%lld must divide evenly by both the "
                  "%dx%d source mesh and the %dx%d survivor mesh",
                  static_cast<long long>(rows),
                  static_cast<long long>(cols), sv.from.rows,
                  sv.from.cols, to.rows, to.cols);
    }

    ReshardPlan plan;
    plan.from = sv.from;
    plan.to = to;
    // Indexed by old chip id: sources and destinations both are.
    std::vector<Bytes> ingress(static_cast<size_t>(sv.from.chips()), 0);
    std::vector<Bytes> egress(ingress.size(), 0);
    for (const auto &[rows, cols] : matrices) {
        forEachBlockOverlap(
            rows, cols, bytes_per_element, sv.from, to,
            [&](int i, int j, int p, int q, Bytes bytes) {
                const int src_chip = i * sv.from.cols + j;
                const int dst_chip = sv.oldChipAt(p, q);
                if (src_chip == dst_chip) {
                    plan.localBytes += bytes;
                    return;
                }
                plan.moves.push_back(ReshardMove{src_chip, dst_chip, bytes});
                plan.totalBytes += bytes;
                ingress[static_cast<size_t>(dst_chip)] += bytes;
                egress[static_cast<size_t>(src_chip)] += bytes;
            });
    }
    plan.maxChipIngress = *std::max_element(ingress.begin(), ingress.end());
    plan.maxChipEgress = *std::max_element(egress.begin(), egress.end());
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
    return movedBytesModel(total_bytes, sv.from, sv.to(), sv.failedRow,
                           sv.failedCol);
}

ReshardEstimate
expectedReshard(const ChipConfig &cfg, MeshShape mesh, double state_bytes)
{
    ReshardEstimate best;
    for (const bool retire_row : {true, false}) {
        const int lines = retire_row ? mesh.rows : mesh.cols;
        if (lines < 2)
            continue; // no survivor mesh in this orientation
        SurvivorMesh sv{mesh, -1, -1};
        double sum = 0.0;
        for (int f = 0; f < lines; ++f) {
            (retire_row ? sv.failedRow : sv.failedCol) = f;
            sum += reshardBytesModel(state_bytes, sv);
        }
        ReshardEstimate est;
        est.bytes = sum / static_cast<double>(lines);
        est.time = reshardTimeModel(cfg, est.bytes, sv.to().chips());
        if (best.time < 0.0 || est.time < best.time)
            best = est;
    }
    return best;
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

    RemapPlan plan;
    plan.from = from;
    plan.to = to;
    std::vector<Bytes> ingress(static_cast<size_t>(to.chips()), 0);
    std::vector<Bytes> egress(static_cast<size_t>(from.chips()), 0);
    forEachBlockOverlap(
        rows, cols, bytes_per_element, from, to,
        [&](int i, int j, int p, int q, Bytes bytes) {
            const bool matched = i == p && j == q;
            plan.moves.push_back(RemapMove{i, j, p, q, bytes, matched});
            plan.totalBytes += bytes;
            (matched ? plan.matchedBytes : plan.movedBytes) += bytes;
            ingress[static_cast<size_t>(p * to.cols + q)] += bytes;
            egress[static_cast<size_t>(i * from.cols + j)] += bytes;
        });
    plan.maxChipIngress = *std::max_element(ingress.begin(), ingress.end());
    plan.maxChipEgress = *std::max_element(egress.begin(), egress.end());
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
    return movedBytesModel(total_bytes, from, to, -1, -1);
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

Rate
reshardChipRate(const ChipConfig &cfg)
{
    return kTorusLinksPerChip * cfg.iciLinkBandwidth /
           cfg.logicalMeshContention;
}

} // namespace meshslice
