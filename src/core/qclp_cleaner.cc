#include "core/qclp_cleaner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "linalg/parallel_for.h"
#include "linalg/thread_pool.h"
#include "lp/revised_simplex.h"
#include "ot/sinkhorn.h"

namespace otclean::core {

namespace {

/// One CI constraint's contribution to the LP: a block of d = dx·dy·dz
/// marginal-consistency rows starting at `offset`, linearized around the
/// current target estimate. All per-column projections are precomputed so
/// pricing touches O(1) state per column.
struct ConstraintBlock {
  size_t dx = 1, dy = 1, dz = 1;
  size_t d = 1;       ///< marginal size dx·dy·dz
  size_t offset = 0;  ///< absolute LP row of this block's first marginal cell
  std::vector<size_t> jx, jy, jz;  ///< per column cell: projected indices
  std::vector<size_t> vj;          ///< per column cell: marginal cell index
  /// Current linearization factors: pin_y → Q(y|z) indexed [y·dz + z]
  /// (size dy·dz); pin_x → Q(x|z) indexed [x·dz + z] (size dx·dz).
  std::vector<double> factor;
};

/// Implicit LP of one alternation, priced column-by-column. Column (i, j)
/// of A is e_i (the row-marginal constraint) plus, per constraint block,
/// +1 at j's marginal row and −factor at every marginal row of j's pinned
/// slice — so yᵀA_(i,j) = y_i + Σ_k (y_row(j) − G_k[slice(j)]) where each
/// G_k is an O(d_k) precompute per pricing call. That makes the full scan
/// O(m·n) with streamed costs instead of O(m·n·rows) against a tableau.
class QclpColumnOracle final : public lp::ColumnOracle {
 public:
  QclpColumnOracle(const linalg::CostProvider& cost, size_t m, size_t n,
                   std::vector<ConstraintBlock>* blocks, size_t num_rows,
                   size_t threads, linalg::ThreadPool* pool)
      : cost_(&cost),
        m_(m),
        n_(n),
        blocks_(blocks),
        num_rows_(num_rows),
        threads_(threads),
        pool_(pool) {}

  void SetLinearization(bool pin_y) { pin_y_ = pin_y; }

  size_t num_rows() const override { return num_rows_; }
  size_t num_cols() const override { return m_ * n_; }

  double Cost(size_t col) const override {
    return cost_->At(col / n_, col % n_);
  }

  void Column(size_t col,
              std::vector<std::pair<size_t, double>>& out) const override {
    const size_t i = col / n_;
    const size_t j = col % n_;
    out.clear();
    out.emplace_back(i, 1.0);
    for (const ConstraintBlock& b : *blocks_) {
      if (pin_y_) {
        for (size_t y = 0; y < b.dy; ++y) {
          const size_t v = (b.jx[j] * b.dy + y) * b.dz + b.jz[j];
          const double coef =
              (y == b.jy[j] ? 1.0 : 0.0) - b.factor[y * b.dz + b.jz[j]];
          if (coef != 0.0) out.emplace_back(b.offset + v, coef);
        }
      } else {
        for (size_t x = 0; x < b.dx; ++x) {
          const size_t v = (x * b.dy + b.jy[j]) * b.dz + b.jz[j];
          const double coef =
              (x == b.jx[j] ? 1.0 : 0.0) - b.factor[x * b.dz + b.jz[j]];
          if (coef != 0.0) out.emplace_back(b.offset + v, coef);
        }
      }
    }
  }

  size_t PriceEntering(const std::vector<double>& y, double tol,
                       bool phase1) const override {
    // Per-block slice aggregates G[slice] = Σ factor·y over the slice's
    // marginal rows, then per-column duals w_j — O(Σ d_k + n·K) total.
    std::vector<double> w(n_, 0.0);
    for (const ConstraintBlock& b : *blocks_) {
      const size_t slices = (pin_y_ ? b.dx : b.dy) * b.dz;
      std::vector<double> g(slices, 0.0);
      for (size_t v = 0; v < b.d; ++v) {
        const size_t x = v / (b.dy * b.dz);
        const size_t yy = (v / b.dz) % b.dy;
        const size_t z = v % b.dz;
        if (pin_y_) {
          g[x * b.dz + z] += b.factor[yy * b.dz + z] * y[b.offset + v];
        } else {
          g[yy * b.dz + z] += b.factor[x * b.dz + z] * y[b.offset + v];
        }
      }
      for (size_t j = 0; j < n_; ++j) {
        const size_t slice =
            pin_y_ ? b.jx[j] * b.dz + b.jz[j] : b.jy[j] * b.dz + b.jz[j];
        w[j] += y[b.offset + b.vj[j]] - g[slice];
      }
    }

    // Pooled scan over the m×n grid, costs streamed tile-by-tile.
    // Chunk-local minima merge in chunk order with strict comparisons, so
    // the entering column is identical for any thread count.
    struct Candidate {
      double reduced;
      size_t col;
    };
    const size_t none = m_ * n_;
    const size_t grain = linalg::GrainForWork(n_);
    const linalg::ChunkPlan plan = linalg::PlanChunks(m_, threads_, grain);
    std::vector<Candidate> best(std::max<size_t>(plan.num_chunks, 1),
                                Candidate{-tol, none});
    linalg::ParallelFor(
        m_, threads_,
        [&](size_t begin, size_t end) {
          Candidate local{-tol, none};
          std::vector<double> tile(
              std::min<size_t>(n_, linalg::kCostStreamTileCols));
          for (size_t i = begin; i < end; ++i) {
            for (size_t c0 = 0; c0 < n_; c0 += linalg::kCostStreamTileCols) {
              const size_t c1 = std::min(n_, c0 + linalg::kCostStreamTileCols);
              cost_->Fill(i, c0, c1, tile.data());
              for (size_t j = c0; j < c1; ++j) {
                const double reduced =
                    (phase1 ? 0.0 : tile[j - c0]) - y[i] - w[j];
                if (reduced < local.reduced) {
                  local = Candidate{reduced, i * n_ + j};
                }
              }
            }
          }
          best[begin / plan.chunk] = local;
        },
        grain, pool_);
    Candidate out{-tol, none};
    for (const Candidate& c : best) {
      if (c.reduced < out.reduced) out = c;
    }
    return out.col;
  }

 private:
  const linalg::CostProvider* cost_;
  size_t m_, n_;
  std::vector<ConstraintBlock>* blocks_;
  size_t num_rows_;
  size_t threads_;
  linalg::ThreadPool* pool_;
  bool pin_y_ = true;
};

}  // namespace

Result<QclpResult> QclpCleanMulti(const prob::JointDistribution& p_data,
                                  const std::vector<prob::CiSpec>& cis,
                                  const ot::CostFunction& cost,
                                  const QclpOptions& options) {
  const prob::Domain& dom = p_data.domain();
  if (cis.empty()) {
    return Status::InvalidArgument(
        "QclpCleanMulti: at least one CI constraint is required");
  }
  if (std::fabs(p_data.Mass() - 1.0) > 1e-6) {
    return Status::InvalidArgument("QclpClean: p_data must be normalized");
  }

  std::vector<size_t> row_cells;
  for (size_t i = 0; i < p_data.size(); ++i) {
    if (p_data[i] > 0.0) row_cells.push_back(i);
  }
  if (row_cells.empty()) {
    return Status::InvalidArgument("QclpClean: p_data carries no mass");
  }
  std::vector<size_t> col_cells;
  if (options.restrict_columns_to_active) {
    col_cells = row_cells;
  } else {
    col_cells.resize(dom.TotalSize());
    for (size_t i = 0; i < col_cells.size(); ++i) col_cells[i] = i;
  }
  const size_t m = row_cells.size();
  const size_t n = col_cells.size();

  linalg::Vector p(m);
  for (size_t i = 0; i < m; ++i) p[i] = p_data[row_cells[i]];

  // Costs stream through the provider — pricing and the final transport
  // cost pull tiles; no dense m×n cost matrix is materialized.
  const ot::FunctionCostProvider provider(dom, row_cells, col_cells, cost);
  Status finite = ot::ValidateFiniteCosts("QclpClean", provider);
  if (!finite.ok()) return finite;

  // One projector serves every CI projection of the solve, and its index
  // tables every per-cell (x, y, z) lookup.
  prob::CiProjector projector(dom, cis);

  // One block of linearized marginal-consistency rows per constraint.
  std::vector<ConstraintBlock> blocks(cis.size());
  size_t num_rows = m;
  for (size_t k = 0; k < cis.size(); ++k) {
    const prob::CiProjector::SpecIndex& ix = projector.index(k);
    ConstraintBlock& b = blocks[k];
    b.dx = ix.dx;
    b.dy = ix.dy;
    b.dz = ix.dz;
    b.d = b.dx * b.dy * b.dz;
    b.offset = num_rows;
    num_rows += b.d;
    b.jx.reserve(n);
    b.jy.reserve(n);
    b.jz.reserve(n);
    b.vj.reserve(n);
    for (size_t c : col_cells) {
      const size_t x = ix.XIndex(c);
      const size_t y = ix.YIndex(c);
      const size_t z = ix.ZIndex(c);
      b.jx.push_back(x);
      b.jy.push_back(y);
      b.jz.push_back(z);
      b.vj.push_back((x * b.dy + y) * b.dz + z);
    }
  }

  const size_t threads =
      std::max<size_t>(1, linalg::ResolveThreadCount(options.num_threads));
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);
  QclpColumnOracle oracle(provider, m, n, &blocks, num_rows, threads, pool);

  linalg::Vector b_rhs(num_rows, 0.0);
  for (size_t i = 0; i < m; ++i) b_rhs[i] = p[i];

  // Current CI-consistent estimate of the target distribution.
  prob::JointDistribution q = p_data;
  projector.Project(q.probs());
  prob::JointDistribution t(dom);

  QclpResult result;
  linalg::Matrix plan(m, n, 0.0);

  for (size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    Status stop = CheckStop(options.cancel_token, options.deadline,
                            "QclpClean: outer alternation");
    if (!stop.ok()) return stop;

    // Linearize each constraint around the previous estimate: pin_y pins
    // Q(y|z) and constrains the (x,·,z) slices; else the mirror image.
    const bool pin_y = (outer % 2 == 0);
    for (size_t k = 0; k < cis.size(); ++k) {
      const prob::CiProjector::SpecIndex& ix = projector.index(k);
      ConstraintBlock& b = blocks[k];
      std::vector<double> qz(b.dz, 0.0);
      std::vector<double> qyz(b.dy * b.dz, 0.0);
      std::vector<double> qxz(b.dx * b.dz, 0.0);
      for (size_t cell = 0; cell < q.size(); ++cell) {
        const double v = q[cell];
        if (v <= 0.0) continue;
        // The (Y,Z) and (X,Z) marginal layouts are y·d_Z + z, x·d_Z + z.
        qz[ix.ZIndex(cell)] += v;
        qyz[ix.yz[cell]] += v;
        qxz[ix.xz[cell]] += v;
      }
      if (pin_y) {
        b.factor.assign(b.dy * b.dz, 0.0);
        for (size_t y = 0; y < b.dy; ++y) {
          for (size_t z = 0; z < b.dz; ++z) {
            b.factor[y * b.dz + z] =
                qz[z] > 0.0 ? qyz[y * b.dz + z] / qz[z] : 0.0;
          }
        }
      } else {
        b.factor.assign(b.dx * b.dz, 0.0);
        for (size_t x = 0; x < b.dx; ++x) {
          for (size_t z = 0; z < b.dz; ++z) {
            b.factor[x * b.dz + z] =
                qz[z] > 0.0 ? qxz[x * b.dz + z] / qz[z] : 0.0;
          }
        }
      }
    }
    oracle.SetLinearization(pin_y);

    lp::RevisedSimplexOptions lp_opts;
    lp_opts.max_iterations = options.lp_max_iterations;
    lp_opts.cancel_token = options.cancel_token;
    lp_opts.deadline = options.deadline;
    OTCLEAN_ASSIGN_OR_RETURN(lp::RevisedSimplexResult sol,
                             lp::SolveRevisedSimplex(oracle, b_rhs, lp_opts));
    result.total_lp_pivots += sol.iterations;
    result.objective_trace.push_back(sol.objective);
    result.peak_tableau_bytes =
        std::max(result.peak_tableau_bytes,
                 sol.working_set_bytes + n * sizeof(double));

    std::fill(plan.data().begin(), plan.data().end(), 0.0);
    for (const auto& [col, value] : sol.basic) {
      plan(col / n, col % n) = value;
    }

    // New target estimate: the plan's column marginal projected onto the CI
    // intersection (it satisfies the linearized constraints; the projection
    // removes residual linearization slack).
    linalg::Vector col_mass = plan.ColSums();
    std::fill(t.probs().begin(), t.probs().end(), 0.0);
    for (size_t j = 0; j < n; ++j) t[col_cells[j]] = col_mass[j];
    t.Normalize();
    projector.Project(t.probs());

    const double delta = q.TotalVariation(t);
    std::swap(q.probs(), t.probs());
    result.outer_iterations = outer + 1;
    if (delta <= options.outer_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.plan = ot::TransportPlan(dom, row_cells, col_cells, plan);
  result.target_cmi = projector.MaxCmi(q.probs());
  result.target = std::move(q);
  // Streamed plan·cost dot product — tiles, never a dense cost matrix.
  double transport_cost = 0.0;
  std::vector<double> tile(std::min<size_t>(n, linalg::kCostStreamTileCols));
  for (size_t i = 0; i < m; ++i) {
    for (size_t c0 = 0; c0 < n; c0 += linalg::kCostStreamTileCols) {
      const size_t c1 = std::min(n, c0 + linalg::kCostStreamTileCols);
      provider.Fill(i, c0, c1, tile.data());
      for (size_t j = c0; j < c1; ++j) {
        transport_cost += tile[j - c0] * plan(i, j);
      }
    }
  }
  result.transport_cost = transport_cost;
  return result;
}

Result<QclpResult> QclpClean(const prob::JointDistribution& p_data,
                             const prob::CiSpec& ci,
                             const ot::CostFunction& cost,
                             const QclpOptions& options) {
  const prob::Domain& dom = p_data.domain();
  if (ci.x.size() + ci.y.size() + ci.z.size() != dom.num_attrs()) {
    return Status::InvalidArgument(
        "QclpClean: requires a saturated constraint over the input domain");
  }
  return QclpCleanMulti(p_data, {ci}, cost, options);
}

}  // namespace otclean::core
