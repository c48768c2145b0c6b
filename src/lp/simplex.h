// Bounded-variable two-phase revised simplex over sparse columns.
//
// Replaces the LP engine inside the paper's black-box ILP solver (CPLEX).
// The implementation is specialized for the package-query problem shape:
// very few rows (one per global predicate) and very many columns (one per
// tuple). Columns are stored compressed-sparse-column (lp/sparse_matrix.h)
// — reusing the model's attached CSC when translate built one — with a
// dense column-major fallback for small models where indirection would
// cost more than it saves. The basis inverse is kept as the last dense
// factorization plus a product-form eta file: each pivot appends one O(m)
// eta vector instead of refreshing the m×m inverse, and the file collapses
// back into a fresh factorization every `refactor_every` pivots.
//
// Supported features:
//  * range rows  lo <= a'x <= hi  (slack variables with finite/infinite
//    bounds; equality rows via lo == hi)
//  * variable bounds  lb <= x <= ub  with ub possibly +inf, and free
//    variables (both bounds infinite)
//  * warm starts: variable bounds can be tightened/relaxed between solves
//    (used heavily by branch-and-bound) and the previous basis is reused;
//    a warm Solve() re-optimizes with the dual simplex (bound changes keep
//    the basis dual feasible) instead of re-running primal phase 1
//  * basis snapshot/restore (Basis): branch-and-bound keeps the parent
//    basis per node and re-seeds both children from it; evaluators carry a
//    basis across consecutive subproblem solves over the same column set
//  * pricing: candidate-list partial pricing with devex reference weights
//    by default — a full sweep seeds a small candidate list, pivots price
//    only the list, and the list is rebuilt every few pivots or when it
//    runs dry; optimality is only ever declared from an exhaustive exact
//    sweep, so answers cannot change. `partial_pricing = false` restores
//    the full Dantzig sweep per pivot (the pre-sparse baseline). Both
//    modes fall back to Bland's rule to break degenerate cycles.
//  * fixed columns (lb == ub — presolve leftovers, branching, reduced-cost
//    fixing) are dropped from a per-solve active-column list instead of
//    being re-tested inside every pricing and dual-ratio-test sweep
//
// The dual phase is a pure accelerator: Solve() always finishes with the
// primal phases from wherever the dual phase left the basis, so warm and
// cold solves agree on status and objective — warm starting can only change
// the pivot count, never the answer. The dual ratio test keeps its
// exhaustive scan over the active columns (a min-ratio over a subset could
// pick an invalid pivot); its partial pricing takes the form of the
// fixed-column skip list plus sparse column dots.
//
// Dual pricing (`dual_steepest_edge`, default on) upgrades the dual phase
// two ways, both answer-preserving:
//  * steepest-edge row choice: the leaving row maximizes violation^2 /
//    gamma_r where gamma_r tracks ||B^{-T} e_r||^2 (Forrest–Goldfarb
//    reference weights, maintained with one extra FTRAN per dual pivot and
//    reset to 1 — the devex-style reference framework — whenever the basis
//    is rebuilt from scratch). Scale-aware row choice cuts the pivot count
//    on warm branch-and-bound re-solves.
//  * bound-flipping ratio test (long-step): instead of always pivoting on
//    the minimum dual ratio, the test walks the sorted breakpoints and
//    *flips* boxed nonbasic columns across their box while the leaving
//    row's violation survives the flip, applying all flips with a single
//    FTRAN of the accumulated column. Each flip retires a dual breakpoint
//    without spending a basis change, so degenerate-ish warm re-solves
//    need fewer etas. Flipped columns stay dual feasible by construction
//    (a boxed variable is feasible at either bound once its reduced cost
//    changes sign).
#ifndef PAQL_LP_SIMPLEX_H_
#define PAQL_LP_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "lp/model.h"
#include "lp/sparse_matrix.h"

namespace paql::lp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

const char* LpStatusName(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  /// Objective value in the model's own sense (valid when kOptimal).
  double objective = 0;
  /// Structural variable values (size model.num_vars(); valid when kOptimal).
  std::vector<double> x;
  int iterations = 0;
  /// True when this solve re-optimized from a warm basis with the dual
  /// simplex (rather than running primal phase 1 from scratch).
  bool used_dual = false;
  /// Primal pivots whose entering variable came straight from the pricing
  /// candidate list (no full sweep that iteration). Always 0 when
  /// SimplexOptions::partial_pricing is off.
  int64_t pricing_candidate_hits = 0;
  /// Boxed nonbasic columns flipped across their box by the bound-flipping
  /// dual ratio test (each one a dual breakpoint retired without a pivot).
  /// Always 0 when SimplexOptions::dual_steepest_edge is off.
  int64_t bound_flips = 0;
  /// Dual pivots whose leaving row was chosen by the steepest-edge weights
  /// (every dual pivot when dual_steepest_edge is on; 0 otherwise).
  int64_t dse_pivots = 0;
};

struct SimplexOptions {
  double feas_tol = 1e-7;   // bound/row feasibility tolerance (relative-ish)
  double opt_tol = 1e-7;    // reduced-cost optimality tolerance
  double pivot_tol = 1e-9;  // minimum acceptable pivot magnitude
  int max_iterations = 500000;
  int refactor_every = 64;  // collapse the eta file every this many pivots
  int stall_before_bland = 1000;  // degenerate pivots before Bland's rule
  /// Reuse the basis across Solve() calls and re-optimize with the dual
  /// simplex after bound changes. false = every Solve() starts from the
  /// all-slack basis (the cold baseline for A/B benchmarking).
  bool warm_start = true;
  /// Candidate-list partial pricing with devex weights (sublinear per-pivot
  /// work). false = the exact pre-sparse behaviour: a full Dantzig sweep
  /// over every column on every pivot. Either way the optimum is identical;
  /// only the pivot path and the per-pivot cost change.
  bool partial_pricing = true;
  /// Candidates kept per rebuild sweep. Large enough that a list survives
  /// several pivots of dual drift before it runs dry (re-pricing the list
  /// costs |list| sparse dots per pivot — still thousands of times cheaper
  /// than a 1M-column sweep).
  int pricing_list_size = 256;
  /// Pivots between forced candidate-list rebuilds (the list also rebuilds
  /// early when it runs out of attractive candidates).
  int pricing_rebuild_every = 64;
  /// Dual-phase upgrade: steepest-edge leaving-row weights plus the
  /// bound-flipping (long-step) dual ratio test. false = the plain
  /// most-violated-row / min-ratio dual phase (the A/B baseline). Either
  /// way the optimum is identical — the dual phase is an accelerator and
  /// the primal phases always finish the solve.
  bool dual_steepest_edge = true;
};

/// A saved simplex basis: the status of every variable (structural then
/// slack) and the basic variable of each row. Snapshot after a solve and
/// restore into any solver whose model has the same dimensions — working
/// bounds, objective, and even coefficients may differ; the restore
/// refactorizes against the current model and fails cleanly on singularity.
struct Basis {
  std::vector<uint8_t> status;  // VarStatus per variable, size n + m
  std::vector<int> rows;        // basic variable per row, size m
  bool valid = false;
};

/// Reusable simplex instance over one model. Not thread-safe.
class SimplexSolver {
 public:
  /// Status of a variable relative to the current basis. The numeric
  /// values are the wire format of Basis::status.
  enum class VarStatus : uint8_t { kAtLower, kAtUpper, kBasic, kFree };

  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// A solver over `other`'s model that shares its read-only column
  /// storage and phase-2 costs instead of rebuilding them, starting from
  /// `other`'s current working bounds with no basis. Concurrent
  /// branch-and-bound workers are built this way from the root solver, so
  /// a worker adds only its own bounds, statuses and pricing weights.
  SimplexSolver(const SimplexSolver& other, SimplexOptions options);

  /// Non-copyable/movable: the raw column and cost views point into
  /// columns_, so the compiler-generated copies would be misleading.
  SimplexSolver(const SimplexSolver&) = delete;
  SimplexSolver& operator=(const SimplexSolver&) = delete;

  /// Change the working bounds of a structural variable (branching).
  /// Keeps the current basis for warm starting.
  void SetVarBounds(int var, double lb, double ub);

  /// Restore all structural bounds to the model's original bounds.
  void ResetVarBounds();

  double var_lb(int var) const { return lb_[var]; }
  double var_ub(int var) const { return ub_[var]; }

  /// Solve from the current basis (first call starts from the all-slack
  /// basis). `deadline` bounds wall-clock time.
  LpResult Solve(const Deadline& deadline);

  /// Solve() into `out`, reusing the capacity of `out->x` (callers that
  /// solve once per branch-and-bound node keep one LpResult and allocate
  /// the solution vector once).
  void Solve(const Deadline& deadline, LpResult* out);

  /// Save the current basis for later restoration (possibly into another
  /// solver over a same-shaped model). Invalid until the first Solve().
  Basis SnapshotBasis() const;

  /// SnapshotBasis() into `out`, reusing its vectors' capacity.
  void SnapshotBasis(Basis* out) const;

  /// Adopt `basis` as the warm-start point for the next Solve(). Returns
  /// false (and reverts to a cold start) when the basis has incompatible
  /// dimensions, is internally inconsistent, or is singular against the
  /// current model.
  bool RestoreBasis(const Basis& basis);

  /// Phase-2 reduced costs of the structural variables against the current
  /// basis, in the solver's internal minimize sense (maximize objectives
  /// are negated on load, matching branch-and-bound's internal space).
  /// Meaningful after an optimal Solve(); branch-and-bound feeds them to
  /// reduced-cost fixing.
  std::vector<double> ReducedCosts() const;

  /// Bytes used by the column storage and factorization workspace.
  size_t ApproximateBytes() const;

  int num_rows() const { return m_; }
  int num_structural() const { return n_; }

 private:
  /// One product-form eta factor: B_new^{-1} = E · B_old^{-1} where E is
  /// the identity except column `row`, which holds `col`.
  struct Eta {
    int row;
    std::vector<double> col;  // size m_
  };

  double NonbasicValue(int j) const;
  void InitAllSlackBasis();
  // Rebuild binv0_ from basis_ (clearing the eta file); returns false if
  // the basis matrix is singular (caller falls back to the all-slack
  // basis).
  bool Refactorize();
  void ComputeBasicValues();

  // --- Column access (CSC or dense fallback) -----------------------------

  // dot(y, structural column j).
  double ColDot(const double* y, int j) const;
  // out[row] += scale * entry for structural column j.
  void ScatterCol(int j, double scale, double* out) const;

  // --- Basis-inverse application (factorization + eta file) ---------------

  // v <- E_k ... E_1 v: the eta factors in pivot order.
  void ApplyEtas(std::vector<double>* v) const;
  // v <- B^{-1} v.
  void FtranVec(std::vector<double>* v) const;
  // y^T <- y^T B^{-1}.
  void BtranVec(std::vector<double>* y) const;
  // Append the eta factor for a pivot on w[leave_row] (w = B^{-1} A_enter).
  void PushEta(int leave_row, const std::vector<double>& w);

  // --- Pricing ------------------------------------------------------------

  // Reduced cost of nonbasic variable j under duals y for the given phase.
  double ReducedCost(bool phase1, const std::vector<double>& y, int j) const;
  // Eligibility of nonbasic j to enter with reduced cost d: returns the
  // entering direction (+1/-1) in *sigma and the pricing score (0 = not
  // eligible).
  double PriceScore(int j, double d, double* sigma) const;
  // Choose the entering variable. Full Dantzig sweep when partial pricing
  // is off (or Bland mode is on); candidate-list devex pricing otherwise.
  // Returns -1 when an exact exhaustive sweep proves optimality.
  int PriceEntering(bool phase1, const std::vector<double>& y, bool bland,
                    double* sigma);
  // Full exact sweep over the active columns; refills cand_ with the
  // top-scoring candidates and returns the best entering variable (-1 =
  // provably optimal at the current tolerance).
  int RebuildCandidates(bool phase1, const std::vector<double>& y,
                        double* sigma);
  // Devex weight update after a pivot: w = B^{-1}A_enter, pivot row r.
  void UpdateDevexWeights(int enter, int leave_row,
                          const std::vector<double>& w);
  // Rebuild the active (non-fixed) column list if bounds changed.
  void RefreshActiveColumns();

  // Forrest–Goldfarb steepest-edge weight update after a dual pivot on
  // `leave_row` with w = B^{-1}A_enter and rho = B^{-T}e_r (both against
  // the pre-pivot basis). gamma_exact = rho·rho, the exact weight of the
  // pivot row (the maintained weight may have drifted; the exact value
  // anchors the recurrence).
  void UpdateDseWeights(int leave_row, const std::vector<double>& w,
                        const std::vector<double>& rho, double gamma_exact);

  void InitSolveCounters() {
    candidate_hits_ = 0;
    bound_flips_ = 0;
    dse_pivots_ = 0;
  }

  // One simplex phase. phase1 == true minimizes total infeasibility of the
  // basic variables; phase1 == false minimizes cost_.
  LpStatus RunPhase(bool phase1, const Deadline& deadline, int* iterations);

  // Dual simplex re-optimization from a dual-feasible basis: drives out
  // primal bound violations while keeping the reduced costs optimal.
  // Returns kOptimal when primal feasible, kInfeasible when a violated row
  // admits no entering column (dual unbounded). Sets *bailed and returns
  // early on numerical trouble; the caller falls back to the primal phases.
  LpStatus RunDualPhase(const Deadline& deadline, int* iterations,
                        bool* bailed);

  // Make the current basis dual feasible for the phase-2 costs by flipping
  // wrong-signed boxed nonbasic variables to their opposite bound. Returns
  // false when a non-boxed variable violates dual feasibility (the dual
  // phase cannot start).
  bool MakeDualFeasible();

  // Basic-variable infeasibility (sum of bound violations).
  double TotalInfeasibility() const;

  // y = B^{-T} c_B for the phase-specific basic costs.
  void ComputeDuals(bool phase1, std::vector<double>* y) const;

  // w = B^{-1} A_j.
  void Ftran(int j, std::vector<double>* w) const;

  /// Read-only per-model state, built once and shared by every solver
  /// cloned from the one that built it: column storage (dense
  /// column-major for small models, CSC otherwise — the model's attached
  /// CSC when present, a privately built one when not) and the phase-2
  /// costs.
  struct ModelColumns {
    bool dense = false;
    std::vector<double> dense_cols;  // column-major, size n*m when dense
    SparseMatrix owned_csc;
    /// Keeps a model-attached view alive even if the model drops it.
    std::shared_ptr<const SparseMatrix> attached;
    const SparseMatrix* csc = nullptr;
    std::vector<double> cost;  // phase-2 costs (internal minimize), n + m
  };

  /// One dual-ratio-test breakpoint (bound-flipping mode only).
  struct Breakpoint {
    double ratio;  // |d_j| / |alpha_j|
    double alpha;  // |alpha| breaks ratio ties: larger pivots are safer
    int j;
  };

  const Model* model_;
  SimplexOptions options_;
  int m_;  // rows
  int n_;  // structural variables
  int total_;  // n_ + m_

  std::shared_ptr<const ModelColumns> columns_;
  // Raw views into *columns_ for the hot loops.
  bool dense_ = false;
  const double* dense_cols_ = nullptr;
  const SparseMatrix* csc_ = nullptr;
  const double* cost_ = nullptr;

  std::vector<double> lb_;     // working bounds, size total_
  std::vector<double> ub_;
  double obj_sign_;            // +1 minimize, -1 maximize

  std::vector<VarStatus> status_;  // size total_
  std::vector<int> basis_;         // size m_: variable basic in each row
  std::vector<double> binv0_;      // m_ x m_ row-major B^{-1} at last refactor
  std::vector<Eta> etas_;          // product-form updates since then
  std::vector<double> xb_;         // basic variable values, size m_
  bool basis_valid_ = false;
  int pivots_since_refactor_ = 0;

  // Pricing state.
  std::vector<int> active_;        // non-fixed columns (structural + slack)
  bool active_dirty_ = true;       // bounds changed since active_ was built
  std::vector<int> cand_;          // pricing candidate list
  std::vector<double> devex_w_;    // devex reference weights, size total_
  size_t section_cursor_ = 0;      // rotating rebuild-window position
  int pivots_since_rebuild_ = 0;
  int64_t candidate_hits_ = 0;     // per-Solve counter

  // Dual steepest-edge state: per-row reference weights approximating
  // ||B^{-T}e_r||^2, reset to 1 (the devex-style fallback) whenever the
  // basis is rebuilt from scratch. Scratch vectors avoid per-pivot allocs.
  std::vector<double> dse_w_;      // size m_
  std::vector<double> dse_tau_;    // scratch: B^{-1}rho
  int64_t bound_flips_ = 0;        // per-Solve counter
  int64_t dse_pivots_ = 0;         // per-Solve counter

  // Scratch reused across solves, so a warm re-solve allocates nothing
  // sized by the column count once the first solve has run.
  std::vector<Breakpoint> breakpoints_;  // dual ratio test
  std::vector<int> flipped_;             // MakeDualFeasible rollback list
  std::vector<uint8_t> restore_seen_;    // RestoreBasis row-uniqueness check
};

}  // namespace paql::lp

#endif  // PAQL_LP_SIMPLEX_H_
