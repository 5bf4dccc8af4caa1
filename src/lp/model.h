#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace prete::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };

enum class RowType { kLessEqual, kGreaterEqual, kEqual };

// One nonzero coefficient in a sparse row.
struct Coefficient {
  int var;
  double value;
};

// A linear constraint in sparse form.
struct Row {
  std::vector<Coefficient> coefficients;
  RowType type = RowType::kLessEqual;
  double rhs = 0.0;
  std::string name;
};

// Decision variable with simple bounds.
struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
  std::string name;
};

// Sparse linear (or mixed-integer) program builder. The model is the shared
// vocabulary between the simplex core, the branch-and-bound wrapper, and the
// TE formulations.
class Model {
 public:
  explicit Model(Sense sense = Sense::kMinimize) : sense_(sense) {}

  int add_variable(double lower, double upper, double objective,
                   std::string name = {});
  int add_binary(double objective, std::string name = {});
  int add_integer(double lower, double upper, double objective,
                  std::string name = {});

  int add_row(Row row);
  int add_row(std::vector<Coefficient> coefficients, RowType type, double rhs,
              std::string name = {});

  void set_objective(int var, double coefficient);
  void set_bounds(int var, double lower, double upper);
  void set_sense(Sense sense) { sense_ = sense; }

  Sense sense() const { return sense_; }
  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  const Variable& variable(int i) const { return variables_[static_cast<std::size_t>(i)]; }
  const Row& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Row>& rows() const { return rows_; }

  bool has_integers() const;

  // Evaluates the objective for a candidate assignment.
  double objective_value(const std::vector<double>& x) const;

  // Maximum constraint / bound violation of a candidate assignment; used by
  // tests to certify solver output independently of the solver itself.
  double max_violation(const std::vector<double>& x) const;

 private:
  Sense sense_;
  std::vector<Variable> variables_;
  std::vector<Row> rows_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  // Dual value per row: the shadow price d(objective)/d(rhs) for the
  // minimization form of the model. Required by Benders decomposition.
  std::vector<double> duals;
  // Simplex pivots spent. For a branch-and-bound solve this is the total
  // across every node relaxation, not just the incumbent's.
  int iterations = 0;
  // Kernel work counters: anchor reinversions performed (each one a sparse
  // LU factorization under the eta kernel, a dense Gauss-Jordan inverse
  // under the dense reference kernel) and the longest eta file reached
  // between them (0 under the dense kernel). For branch-and-bound, summed /
  // maxed across node relaxations.
  int reinversions = 0;
  int eta_peak = 0;
  // Branch-and-bound nodes popped from the best-first queue (0 for pure LP
  // solves).
  int nodes_explored = 0;
};

}  // namespace prete::lp
