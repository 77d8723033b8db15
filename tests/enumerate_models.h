/// \file
/// AllSAT model enumeration over a projection set: the reference the
/// solver tests count models with. Each model is projected onto the given
/// variables, a blocking clause over the projection excludes it, and the
/// solver is re-run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace transform::sat {

/// Statistics from an enumeration run.
struct EnumerationStats {
    std::uint64_t models = 0;
    std::uint64_t blocked_clauses = 0;
    bool exhausted = false;  ///< true when the space was fully enumerated
};

/// Enumerates satisfying assignments of \p solver projected onto
/// \p projection. For each model, \p visit receives the projected values
/// (true/false per projection variable, positionally). \p visit may return
/// false to stop early. \p max_models <= 0 means unlimited.
inline EnumerationStats
enumerate_models(Solver* solver, const std::vector<Var>& projection,
                 const std::function<bool(const std::vector<bool>&)>& visit,
                 std::int64_t max_models = -1)
{
    EnumerationStats stats;
    std::vector<bool> values(projection.size());
    while (true) {
        if (max_models > 0 &&
            stats.models >= static_cast<std::uint64_t>(max_models)) {
            return stats;
        }
        const SolveResult result = solver->solve();
        if (result == SolveResult::kUnsat) {
            stats.exhausted = true;
            return stats;
        }
        if (result == SolveResult::kUnknown) {
            return stats;
        }
        for (std::size_t i = 0; i < projection.size(); ++i) {
            values[i] = solver->model_value(projection[i]) == LBool::kTrue;
        }
        ++stats.models;
        if (!visit(values)) {
            return stats;
        }
        // At least one projection variable must differ in the next model.
        Clause blocking;
        blocking.reserve(projection.size());
        for (std::size_t i = 0; i < projection.size(); ++i) {
            blocking.push_back(Lit(projection[i], values[i]));
        }
        ++stats.blocked_clauses;
        if (!solver->add_clause(std::move(blocking))) {
            stats.exhausted = true;
            return stats;
        }
    }
}

}  // namespace transform::sat
