/// \file
/// Unit tests for the CDCL SAT solver and the AllSAT reference enumerator.
#include <gtest/gtest.h>

#include "enumerate_models.h"
#include "sat/solver.h"

namespace transform::sat {
namespace {

Lit
pos(Var v)
{
    return Lit(v, false);
}

Lit
neg(Var v)
{
    return Lit(v, true);
}

TEST(Lit, EncodingRoundTrip)
{
    const Lit a(3, false);
    EXPECT_EQ(a.var(), 3);
    EXPECT_FALSE(a.negated());
    EXPECT_TRUE((~a).negated());
    EXPECT_EQ((~a).var(), 3);
    EXPECT_EQ(~~a, a);
}

TEST(Solver, TrivialSat)
{
    Solver s;
    const Var a = s.new_var();
    s.add_unit(pos(a));
    EXPECT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_EQ(s.model_value(a), LBool::kTrue);
}

TEST(Solver, TrivialUnsat)
{
    Solver s;
    const Var a = s.new_var();
    s.add_unit(pos(a));
    s.add_unit(neg(a));
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyClauseUnsat)
{
    Solver s;
    EXPECT_FALSE(s.add_clause({}));
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, TautologyDropped)
{
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, PropagationChain)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    const Var c = s.new_var();
    s.add_unit(pos(a));
    s.add_binary(neg(a), pos(b));  // a -> b
    s.add_binary(neg(b), pos(c));  // b -> c
    EXPECT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_EQ(s.model_value(c), LBool::kTrue);
}

TEST(Solver, XorChainSat)
{
    // x0 xor x1 = 1, x1 xor x2 = 1, ... satisfiable for any chain length.
    Solver s;
    const int n = 12;
    std::vector<Var> vars;
    for (int i = 0; i < n; ++i) {
        vars.push_back(s.new_var());
    }
    for (int i = 0; i + 1 < n; ++i) {
        s.add_binary(pos(vars[i]), pos(vars[i + 1]));
        s.add_binary(neg(vars[i]), neg(vars[i + 1]));
    }
    EXPECT_EQ(s.solve(), SolveResult::kSat);
    for (int i = 0; i + 1 < n; ++i) {
        EXPECT_NE(s.model_value(vars[i]) == LBool::kTrue,
                  s.model_value(vars[i + 1]) == LBool::kTrue);
    }
}

/// Pigeonhole principle: n+1 pigeons, n holes — classically hard UNSAT.
TEST(Solver, PigeonholeUnsat)
{
    const int holes = 5;
    const int pigeons = holes + 1;
    Solver s;
    std::vector<std::vector<Var>> in(pigeons, std::vector<Var>(holes));
    for (auto& row : in) {
        for (auto& v : row) {
            v = s.new_var();
        }
    }
    for (int p = 0; p < pigeons; ++p) {
        Clause clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(pos(in[p][h]));
        }
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                s.add_binary(neg(in[p1][h]), neg(in[p2][h]));
            }
        }
    }
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, AssumptionsSatThenUnsat)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_binary(neg(a), pos(b));  // a -> b
    EXPECT_EQ(s.solve({pos(a)}), SolveResult::kSat);
    EXPECT_EQ(s.model_value(b), LBool::kTrue);
    EXPECT_EQ(s.solve({pos(a), neg(b)}), SolveResult::kUnsat);
    // The formula itself is still satisfiable.
    EXPECT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_FALSE(s.proven_unsat());
}

TEST(Solver, ConflictBudgetReturnsUnknown)
{
    const int holes = 8;
    const int pigeons = holes + 1;
    Solver s;
    std::vector<std::vector<Var>> in(pigeons, std::vector<Var>(holes));
    for (auto& row : in) {
        for (auto& v : row) {
            v = s.new_var();
        }
    }
    for (int p = 0; p < pigeons; ++p) {
        Clause clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(pos(in[p][h]));
        }
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                s.add_binary(neg(in[p1][h]), neg(in[p2][h]));
            }
        }
    }
    EXPECT_EQ(s.solve({}, /*conflict_budget=*/5), SolveResult::kUnknown);
}

TEST(Enumerator, CountsAllModels)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    const Var c = s.new_var();
    s.add_ternary(pos(a), pos(b), pos(c));  // at least one true: 7 models
    int count = 0;
    const EnumerationStats stats = enumerate_models(
        &s, {a, b, c}, [&](const std::vector<bool>&) {
            ++count;
            return true;
        });
    EXPECT_EQ(count, 7);
    EXPECT_TRUE(stats.exhausted);
    EXPECT_EQ(stats.models, 7u);
}

TEST(Enumerator, ProjectionCollapsesModels)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    (void)b;  // free variable not in the projection
    s.add_clause({pos(a)});
    int count = 0;
    enumerate_models(&s, {a}, [&](const std::vector<bool>& values) {
        EXPECT_TRUE(values[0]);
        ++count;
        return true;
    });
    EXPECT_EQ(count, 1);
}

TEST(Enumerator, MaxModelsStopsEarly)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    (void)a;
    (void)b;
    int count = 0;
    const EnumerationStats stats = enumerate_models(
        &s, {a, b},
        [&](const std::vector<bool>&) {
            ++count;
            return true;
        },
        /*max_models=*/2);
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(stats.exhausted);
}

/// Random 3-SAT instances cross-checked against brute force.
TEST(Solver, RandomInstancesMatchBruteForce)
{
    std::uint64_t seed = 0x12345678;
    auto next_random = [&seed]() {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(seed >> 33);
    };
    for (int trial = 0; trial < 60; ++trial) {
        const int num_vars = 6;
        const int num_clauses = 3 + static_cast<int>(next_random() % 20);
        std::vector<Clause> clauses;
        for (int c = 0; c < num_clauses; ++c) {
            Clause clause;
            for (int k = 0; k < 3; ++k) {
                const Var v = static_cast<Var>(next_random() % num_vars);
                clause.push_back(Lit(v, (next_random() & 1) != 0));
            }
            clauses.push_back(clause);
        }
        // Brute force.
        bool brute_sat = false;
        for (int assignment = 0; assignment < (1 << num_vars); ++assignment) {
            bool all = true;
            for (const Clause& clause : clauses) {
                bool any = false;
                for (const Lit l : clause) {
                    const bool value = ((assignment >> l.var()) & 1) != 0;
                    any = any || (value != l.negated());
                }
                all = all && any;
            }
            if (all) {
                brute_sat = true;
                break;
            }
        }
        Solver s;
        for (int v = 0; v < num_vars; ++v) {
            s.new_var();
        }
        bool ok = true;
        for (const Clause& clause : clauses) {
            ok = s.add_clause(clause) && ok;
        }
        const SolveResult result = ok ? s.solve() : SolveResult::kUnsat;
        EXPECT_EQ(result == SolveResult::kSat, brute_sat)
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace transform::sat
