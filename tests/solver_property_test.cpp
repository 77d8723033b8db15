/// \file
/// Property tests for the SAT substrate: parameterized random-instance
/// sweeps against brute force, enumeration completeness on structured
/// formulas, and assumption-driven incremental behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "enumerate_models.h"
#include "sat/solver.h"

namespace transform::sat {
namespace {

/// Deterministic xorshift-style generator (no external seeding).
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint32_t next()
    {
        state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(state_ >> 33);
    }

  private:
    std::uint64_t state_;
};

struct RandomSweep {
    int num_vars;
    int clause_len;
    std::uint64_t seed;
};

class RandomCnf : public ::testing::TestWithParam<RandomSweep> {};

TEST_P(RandomCnf, MatchesBruteForce)
{
    const auto& param = GetParam();
    Rng rng(param.seed);
    for (int trial = 0; trial < 40; ++trial) {
        const int num_clauses = 2 + static_cast<int>(rng.next() % 24);
        std::vector<Clause> clauses;
        for (int c = 0; c < num_clauses; ++c) {
            Clause clause;
            for (int k = 0; k < param.clause_len; ++k) {
                const Var v = static_cast<Var>(rng.next() % param.num_vars);
                clause.push_back(Lit(v, (rng.next() & 1) != 0));
            }
            clauses.push_back(clause);
        }
        bool brute_sat = false;
        for (int assignment = 0; assignment < (1 << param.num_vars);
             ++assignment) {
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
        for (int v = 0; v < param.num_vars; ++v) {
            s.new_var();
        }
        bool ok = true;
        for (const Clause& clause : clauses) {
            ok = s.add_clause(clause) && ok;
        }
        const bool solver_sat = ok && s.solve() == SolveResult::kSat;
        ASSERT_EQ(solver_sat, brute_sat) << "trial " << trial;
        // When SAT, the model must actually satisfy every clause.
        if (solver_sat) {
            for (const Clause& clause : clauses) {
                bool any = false;
                for (const Lit l : clause) {
                    any = any || s.model_literal_true(l);
                }
                EXPECT_TRUE(any);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RandomCnf,
    ::testing::Values(RandomSweep{5, 2, 11}, RandomSweep{6, 3, 22},
                      RandomSweep{7, 3, 33}, RandomSweep{8, 4, 44},
                      RandomSweep{9, 3, 55}),
    [](const auto& info) {
        return "v" + std::to_string(info.param.num_vars) + "k" +
               std::to_string(info.param.clause_len);
    });

class EnumerationCount : public ::testing::TestWithParam<int> {};

TEST_P(EnumerationCount, CountsModelsOfAtLeastOneTrue)
{
    // "at least one of n vars" has 2^n - 1 models.
    const int n = GetParam();
    Solver s;
    Clause clause;
    std::vector<Var> vars;
    for (int i = 0; i < n; ++i) {
        vars.push_back(s.new_var());
        clause.push_back(Lit(vars.back(), false));
    }
    s.add_clause(clause);
    int count = 0;
    const auto stats =
        enumerate_models(&s, vars, [&](const std::vector<bool>& values) {
            bool any = false;
            for (const bool b : values) {
                any = any || b;
            }
            EXPECT_TRUE(any);
            ++count;
            return true;
        });
    EXPECT_EQ(count, (1 << n) - 1);
    EXPECT_TRUE(stats.exhausted);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnumerationCount, ::testing::Values(2, 3, 4, 6),
                         [](const auto& info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(SolverIncremental, AssumptionSweepOverPigeons)
{
    // 3 pigeons, 3 holes: satisfiable; forcing any two pigeons into one
    // hole via assumptions is unsatisfiable, and the solver recovers.
    const int n = 3;
    Solver s;
    std::vector<std::vector<Var>> in(n, std::vector<Var>(n));
    for (auto& row : in) {
        for (auto& v : row) {
            v = s.new_var();
        }
    }
    for (int p = 0; p < n; ++p) {
        Clause clause;
        for (int h = 0; h < n; ++h) {
            clause.push_back(Lit(in[p][h], false));
        }
        s.add_clause(clause);
    }
    for (int h = 0; h < n; ++h) {
        for (int p1 = 0; p1 < n; ++p1) {
            for (int p2 = p1 + 1; p2 < n; ++p2) {
                s.add_binary(Lit(in[p1][h], true), Lit(in[p2][h], true));
            }
        }
    }
    EXPECT_EQ(s.solve(), SolveResult::kSat);
    for (int h = 0; h < n; ++h) {
        EXPECT_EQ(s.solve({Lit(in[0][h], false), Lit(in[1][h], false)}),
                  SolveResult::kUnsat);
        EXPECT_FALSE(s.proven_unsat());
    }
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SolverStats, CountersAdvance)
{
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_binary(Lit(a, false), Lit(b, false));
    s.solve();
    EXPECT_GT(s.stats().decisions + s.stats().propagations, 0u);
}

TEST(SolverModels, DistinctModelsViaBlocking)
{
    // Blocking the first model yields a different second one.
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_binary(Lit(a, false), Lit(b, false));
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    const bool a1 = s.model_value(a) == LBool::kTrue;
    const bool b1 = s.model_value(b) == LBool::kTrue;
    s.add_clause({Lit(a, a1), Lit(b, b1)});
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    const bool a2 = s.model_value(a) == LBool::kTrue;
    const bool b2 = s.model_value(b) == LBool::kTrue;
    EXPECT_TRUE(a1 != a2 || b1 != b2);
}

// ---------------------------------------------------------------------------
// Incremental-session properties: activation-guarded clause groups under
// rotating assumption subsets, AllSAT continuation via block_and_resolve,
// guard retirement, and assumption-prefix trail reuse — each checked
// against a from-scratch reference solver. Models may legitimately differ
// between the live and fresh solvers (heuristic state diverges), so the
// properties are verdict agreement, model validity, and projected-model
// multiset equality — never model equality.
// ---------------------------------------------------------------------------

/// Builds `count` random clauses of length 3 over vars [0, num_vars).
std::vector<Clause>
random_clauses(Rng* rng, int num_vars, int count)
{
    std::vector<Clause> clauses;
    for (int c = 0; c < count; ++c) {
        Clause clause;
        for (int k = 0; k < 3; ++k) {
            const Var v = static_cast<Var>(rng->next() % num_vars);
            clause.push_back(Lit(v, (rng->next() & 1) != 0));
        }
        clauses.push_back(clause);
    }
    return clauses;
}

bool
clause_satisfied(const Clause& clause, const Solver& s)
{
    for (const Lit l : clause) {
        if (s.model_literal_true(l)) {
            return true;
        }
    }
    return false;
}

TEST(SolverIncremental, GuardedGroupsUnderRotatingActivationsMatchFresh)
{
    for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
        Rng rng(seed);
        const int num_vars = 10;
        const int num_guards = 4;
        Solver live;
        for (int v = 0; v < num_vars; ++v) {
            live.new_var();
        }
        const std::vector<Clause> base = random_clauses(&rng, num_vars, 12);
        for (const Clause& c : base) {
            live.add_clause(c);
        }
        std::vector<Lit> guards;
        std::vector<std::vector<Clause>> groups;
        for (int g = 0; g < num_guards; ++g) {
            guards.push_back(Lit(live.new_var(), false));
            groups.push_back(random_clauses(&rng, num_vars, 4));
            for (const Clause& c : groups.back()) {
                Clause guarded = c;
                guarded.push_back(~guards.back());
                live.add_clause(guarded);
            }
        }
        std::vector<bool> retired(num_guards, false);
        for (int round = 0; round < 30; ++round) {
            // Retire a live guard every few rounds; a retired guard can
            // never activate again.
            if (round % 7 == 6) {
                const int g = static_cast<int>(rng.next()) % num_guards;
                if (!retired[g]) {
                    retired[g] = true;
                    ASSERT_TRUE(live.retire_activation(guards[g]));
                    EXPECT_EQ(live.solve({guards[g]}), SolveResult::kUnsat);
                    EXPECT_FALSE(live.proven_unsat());
                }
            }
            std::vector<Lit> assumptions;
            std::vector<int> active;
            for (int g = 0; g < num_guards; ++g) {
                if (!retired[g] && (rng.next() & 1) != 0) {
                    assumptions.push_back(guards[g]);
                    active.push_back(g);
                }
            }
            // Fresh reference: base plus the active groups, unguarded.
            Solver fresh;
            for (int v = 0; v < num_vars; ++v) {
                fresh.new_var();
            }
            bool fresh_ok = true;
            for (const Clause& c : base) {
                fresh_ok = fresh.add_clause(c) && fresh_ok;
            }
            for (const int g : active) {
                for (const Clause& c : groups[g]) {
                    fresh_ok = fresh.add_clause(c) && fresh_ok;
                }
            }
            const bool fresh_sat =
                fresh_ok && fresh.solve() == SolveResult::kSat;
            const SolveResult live_verdict = live.solve(assumptions);
            ASSERT_EQ(live_verdict == SolveResult::kSat, fresh_sat)
                << "seed=" << seed << " round=" << round;
            if (live_verdict == SolveResult::kSat) {
                for (const Clause& c : base) {
                    EXPECT_TRUE(clause_satisfied(c, live));
                }
                for (const int g : active) {
                    for (const Clause& c : groups[g]) {
                        EXPECT_TRUE(clause_satisfied(c, live));
                    }
                }
            }
        }
    }
}

/// Enumerates every model of `s` under `assumptions`, projected onto
/// `projection`, continuing via block_and_resolve with the blocking
/// clause guarded on the final assumption literal (the incremental
/// session's activation pattern). Returns the projected models, sorted.
std::vector<std::vector<bool>>
enumerate_projected(Solver* s, const std::vector<Lit>& assumptions,
                    const std::vector<Var>& projection)
{
    std::vector<std::vector<bool>> models;
    const Lit act = assumptions.back();
    SolveResult verdict = s->solve(assumptions);
    while (verdict == SolveResult::kSat) {
        std::vector<bool> projected;
        Clause blocking;
        for (const Var v : projection) {
            const bool value = s->model_value(v) == LBool::kTrue;
            projected.push_back(value);
            blocking.push_back(Lit(v, value));  // falsified literal
        }
        models.push_back(projected);
        blocking.push_back(~act);
        verdict = s->block_and_resolve(blocking.data(), blocking.size(),
                                       assumptions);
    }
    std::sort(models.begin(), models.end());
    return models;
}

/// From-scratch reference enumeration: a fresh solver per call, pins as
/// unit clauses, plain unguarded blocking clauses.
std::vector<std::vector<bool>>
enumerate_fresh(const std::vector<Clause>& clauses, int num_vars,
                const std::vector<Lit>& pins,
                const std::vector<Var>& projection)
{
    Solver s;
    for (int v = 0; v < num_vars; ++v) {
        s.new_var();
    }
    bool ok = true;
    for (const Clause& c : clauses) {
        ok = s.add_clause(c) && ok;
    }
    for (const Lit pin : pins) {
        ok = s.add_unit(pin) && ok;
    }
    std::vector<std::vector<bool>> models;
    while (ok && s.solve() == SolveResult::kSat) {
        std::vector<bool> projected;
        Clause blocking;
        for (const Var v : projection) {
            const bool value = s.model_value(v) == LBool::kTrue;
            projected.push_back(value);
            blocking.push_back(Lit(v, value));
        }
        models.push_back(projected);
        if (!s.add_clause(blocking)) {
            break;
        }
    }
    std::sort(models.begin(), models.end());
    return models;
}

TEST(SolverIncremental, BlockAndResolveEnumerationMatchesFreshPerRound)
{
    for (const std::uint64_t seed : {5ull, 17ull, 91ull}) {
        Rng rng(seed);
        const int num_vars = 8;
        const std::vector<Var> projection{0, 1, 2, 3};
        Solver live;
        for (int v = 0; v < num_vars; ++v) {
            live.new_var();
        }
        const std::vector<Clause> base = random_clauses(&rng, num_vars, 14);
        bool ok = true;
        for (const Clause& c : base) {
            ok = live.add_clause(c) && ok;
        }
        ASSERT_TRUE(ok);
        // Rounds mirror the incremental session: per-round pins (an
        // assumption-prefix that overlaps between consecutive rounds,
        // exercising the planted-trail reuse), previously spent guards
        // assumed false, and a fresh activation guard assumed last.
        std::vector<Lit> spent;
        for (int round = 0; round < 20; ++round) {
            std::vector<Lit> pins;
            pins.push_back(Lit(4, (rng.next() & 3) == 0));
            pins.push_back(Lit(5, (rng.next() & 1) != 0));
            const Lit act(live.new_var(), false);
            std::vector<Lit> assumptions = pins;
            for (const Lit s : spent) {
                assumptions.push_back(~s);
            }
            assumptions.push_back(act);
            const auto live_models =
                enumerate_projected(&live, assumptions, projection);
            const auto fresh_models =
                enumerate_fresh(base, num_vars, pins, projection);
            EXPECT_EQ(live_models, fresh_models)
                << "seed=" << seed << " round=" << round;
            // Alternate the two guard-disposal mechanisms the session
            // uses: permanent retirement and deferred assume-false.
            if ((round & 1) != 0) {
                ASSERT_TRUE(live.retire_activation(act));
            } else {
                spent.push_back(act);
            }
        }
    }
}

TEST(SolverIncremental, EnumerationStaysExactAfterReduceDb)
{
    // Phase 1: a rescued pigeonhole instance — UNSAT under the assumption
    // ~rescue — forces thousands of conflicts through the same solver,
    // enough to engage learned-clause database reduction.
    const int holes = 7;
    Solver live;
    std::vector<std::vector<Var>> in(holes + 1, std::vector<Var>(holes));
    for (auto& row : in) {
        for (auto& v : row) {
            v = live.new_var();
        }
    }
    const Lit rescue(live.new_var(), false);
    for (int p = 0; p <= holes; ++p) {
        Clause clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(Lit(in[p][h], false));
        }
        clause.push_back(rescue);
        live.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 <= holes; ++p1) {
            for (int p2 = p1 + 1; p2 <= holes; ++p2) {
                live.add_binary(Lit(in[p1][h], true), Lit(in[p2][h], true));
            }
        }
    }
    ASSERT_EQ(live.solve({~rescue}), SolveResult::kUnsat);
    ASSERT_FALSE(live.proven_unsat());
    ASSERT_GT(live.stats().deleted_clauses, 0u)
        << "instance too easy: reduce_db never engaged";

    // Phase 2: guarded enumeration rounds over a small playground added
    // to the same (now clause-heavy) solver must still match a fresh
    // reference exactly.
    Rng rng(7);
    const Var play_base = live.new_var();
    for (int v = 1; v < 6; ++v) {
        live.new_var();
    }
    std::vector<Clause> play = random_clauses(&rng, 6, 8);
    for (Clause& c : play) {
        for (Lit& l : c) {
            l = Lit(static_cast<Var>(l.var() + play_base), l.negated());
        }
    }
    bool ok = true;
    for (const Clause& c : play) {
        ok = live.add_clause(c) && ok;
    }
    ASSERT_TRUE(ok);
    const std::vector<Var> projection{play_base, static_cast<Var>(play_base + 1),
                                      static_cast<Var>(play_base + 2)};
    for (int round = 0; round < 6; ++round) {
        const std::vector<Lit> pins{
            rescue, Lit(static_cast<Var>(play_base + 4), (rng.next() & 1) != 0)};
        const Lit act(live.new_var(), false);
        std::vector<Lit> assumptions = pins;
        assumptions.push_back(act);
        const auto live_models =
            enumerate_projected(&live, assumptions, projection);
        // The fresh reference sees the playground plus the (satisfied)
        // pigeonhole side: with rescue pinned true those clauses are
        // vacuous, so enumerate only the playground.
        std::vector<Clause> reference = play;
        std::vector<Lit> reference_pins;
        for (const Lit pin : pins) {
            if (pin.var() >= play_base) {
                reference_pins.push_back(pin);
            }
        }
        // Project the reference onto the playground's variable space.
        Solver fresh;
        for (int v = 0; v < live.num_vars(); ++v) {
            fresh.new_var();
        }
        bool fok = true;
        for (const Clause& c : reference) {
            fok = fresh.add_clause(c) && fok;
        }
        for (const Lit pin : reference_pins) {
            fok = fresh.add_unit(pin) && fok;
        }
        std::vector<std::vector<bool>> fresh_models;
        while (fok && fresh.solve() == SolveResult::kSat) {
            std::vector<bool> projected;
            Clause blocking;
            for (const Var v : projection) {
                const bool value = fresh.model_value(v) == LBool::kTrue;
                projected.push_back(value);
                blocking.push_back(Lit(v, value));
            }
            fresh_models.push_back(projected);
            if (!fresh.add_clause(blocking)) {
                break;
            }
        }
        std::sort(fresh_models.begin(), fresh_models.end());
        EXPECT_EQ(live_models, fresh_models) << "round " << round;
        ASSERT_TRUE(live.retire_activation(act));
    }
}

TEST(SolverIncremental, PrefixReuseAgreesWithFreshVerdicts)
{
    // Alternating assumption vectors that share prefixes of varying
    // length (including the empty prefix of a no-assumption solve): every
    // verdict must match a from-scratch solver given the assumptions as
    // units.
    for (const std::uint64_t seed : {3ull, 29ull}) {
        Rng rng(seed);
        const int num_vars = 9;
        Solver live;
        for (int v = 0; v < num_vars; ++v) {
            live.new_var();
        }
        const std::vector<Clause> base = random_clauses(&rng, num_vars, 16);
        bool ok = true;
        for (const Clause& c : base) {
            ok = live.add_clause(c) && ok;
        }
        if (!ok) {
            continue;  // degenerate draw: trivially unsat at level 0
        }
        std::vector<Lit> previous;
        for (int round = 0; round < 40; ++round) {
            std::vector<Lit> assumptions;
            // Keep a random-length prefix of the previous vector, then
            // extend with fresh random literals over distinct variables.
            if (!previous.empty()) {
                const std::size_t keep = rng.next() % (previous.size() + 1);
                assumptions.assign(previous.begin(),
                                   previous.begin() + keep);
            }
            while (assumptions.size() < 3) {
                const Var v = static_cast<Var>(rng.next() % num_vars);
                bool used = false;
                for (const Lit l : assumptions) {
                    used = used || l.var() == v;
                }
                if (!used) {
                    assumptions.push_back(Lit(v, (rng.next() & 1) != 0));
                }
            }
            const bool live_sat =
                live.solve(assumptions) == SolveResult::kSat;
            if (live_sat) {
                for (const Lit l : assumptions) {
                    EXPECT_TRUE(live.model_literal_true(l));
                }
                for (const Clause& c : base) {
                    EXPECT_TRUE(clause_satisfied(c, live));
                }
            }
            Solver fresh;
            for (int v = 0; v < num_vars; ++v) {
                fresh.new_var();
            }
            bool fok = true;
            for (const Clause& c : base) {
                fok = fresh.add_clause(c) && fok;
            }
            for (const Lit l : assumptions) {
                fok = fresh.add_unit(l) && fok;
            }
            const bool fresh_sat =
                fok && fresh.solve() == SolveResult::kSat;
            ASSERT_EQ(live_sat, fresh_sat)
                << "seed=" << seed << " round=" << round;
            previous = assumptions;
            if (round % 9 == 8) {
                // Interleave a no-assumption solve (the historical entry
                // point) to force a from-root restart of the reuse state.
                Solver plain;
                for (int v = 0; v < num_vars; ++v) {
                    plain.new_var();
                }
                bool pok = true;
                for (const Clause& c : base) {
                    pok = plain.add_clause(c) && pok;
                }
                const bool plain_sat =
                    pok && plain.solve() == SolveResult::kSat;
                ASSERT_EQ(live.solve() == SolveResult::kSat, plain_sat);
            }
        }
    }
}

}  // namespace
}  // namespace transform::sat
