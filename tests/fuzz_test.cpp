/// \file
/// Seeded byte-mutation fuzzing of the input boundary: the litmus text
/// parser (elt::parse_litmus), the execution XML parser
/// (elt::execution_from_xml) and the `.mtm` model parser
/// (spec::parse_model). Seeds are the zoo's `.mtm` files and the litmus and
/// XML files of a bound-5 x86t_elt suite; each case mutates one seed a few
/// times (byte flips, inserts, deletions, duplicated chunks, truncations,
/// extreme numbers) and drives whatever still parses through the path
/// `elt_check` runs on it:
///   - litmus: validate, then enumerate executions, derive, take the
///     model's verdict and judge minimality;
///   - XML: derive and take the model's verdict;
///   - `.mtm`: compile, then derive, verdict and judge the suite's
///     witnesses under the mutated model.
/// A mutant may be rejected or accepted; it must never abort. The cases
/// are a pure function of the seed, so any failure reproduces; the binary
/// also runs under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/litmus.h"
#include "elt/serialize.h"
#include "mtm/model.h"
#include "spec/compile.h"
#include "spec/parser.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"

namespace transform {
namespace {

/// Executions checked per parsed litmus program: enough to reach the
/// verdict and the judge, few enough that a mutant with a large execution
/// space stays cheap.
constexpr int kExecutionsPerProgram = 32;

/// Mutants per corpus: a few seconds of tier-1 time for the three.
constexpr int kCases = 100000;

/// Litmus/XML seeds: one bound-5 x86t_elt suite, as elt_synth --out
/// writes it.
struct SuiteSeeds {
    std::vector<std::string> litmus;
    std::vector<std::string> xml;
    std::vector<elt::Execution> witnesses;
};

const SuiteSeeds&
suite_seeds()
{
    static const SuiteSeeds seeds = [] {
        synth::SynthesisOptions options;
        options.min_bound = 4;
        options.bound = 5;
        options.jobs = 2;
        SuiteSeeds out;
        const std::vector<synth::SuiteResult> suites =
            synth::synthesize_all_parallel(mtm::x86t_elt(), options);
        for (const synth::SuiteResult& suite : suites) {
            for (std::size_t i = 0; i < suite.tests.size(); ++i) {
                const synth::SynthesizedTest& test = suite.tests[i];
                const std::string name =
                    suite.axiom + "_" + std::to_string(i);
                out.litmus.push_back(
                    elt::program_to_litmus(test.witness.program, name));
                out.xml.push_back(elt::execution_to_xml(test.witness, name));
                out.witnesses.push_back(test.witness);
            }
        }
        return out;
    }();
    return seeds;
}

/// `.mtm` seeds: every model file of the zoo.
std::vector<std::string>
model_seeds()
{
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(TRANSFORM_SOURCE_ROOT) / "examples" /
             "models")) {
        if (entry.path().extension() == ".mtm") {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> sources;
    for (const auto& path : paths) {
        std::ifstream in(path, std::ios::binary);
        sources.emplace_back(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    return sources;
}

/// Deterministic byte mutator over one seed.
class Mutator {
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    /// A copy of \p seed with 1-4 mutations applied.
    std::string
    mutate(const std::string& seed)
    {
        std::string text = seed;
        const int rounds = 1 + static_cast<int>(below(4));
        for (int r = 0; r < rounds; ++r) {
            mutate_once(&text);
        }
        return text;
    }

  private:
    std::uint64_t
    below(std::uint64_t n)
    {
        return n == 0 ? 0 : rng_() % n;
    }

    char
    interesting_byte()
    {
        static const std::string kBytes =
            "0123456789-+xyuwabcpP<>/=\"'#\n\t :,()|&^*~!.;{}[]\\\0\x7f\xff";
        return kBytes[below(kBytes.size())];
    }

    void
    mutate_once(std::string* text)
    {
        static const char* const kNumbers[] = {
            "0", "-1", "99", "4294967296", "18446744073709551616",
            "2147483647", "-2147483648", "1e9"};
        const std::size_t size = text->size();
        const std::size_t at = below(size + 1);
        switch (below(7)) {
        case 0:  // overwrite one byte
            if (size > 0) {
                (*text)[below(size)] = interesting_byte();
            }
            break;
        case 1:  // insert one byte
            text->insert(text->begin() + static_cast<long>(at),
                         interesting_byte());
            break;
        case 2:  // delete a short range
            text->erase(at, 1 + below(16));
            break;
        case 3:  // duplicate a short chunk in place
            if (at < size) {
                const std::string chunk = text->substr(at, 1 + below(40));
                text->insert(at, chunk);
            }
            break;
        case 4:  // truncate
            text->resize(at);
            break;
        case 5: {  // replace the next digit run with an extreme number
            const std::size_t digit = text->find_first_of("0123456789", at);
            if (digit != std::string::npos) {
                const std::size_t end =
                    text->find_first_not_of("0123456789", digit);
                text->replace(digit,
                              (end == std::string::npos ? size : end) - digit,
                              kNumbers[below(std::size(kNumbers))]);
            }
            break;
        }
        default:  // flip one bit
            if (size > 0) {
                (*text)[below(size)] ^=
                    static_cast<char>(1u << below(8));
            }
            break;
        }
    }

    std::mt19937_64 rng_;
};

/// elt_check's litmus path after a successful parse: validate, then
/// derive, verdict and judge over (a prefix of) the execution space.
/// Returns the executions checked.
int
check_program(const mtm::Model& model, const elt::Program& program)
{
    if (!program.validate(model.vm_aware()).empty()) {
        return 0;
    }
    elt::DerivedRelations derived;
    elt::DeriveScratch scratch;
    synth::JudgeScratch judge;
    int checked = 0;
    synth::for_each_execution(program, model.vm_aware(),
                              [&](const elt::Execution& execution) {
        elt::derive_into(execution, model.derive_options(), &derived,
                         &scratch);
        if (derived.well_formed &&
            model.violated_mask(program, derived, &scratch.cycle) != 0) {
            synth::judge(model, execution, &judge);
        }
        return ++checked < kExecutionsPerProgram;
    });
    return checked;
}

/// elt_check's XML path after a successful parse: derive and verdict.
void
check_execution(const mtm::Model& model, const elt::Execution& execution)
{
    const elt::DerivedRelations derived =
        elt::derive(execution, model.derive_options());
    (void)derived;
    (void)model.violated_axioms(execution);
}

/// Counts what a corpus's mutants did, so each test can require that
/// both the reject and the accept paths were exercised.
struct Outcomes {
    int rejected = 0;
    int accepted = 0;
};

TEST(Fuzz, LitmusMutantsAreRejectedOrCheckedNeverAborted)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::vector<std::string>& seeds = suite_seeds().litmus;
    ASSERT_FALSE(seeds.empty());
    Mutator mutator(0x11u);
    Outcomes outcomes;
    for (int i = 0; i < kCases; ++i) {
        const std::string text =
            mutator.mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
        std::string error;
        const std::optional<elt::ParsedLitmus> parsed =
            elt::parse_litmus(text, &error);
        if (!parsed) {
            EXPECT_FALSE(error.empty()) << "case " << i;
            ++outcomes.rejected;
            continue;
        }
        ++outcomes.accepted;
        check_program(model, parsed->program);
    }
    RecordProperty("rejected", outcomes.rejected);
    RecordProperty("accepted", outcomes.accepted);
    EXPECT_GT(outcomes.rejected, 0);
    EXPECT_GT(outcomes.accepted, 0);
}

TEST(Fuzz, XmlMutantsAreRejectedOrCheckedNeverAborted)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::vector<std::string>& seeds = suite_seeds().xml;
    ASSERT_FALSE(seeds.empty());
    Mutator mutator(0x22u);
    Outcomes outcomes;
    for (int i = 0; i < kCases; ++i) {
        const std::string text =
            mutator.mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
        const std::optional<elt::Execution> execution =
            elt::execution_from_xml(text);
        if (!execution) {
            ++outcomes.rejected;
            continue;
        }
        ++outcomes.accepted;
        check_execution(model, *execution);
    }
    RecordProperty("rejected", outcomes.rejected);
    RecordProperty("accepted", outcomes.accepted);
    EXPECT_GT(outcomes.rejected, 0);
    EXPECT_GT(outcomes.accepted, 0);
}

TEST(Fuzz, CrashesFoundByTheFuzzerAreRejected)
{
    // A litmus address name whose index overflowed an int (UBSan).
    EXPECT_FALSE(elt::parse_litmus("elt t\nthread P0\n  R x2147483647\n")
                     .has_value());
    // XML mutants that once aborted: a thread count sized an allocation, a
    // witness walk indexed past the events (`walk=6"3"` reads as 6), and a
    // remap source below kNone indexed before them.
    const char* const corpus[] = {
        "<elt name=\"t\" threads=\"2147483647\">\n"
        "  <wpte id=\"0\" thread=\"0\" va=\"0\" pa=\"1\"/>\n"
        "</elt>\n",
        "<elt name=\"t\" threads=\"1\">\n"
        "  <write id=\"0\" thread=\"0\" va=\"0\"/>\n"
        "  <wdb id=\"1\" thread=\"0\" va=\"0\" parent=\"0\"/>\n"
        "  <rptw id=\"2\" thread=\"0\" va=\"0\" parent=\"0\"/>\n"
        "  <witness>\n"
        "    <co event=\"0\" pos=\"0\"/>\n"
        "    <ptw event=\"0\" walk=6\"3\"/>\n"
        "  </witness>\n"
        "</elt>\n",
        "<elt name=\"t\" threads=\"1\">\n"
        "  <invlpg id=\"0\" thread=\"0\" va=\"0\" "
        "remap=\"-2147483648\"/>\n"
        "</elt>\n",
    };
    for (const char* text : corpus) {
        EXPECT_FALSE(elt::execution_from_xml(text).has_value()) << text;
    }
}

TEST(Fuzz, ModelMutantsAreRejectedOrCompiledNeverAborted)
{
    const std::vector<std::string> seeds = model_seeds();
    ASSERT_FALSE(seeds.empty());
    // A few of the suite's witnesses, checked under every model that
    // compiles: derive, verdict and judge all evaluate its axioms.
    const std::vector<elt::Execution>& all = suite_seeds().witnesses;
    ASSERT_FALSE(all.empty());
    const std::vector<elt::Execution> witnesses(
        all.begin(), all.begin() + std::min<std::size_t>(all.size(), 4));
    Mutator mutator(0x33u);
    Outcomes outcomes;
    for (int i = 0; i < kCases; ++i) {
        const std::string text =
            mutator.mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
        spec::Diagnostic diag;
        const std::optional<spec::ModelSpec> spec =
            spec::parse_model(text, &diag);
        if (!spec) {
            EXPECT_FALSE(diag.message.empty()) << "case " << i;
            EXPECT_GE(diag.line, 1) << "case " << i;
            ++outcomes.rejected;
            continue;
        }
        ++outcomes.accepted;
        const mtm::Model model = spec::compile_model(*spec);
        synth::JudgeScratch judge;
        for (const elt::Execution& witness : witnesses) {
            check_execution(model, witness);
            synth::judge(model, witness, &judge);
        }
    }
    RecordProperty("rejected", outcomes.rejected);
    RecordProperty("accepted", outcomes.accepted);
    EXPECT_GT(outcomes.rejected, 0);
    EXPECT_GT(outcomes.accepted, 0);
}

}  // namespace
}  // namespace transform
