#include "synth/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "elt/serialize.h"
#include "spec/printer.h"

namespace transform::synth {
namespace {

/// v4: records carry per-axiom (programs, executions) counters and
/// axiom-tagged tests, since one task searches every axiom of a run; task
/// ids hash the run's axioms, the shard and its first ticket; the checksum
/// covers the record's header line as well as its payload. (v3 also
/// journaled split records — a visited count and a resume point — and
/// hashed a ticket stride and skip into task ids; v2 also journaled a
/// duplicates counter per axiom and checksummed the payload only.)
constexpr const char* kHeaderMagic = "transform-checkpoint v4";
constexpr const char* kMagicPrefix = "transform-checkpoint ";

/// A record names at most this many axioms (an AxiomMask holds 32); a
/// larger count is a corrupt record, not an allocation request.
constexpr std::size_t kMaxAxioms = 32;

/// FNV-1a 64-bit over a byte string — the record payload checksum (and the
/// base of checkpoint_task_id). Not cryptographic; it only has to catch
/// torn writes.
std::uint64_t
fnv1a(const char* data, std::size_t size, std::uint64_t h = 1469598103934665603ULL)
{
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv1a_u64(std::uint64_t value, std::uint64_t h)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Serializes one record's payload: the tests, each as a framed block of
/// (axiom, ticket, size, canonical key, violated names, witness XML). The
/// witness goes through the exact-round-trip XML form (elt/serialize.h),
/// so a replayed test is byte-identical to the searched one.
std::string
serialize_tests(const std::vector<CheckpointJournal::JournaledTest>& tests)
{
    std::ostringstream out;
    for (const auto& [axiom, test, ticket] : tests) {
        const std::string xml = elt::execution_to_xml(test.witness);
        out << "test " << axiom << ' ' << ticket << ' ' << test.size << ' '
            << test.canonical_key.size() << ' ' << test.violated.size()
            << ' ' << xml.size() << '\n';
        out << test.canonical_key << '\n';
        for (const std::string& name : test.violated) {
            out << name << '\n';
        }
        out << xml;
    }
    return out.str();
}

bool
parse_tests(const std::string& payload, std::size_t axioms,
            std::vector<CheckpointJournal::JournaledTest>* out)
{
    std::size_t pos = 0;
    while (pos < payload.size()) {
        const std::size_t eol = payload.find('\n', pos);
        if (eol == std::string::npos) {
            return false;
        }
        std::istringstream head(payload.substr(pos, eol - pos));
        std::string tag;
        std::size_t axiom = 0;
        std::uint64_t ticket = 0;
        int size = 0;
        std::size_t key_len = 0, n_violated = 0, xml_len = 0;
        if (!(head >> tag >> axiom >> ticket >> size >> key_len >>
              n_violated >> xml_len) ||
            tag != "test" || axiom >= axioms) {
            return false;
        }
        pos = eol + 1;
        if (key_len >= payload.size() - pos) {
            return false;
        }
        SynthesizedTest test;
        test.size = size;
        test.canonical_key = payload.substr(pos, key_len);
        pos += key_len;
        if (payload[pos] != '\n') {
            return false;
        }
        ++pos;
        for (std::size_t i = 0; i < n_violated; ++i) {
            const std::size_t name_end = payload.find('\n', pos);
            if (name_end == std::string::npos) {
                return false;
            }
            test.violated.push_back(payload.substr(pos, name_end - pos));
            pos = name_end + 1;
        }
        if (xml_len > payload.size() - pos) {
            return false;
        }
        const std::optional<elt::Execution> witness =
            elt::execution_from_xml(payload.substr(pos, xml_len));
        if (!witness.has_value()) {
            return false;
        }
        test.witness = *witness;
        pos += xml_len;
        out->push_back({axiom, std::move(test), ticket});
    }
    return true;
}

}  // namespace

struct CheckpointJournal::Impl {
    std::unordered_map<std::uint64_t, ShardRecord> records;
    std::mutex append_mu;
    int fd = -1;

    ~Impl()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }

    bool
    write_all(const std::string& bytes)
    {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n =
                ::write(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return false;
            }
            done += static_cast<std::size_t>(n);
        }
        return true;
    }
};

CheckpointJournal::CheckpointJournal() : impl_(std::make_unique<Impl>()) {}
CheckpointJournal::~CheckpointJournal() = default;

std::unique_ptr<CheckpointJournal>
CheckpointJournal::create(const std::string& path,
                          const std::string& fingerprint, std::string* error)
{
    // Header through a temp file + fsync + atomic rename: a crash during
    // creation leaves either no journal or a complete empty one, never a
    // half-written header a later resume would misread.
    const std::string tmp = path + ".tmp";
    {
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0) {
            *error = tmp + ": " + std::strerror(errno);
            return nullptr;
        }
        std::ostringstream header;
        header << kHeaderMagic << '\n'
               << "fingerprint " << fingerprint.size() << '\n'
               << fingerprint << '\n';
        const std::string bytes = header.str();
        std::size_t done = 0;
        bool ok = true;
        while (ok && done < bytes.size()) {
            const ssize_t n =
                ::write(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0 && errno != EINTR) {
                ok = false;
            } else if (n > 0) {
                done += static_cast<std::size_t>(n);
            }
        }
        ok = ok && ::fsync(fd) == 0;
        ::close(fd);
        if (!ok) {
            *error = tmp + ": " + std::strerror(errno);
            return nullptr;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
    journal->impl_->fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
    if (journal->impl_->fd < 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    return journal;
}

std::unique_ptr<CheckpointJournal>
CheckpointJournal::resume(const std::string& path,
                          const std::string& fingerprint, std::string* error,
                          bool* refused)
{
    if (refused != nullptr) {
        *refused = false;
    }
    std::string contents;
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (f == nullptr) {
            *error = path + ": " + std::strerror(errno);
            return nullptr;
        }
        char buf[1 << 16];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            contents.append(buf, n);
        }
        std::fclose(f);
    }
    if (refused != nullptr) {
        *refused = true;  // every return below is a refusal until the end
    }
    // Header: magic line, fingerprint length line, fingerprint bytes.
    std::size_t pos = contents.find('\n');
    const std::string magic =
        contents.substr(0, pos == std::string::npos ? 0 : pos);
    if (magic != kHeaderMagic) {
        if (magic.rfind(kMagicPrefix, 0) == 0) {
            *error = path + ": journal format '" + magic +
                     "' is not the '" + kHeaderMagic +
                     "' this build reads — start a fresh checkpoint";
        } else {
            *error = path + ": not a transform checkpoint journal";
        }
        return nullptr;
    }
    ++pos;
    const std::size_t fp_eol = contents.find('\n', pos);
    if (fp_eol == std::string::npos) {
        *error = path + ": truncated journal header";
        return nullptr;
    }
    std::istringstream fp_head(contents.substr(pos, fp_eol - pos));
    std::string tag;
    std::size_t fp_len = 0;
    if (!(fp_head >> tag >> fp_len) || tag != "fingerprint" ||
        fp_len >= contents.size() - (fp_eol + 1) ||
        contents[fp_eol + 1 + fp_len] != '\n') {
        *error = path + ": malformed journal header";
        return nullptr;
    }
    const std::string recorded = contents.substr(fp_eol + 1, fp_len);
    if (recorded != fingerprint) {
        *error = path +
                 ": journal was written by a different run configuration "
                 "(fingerprint mismatch) — rerun with the original flags or "
                 "start a fresh checkpoint";
        return nullptr;
    }
    pos = fp_eol + 1 + fp_len + 1;  // past the fingerprint and its newline

    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
    // Records: stop at the first malformed or torn one; everything after
    // it is dropped (the shards re-search) and the file is truncated back
    // so appends continue from a clean tail.
    std::size_t good_end = pos;
    while (pos < contents.size()) {
        const std::size_t eol = contents.find('\n', pos);
        if (eol == std::string::npos) {
            break;
        }
        // The header line ends in the checksum of everything before it
        // plus the payload.
        const std::string line = contents.substr(pos, eol - pos);
        const std::size_t sum_at = line.rfind(' ');
        if (sum_at == std::string::npos) {
            break;
        }
        std::istringstream head(line.substr(0, sum_at));
        std::istringstream sum(line.substr(sum_at + 1));
        ShardRecord rec;
        std::size_t axioms = 0;
        std::size_t payload_len = 0;
        std::uint64_t checksum = 0;
        if (!(head >> tag >> rec.task_id >> axioms) || tag != "shard" ||
            axioms > kMaxAxioms) {
            break;
        }
        rec.counts.resize(axioms);
        for (AxiomCounts& counts : rec.counts) {
            head >> counts.programs >> counts.executions;
        }
        if (!(head >> payload_len) || !(sum >> checksum)) {
            break;
        }
        if (payload_len > contents.size() - (eol + 1)) {
            break;  // torn tail (the classic SIGKILL-mid-append case)
        }
        const char* payload = contents.data() + eol + 1;
        if (fnv1a(payload, payload_len, fnv1a(line.data(), sum_at)) !=
            checksum) {
            break;
        }
        if (!parse_tests(std::string(payload, payload_len), axioms,
                         &rec.tests)) {
            break;
        }
        pos = eol + 1 + payload_len;
        good_end = pos;
        journal->impl_->records[rec.task_id] = std::move(rec);
    }

    if (refused != nullptr) {
        *refused = false;
    }
    const int fd = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd < 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        *error = path + ": " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    journal->impl_->fd = fd;
    return journal;
}

const CheckpointJournal::ShardRecord*
CheckpointJournal::find(std::uint64_t task_id) const
{
    const auto it = impl_->records.find(task_id);
    return it == impl_->records.end() ? nullptr : &it->second;
}

void
CheckpointJournal::append(const ShardRecord& record)
{
    const std::string payload = serialize_tests(record.tests);
    std::ostringstream framed;
    framed << "shard " << record.task_id << ' ' << record.counts.size();
    for (const AxiomCounts& counts : record.counts) {
        framed << ' ' << counts.programs << ' ' << counts.executions;
    }
    framed << ' ' << payload.size();
    const std::string head = framed.str();
    framed << ' '
           << fnv1a(payload.data(), payload.size(),
                    fnv1a(head.data(), head.size()))
           << '\n'
           << payload;
    const std::string bytes = framed.str();
    std::lock_guard<std::mutex> lock(impl_->append_mu);
    if (impl_->fd < 0) {
        return;
    }
    // One write + fsync per completed shard: shard jobs run for
    // milliseconds to minutes, so durability costs noise. A failed write
    // degrades to a journal that simply ends earlier — resume re-searches.
    if (impl_->write_all(bytes)) {
        ::fsync(impl_->fd);
    }
}

std::size_t
CheckpointJournal::loaded() const
{
    return impl_->records.size();
}

std::uint64_t
checkpoint_task_id(const std::vector<std::string>& axioms,
                   const SkeletonShard& shard, std::uint64_t ticket_base)
{
    std::uint64_t h = fnv1a(kHeaderMagic, std::strlen(kHeaderMagic));
    h = fnv1a_u64(axioms.size(), h);
    for (const std::string& axiom : axioms) {
        h = fnv1a(axiom.data(), axiom.size(), h);
        h = fnv1a_u64(axiom.size(), h);
    }
    h = fnv1a_u64(static_cast<std::uint64_t>(shard.options.num_events), h);
    h = fnv1a_u64(shard.prefix.size(), h);
    for (const int decision : shard.prefix) {
        h = fnv1a_u64(static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(decision)),
                      h);
    }
    h = fnv1a_u64(ticket_base, h);
    return h;
}

std::string
model_fingerprint(const mtm::Model& model)
{
    const std::string source = spec::model_to_source(model.spec());
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(source.data(), source.size())));
    return "model=" + model.name() + " spec=" + hash;
}

}  // namespace transform::synth
