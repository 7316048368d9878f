#include "service/disk_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mor/model_io.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace varmor::service {

namespace fs = std::filesystem;

namespace {

constexpr const char* kStoreLockName = "store.lock";

void backoff_sleep(const RetryPolicy& retry, int attempt) {
    double ms = retry.backoff_ms;
    for (int i = 1; i < attempt; ++i) ms *= retry.multiplier;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Writer-unique temp name (pid + process-local counter): concurrent writers
/// — threads or processes — never collide, and a crashed writer's leftover
/// is recognizable by the ".tmp." infix for the stale sweep.
std::string temp_name(const std::string& final_path) {
    static std::atomic<unsigned> seq{0};
    return final_path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq++);
}

bool is_temp_file(const fs::path& p) {
    return p.filename().string().find(".tmp.") != std::string::npos;
}

double file_age_seconds(const fs::path& p, std::error_code& ec) {
    const auto mtime = fs::last_write_time(p, ec);
    if (ec) return 0.0;
    return std::chrono::duration<double>(fs::file_time_type::clock::now() - mtime)
        .count();
}

}  // namespace

DiskStore::DiskStore(const DiskStoreOptions& opts) : opts_(opts) {
    check(!opts_.dir.empty(), "DiskStore: empty directory");
    check(opts_.retry.attempts >= 1, "DiskStore: retry.attempts must be >= 1");
    fs::create_directories(opts_.dir);
    // Startup recovery: a server that replaces a crashed one inherits the
    // dead writer's orphans — clean them before serving.
    sweep();
}

std::string DiskStore::path(const std::string& key_hex) const {
    return (fs::path(opts_.dir) / (key_hex + ".rom")).string();
}

std::string DiskStore::lock_path(const std::string& key_hex) const {
    return (fs::path(opts_.dir) / (key_hex + ".lock")).string();
}

util::FileLock DiskStore::lock_key(const std::string& key_hex) {
    return util::FileLock::acquire(lock_path(key_hex));
}

std::shared_ptr<const mor::ReducedModel> DiskStore::load(const std::string& key_hex) {
    const std::string file = path(key_hex);
    for (int attempt = 1; attempt <= opts_.retry.attempts; ++attempt) {
        try {
            VARMOR_FAULT_POINT_DETAIL("model_cache.disk_read", key_hex);
            if (!fs::exists(file)) return nullptr;  // plain miss, not a failure
            mor::ModelMeta meta;
            auto model =
                std::make_shared<mor::ReducedModel>(mor::read_model_file(file, &meta));
            VARMOR_FAULT_POINT_DETAIL("model_cache.reload_verify", key_hex);
            // Integrity gate: serve only what hashes to what the writer
            // recorded. A corrupted / truncated / hand-edited file reads the
            // same on every retry, so a verify failure is a MISS (rebuild),
            // never a retry and never a crash.
            if (meta.content_hash != mor::model_content_hash(*model)) {
                registry_.counter("disk_store.load_failures").add();
                return nullptr;
            }
            registry_.counter("disk_store.loads").add();
            return model;
        } catch (const std::exception&) {
            // Unreadable == transient until the retry budget says otherwise.
            // std::exception (not just varmor::Error): a corrupted dimension
            // line can surface as bad_alloc/length_error from the matrix
            // allocation, and that too must end as a rebuild, never a crash
            // in the serving path.
            if (attempt == opts_.retry.attempts) {
                registry_.counter("disk_store.load_failures").add();
                return nullptr;
            }
            registry_.counter("disk_store.retries").add();
        }
        backoff_sleep(opts_.retry, attempt);
    }
    return nullptr;
}

bool DiskStore::store(const std::string& key_hex, const mor::ReducedModel& model) {
    const std::string file = path(key_hex);
    bool persisted = false;
    for (int attempt = 1; attempt <= opts_.retry.attempts && !persisted; ++attempt) {
        const std::string tmp = temp_name(file);
        try {
            VARMOR_FAULT_POINT_DETAIL("model_cache.disk_write", key_hex);
            mor::ModelMeta meta;
            meta.cache_key = key_hex;
            // Atomic publication: write the complete artifact under a
            // writer-unique temp name, then rename. Readers (and other
            // processes sharing the store) never observe a torn file; two
            // processes persisting one key each rename their own complete
            // file — last writer wins with identical bytes.
            mor::write_model_file(model, tmp, &meta);
            VARMOR_FAULT_POINT_DETAIL("model_cache.rename", key_hex);
            fs::rename(tmp, file);
            persisted = true;
        } catch (const std::exception&) {
            std::error_code ec;
            fs::remove(tmp, ec);  // this attempt's leftovers, best-effort
            if (attempt == opts_.retry.attempts) {
                registry_.counter("disk_store.store_failures").add();
            } else {
                registry_.counter("disk_store.retries").add();
            }
        }
        if (!persisted && attempt < opts_.retry.attempts)
            backoff_sleep(opts_.retry, attempt);
    }
    if (persisted) {
        registry_.counter("disk_store.stores").add();
        util::FileLock store_lock =
            util::FileLock::acquire((fs::path(opts_.dir) / kStoreLockName).string());
        maintain_locked(key_hex);
    }
    return persisted;
}

void DiskStore::sweep() {
    util::FileLock store_lock =
        util::FileLock::acquire((fs::path(opts_.dir) / kStoreLockName).string());
    maintain_locked({});
}

void DiskStore::maintain_locked(const std::string& just_written_hex) {
    // 1. Stale-tmp sweep: a crashed writer leaves a complete-or-partial
    //    .tmp.* file behind; anything older than the TTL cannot belong to a
    //    live write (writes are seconds at most) and is removed. A bounded
    //    store also lists its artifacts for the GC.
    struct Artifact {
        fs::path path;
        std::string key;
        std::uint64_t bytes = 0;
        fs::file_time_type mtime;
    };
    std::vector<Artifact> artifacts;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(opts_.dir, ec)) {
        const fs::path& p = entry.path();
        if (is_temp_file(p)) {
            std::error_code age_ec;
            if (file_age_seconds(p, age_ec) >= opts_.tmp_ttl_seconds && !age_ec) {
                std::error_code rm_ec;
                if (fs::remove(p, rm_ec))
                    registry_.counter("disk_store.tmp_removed").add();
            }
            continue;
        }
        if (opts_.capacity_bytes == 0 || p.extension() != ".rom") continue;
        Artifact a;
        a.path = p;
        a.key = p.stem().string();
        std::error_code sz_ec, mt_ec;
        a.bytes = static_cast<std::uint64_t>(fs::file_size(p, sz_ec));
        a.mtime = fs::last_write_time(p, mt_ec);
        if (!sz_ec && !mt_ec) artifacts.push_back(std::move(a));
    }

    // 2. Size-bounded GC, oldest-first (mtime, then key for a deterministic
    //    tie-break). The artifact just persisted by THIS call survives the
    //    pass unconditionally — storing a model and immediately GCing it
    //    away would turn every insert into a rebuild for someone.
    std::uint64_t total = 0;
    for (const Artifact& a : artifacts) total += a.bytes;
    std::sort(artifacts.begin(), artifacts.end(), [](const Artifact& a, const Artifact& b) {
        if (a.mtime != b.mtime) return a.mtime < b.mtime;
        return a.key < b.key;
    });
    for (const Artifact& a : artifacts) {
        if (total <= opts_.capacity_bytes) break;
        if (a.key == just_written_hex) continue;
        std::error_code rm_ec;
        if (fs::remove(a.path, rm_ec)) {
            total -= a.bytes;
            registry_.counter("disk_store.gc_removed").add();
        }
    }
}

}  // namespace varmor::service
