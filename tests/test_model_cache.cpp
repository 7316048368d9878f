// service::ModelCache — the content-addressed registry under the serving
// layer. The contracts pinned here: cache keys are stable and sensitive to
// every value-affecting input; a warm hit performs ZERO reduction work
// (builds counter); the disk tier round-trips models bit-identically
// (eviction + reload); corruption is detected and repaired by rebuild;
// concurrent misses coalesce onto one build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "mor/lowrank_pmor.h"
#include "mor/model_io.h"
#include "mor_test_utils.h"
#include "service/model_cache.h"
#include "util/fault_injection.h"

namespace varmor::service {
namespace {

using varmor::testing::small_parametric_rc;

circuit::ParametricSystem test_system() { return small_parametric_rc(30, 2, 91); }

mor::LowRankPmorOptions small_reduction() {
    mor::LowRankPmorOptions opts;
    opts.s_order = 3;
    opts.param_order = 2;
    return opts;
}

/// A disk-tier directory that is empty at test start (the cache persists
/// across processes BY DESIGN, so a rerun would otherwise see the previous
/// run's models and skew the build counters).
std::string fresh_disk_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// Bitwise model equality via the stable content hash plus a direct raw
/// comparison of the nominal blocks (hash equality alone could in principle
/// collide; together they pin the bit-identity contract).
void expect_bit_identical(const mor::ReducedModel& a, const mor::ReducedModel& b) {
    EXPECT_EQ(mor::model_content_hash(a), mor::model_content_hash(b));
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.g0.raw() == b.g0.raw());
    EXPECT_TRUE(a.c0.raw() == b.c0.raw());
    EXPECT_TRUE(a.b.raw() == b.b.raw());
    EXPECT_TRUE(a.l.raw() == b.l.raw());
}

TEST(CacheKey, StableAndSensitive) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions opts = small_reduction();

    // Deterministic: the same inputs always produce the same key (this is
    // what makes the disk tier shareable across processes).
    EXPECT_EQ(cache_key(sys, opts).value, cache_key(sys, opts).value);
    EXPECT_EQ(cache_key(sys, opts).hex().size(), 16u);

    // Every value-affecting reduction option changes the key.
    mor::LowRankPmorOptions o2 = opts;
    o2.s_order += 1;
    EXPECT_NE(cache_key(sys, opts).value, cache_key(sys, o2).value);
    o2 = opts;
    o2.rank += 1;
    EXPECT_NE(cache_key(sys, opts).value, cache_key(sys, o2).value);
    o2 = opts;
    o2.include_adjoint = !o2.include_adjoint;
    EXPECT_NE(cache_key(sys, opts).value, cache_key(sys, o2).value);
    o2 = opts;
    o2.orth.drop_tol *= 10.0;
    EXPECT_NE(cache_key(sys, opts).value, cache_key(sys, o2).value);

    // Pointer-valued options do NOT change the key: they move work around
    // without changing the resulting model.
    o2 = opts;
    const sparse::SpluSymbolic sym = sparse::SpluSymbolic::analyze(sys.g0);
    o2.g0_symbolic = &sym;
    EXPECT_EQ(cache_key(sys, opts).value, cache_key(sys, o2).value);

    // One ulp in one matrix entry changes the key.
    circuit::ParametricSystem tweaked = sys;
    tweaked.g0.values()[0] = std::nextafter(tweaked.g0.values()[0], 1e300);
    EXPECT_NE(cache_key(sys, opts).value, cache_key(tweaked, opts).value);

    // A different system changes the key.
    EXPECT_NE(cache_key(sys, opts).value,
              cache_key(small_parametric_rc(31, 2, 91), opts).value);
}

TEST(ModelCache, WarmHitPerformsZeroReductionWork) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);

    ModelCache cache;
    std::atomic<int> built{0};
    auto builder = [&] {
        ++built;
        return mor::lowrank_pmor(sys, ropts).model;
    };

    const ModelCache::ModelPtr first = cache.get_or_build(key, builder);
    EXPECT_EQ(built.load(), 1);
    EXPECT_EQ(cache.stats().builds, 1);

    // Warm hit: same pointer, no builder invocation.
    const ModelCache::ModelPtr second = cache.get_or_build(key, builder);
    EXPECT_EQ(built.load(), 1);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cache.stats().memory_hits, 1);

    // A different key builds its own model.
    mor::LowRankPmorOptions other = ropts;
    other.s_order += 1;
    (void)cache.get_or_build(cache_key(sys, other),
                             [&] { return mor::lowrank_pmor(sys, other).model; });
    EXPECT_EQ(cache.stats().builds, 2);
}

TEST(ModelCache, DiskTierEvictionAndReloadBitIdentity) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);

    ModelCacheOptions copts;
    copts.disk_dir = fresh_disk_dir("varmor_cache_evict");
    ModelCache cache(copts);

    const mor::ReducedModel reference = mor::lowrank_pmor(sys, ropts).model;
    const ModelCache::ModelPtr built = cache.get_or_build(
        key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    expect_bit_identical(*built, reference);

    // The write-through copy landed on disk under the key's hex stem, with
    // the key recorded in its metadata.
    mor::ModelMeta meta;
    const mor::ReducedModel on_disk = mor::read_model_file(cache.disk_path(key), &meta);
    EXPECT_EQ(meta.cache_key, key.hex());
    expect_bit_identical(on_disk, reference);

    // Evict the memory tier; the next request must come back from disk —
    // bit-identical, with zero reduction work.
    cache.evict_memory();
    EXPECT_EQ(cache.memory_size(), 0);
    const ModelCache::ModelPtr reloaded = cache.get_or_build(
        key, [&]() -> mor::ReducedModel {
            ADD_FAILURE() << "builder must not run on a disk hit";
            return mor::lowrank_pmor(sys, ropts).model;
        });
    expect_bit_identical(*reloaded, reference);
    EXPECT_EQ(cache.stats().builds, 1);
    EXPECT_EQ(cache.stats().disk_hits, 1);
}

TEST(ModelCache, LruEvictsLeastRecentlyUsed) {
    const circuit::ParametricSystem sys = test_system();
    ModelCacheOptions copts;
    copts.memory_capacity = 2;
    ModelCache cache(copts);

    mor::LowRankPmorOptions o1 = small_reduction();
    mor::LowRankPmorOptions o2 = small_reduction();
    o2.s_order = 4;
    mor::LowRankPmorOptions o3 = small_reduction();
    o3.s_order = 2;
    const CacheKey k1 = cache_key(sys, o1), k2 = cache_key(sys, o2),
                   k3 = cache_key(sys, o3);

    auto build = [&](const mor::LowRankPmorOptions& o) {
        return [&sys, o] { return mor::lowrank_pmor(sys, o).model; };
    };
    (void)cache.get_or_build(k1, build(o1));
    (void)cache.get_or_build(k2, build(o2));
    (void)cache.get_or_build(k1, build(o1));  // bump k1 to most-recent
    (void)cache.get_or_build(k3, build(o3));  // evicts k2 (the LRU entry)

    EXPECT_EQ(cache.memory_size(), 2);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_EQ(cache.stats().builds, 3);

    // k1 survived the eviction (it was bumped); k2 did not (memory-only
    // cache, so it re-builds).
    (void)cache.get_or_build(k1, build(o1));
    EXPECT_EQ(cache.stats().builds, 3);
    (void)cache.get_or_build(k2, build(o2));
    EXPECT_EQ(cache.stats().builds, 4);
}

TEST(ModelCache, DefaultCacheHoldsItsCapacityWhateverTheKeys) {
    const circuit::ParametricSystem sys = test_system();
    ModelCache cache;  // memory-only, memory_capacity 8

    // Two keys that agree mod 8, found by scanning drop_tol (it changes the
    // key but not the build cost). Two models fit a capacity of eight
    // whatever their key bits: neither is evicted, neither rebuilds.
    const mor::LowRankPmorOptions o0 = small_reduction();
    const CacheKey k0 = cache_key(sys, o0);
    mor::LowRankPmorOptions o1 = small_reduction();
    CacheKey k1;
    for (int i = 1; i < 100000; ++i) {
        o1.orth.drop_tol = 1e-12 * (1.0 + i);
        k1 = cache_key(sys, o1);
        if (k1 != k0 && k1.value % 8 == k0.value % 8) break;
    }
    ASSERT_EQ(k1.value % 8, k0.value % 8);
    ASSERT_NE(k1, k0);

    (void)cache.get_or_build(k0, [&] { return mor::lowrank_pmor(sys, o0).model; });
    (void)cache.get_or_build(k1, [&] { return mor::lowrank_pmor(sys, o1).model; });
    (void)cache.get_or_build(k0, [&] { return mor::lowrank_pmor(sys, o0).model; });

    EXPECT_EQ(cache.memory_size(), 2);
    EXPECT_EQ(cache.stats().evictions, 0);
    EXPECT_EQ(cache.stats().builds, 2);
    EXPECT_EQ(cache.stats().memory_hits, 1);
}

TEST(ModelCache, ConcurrentHitMissStormUnderEvictionMatchesSerialBitwise) {
    const circuit::ParametricSystem sys = test_system();

    // Four distinct keys and their reference bits, built serially through a
    // cache of their own.
    std::vector<mor::LowRankPmorOptions> opts_of;
    for (int v = 0; v < 4; ++v) {
        mor::LowRankPmorOptions o = small_reduction();
        o.s_order = 2 + v;
        opts_of.push_back(o);
    }
    ModelCache reference;
    std::vector<ModelCache::ModelPtr> ref_models;
    for (const auto& o : opts_of)
        ref_models.push_back(reference.get_or_build(
            cache_key(sys, o), [&] { return mor::lowrank_pmor(sys, o).model; }));

    ModelCache cache;

    // The storm: 8 clients hammer all four keys while the main thread evicts
    // the whole memory tier underneath them — every answer must still be the
    // reference bits (misses rebuild deterministically, hits serve the same).
    const int kClients = 8;
    const int kRounds = 24;
    std::vector<std::vector<ModelCache::ModelPtr>> got(kClients);
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t)
        clients.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                const std::size_t v = static_cast<std::size_t>((t + r) % 4);
                got[static_cast<std::size_t>(t)].push_back(cache.get_or_build(
                    cache_key(sys, opts_of[v]),
                    [&, v] { return mor::lowrank_pmor(sys, opts_of[v]).model; }));
            }
        });
    for (int e = 0; e < 4; ++e) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cache.evict_memory();
    }
    for (std::thread& c : clients) c.join();

    for (int t = 0; t < kClients; ++t)
        for (int r = 0; r < kRounds; ++r) {
            const auto& m = got[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
            ASSERT_TRUE(m != nullptr);
            expect_bit_identical(*m, *ref_models[static_cast<std::size_t>((t + r) % 4)]);
        }
    // Counted paths never exceed the request count (coalesced single-flight
    // waiters ride a winner's build and count neither a hit nor a build), and
    // every key was built at least once.
    const ModelCacheStats agg = cache.stats();
    EXPECT_LE(agg.memory_hits + agg.builds, kClients * kRounds);
    EXPECT_GE(agg.builds, 4);
}

TEST(ModelCache, CorruptDiskFileIsRebuiltNotServed) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);

    ModelCacheOptions copts;
    copts.disk_dir = fresh_disk_dir("varmor_cache_corrupt");
    ModelCache cache(copts);
    (void)cache.get_or_build(key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    EXPECT_EQ(cache.stats().builds, 1);

    // Corrupt one payload digit: the file still parses, but its recorded
    // content hash no longer matches — the integrity gate must reject it.
    {
        std::ifstream in(cache.disk_path(key));
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t pos = text.find("G0\n");
        ASSERT_NE(pos, std::string::npos);
        text[pos + 3] = text[pos + 3] == '1' ? '2' : '1';
        std::ofstream out(cache.disk_path(key));
        out << text;
    }
    cache.evict_memory();
    (void)cache.get_or_build(key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    EXPECT_EQ(cache.stats().builds, 2);
    EXPECT_EQ(cache.stats().disk_hits, 0);
}

TEST(ModelCache, ConcurrentMissesCoalesceOntoOneBuild) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);

    ModelCache cache;
    std::atomic<int> built{0};
    std::vector<ModelCache::ModelPtr> results(6);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < results.size(); ++t)
        clients.emplace_back([&, t] {
            results[t] = cache.get_or_build(key, [&] {
                ++built;
                return mor::lowrank_pmor(sys, ropts).model;
            });
        });
    for (std::thread& c : clients) c.join();

    EXPECT_EQ(built.load(), 1);
    EXPECT_EQ(cache.stats().builds, 1);
    for (const auto& r : results) {
        ASSERT_TRUE(r != nullptr);
        EXPECT_EQ(r.get(), results[0].get());
    }
}

/// In-flight writes are `<name>.tmp.<pid>.<seq>`; after any completed
/// operation none may remain (a leftover is a crashed-writer simulation, not
/// a normal outcome).
int count_tmp_files(const std::string& dir) {
    int n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().find(".tmp.") != std::string::npos)
            ++n;
    return n;
}

/// The `.rom` stems actually present, sorted.
std::vector<std::string> rom_stems(const std::string& dir) {
    std::vector<std::string> stems;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".rom")
            stems.push_back(entry.path().stem().string());
    std::sort(stems.begin(), stems.end());
    return stems;
}

/// The corruption matrix: every way a shared disk can hand back a damaged
/// artifact must end in detect → rebuild → repersist, with no orphan temp
/// files — never in serving bad bits and never in a crash.
void expect_corruption_repaired(const std::string& dir_name,
                                const std::function<void(const std::string&)>& damage) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);
    const mor::ReducedModel reference = mor::lowrank_pmor(sys, ropts).model;

    ModelCacheOptions copts;
    copts.disk_dir = fresh_disk_dir(dir_name);
    copts.retry.backoff_ms = 0.1;
    ModelCache cache(copts);
    (void)cache.get_or_build(key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    ASSERT_EQ(cache.stats().builds, 1);

    damage(cache.disk_path(key));
    cache.evict_memory();

    // The damaged artifact is a miss: detected, rebuilt, NOT served.
    const ModelCache::ModelPtr repaired = cache.get_or_build(
        key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    expect_bit_identical(*repaired, reference);
    EXPECT_EQ(cache.stats().builds, 2);
    EXPECT_EQ(cache.stats().disk_hits, 0);
    EXPECT_GE(cache.telemetry().counter("disk_store.load_failures"), 1);

    // The rebuild REPERSISTED a good artifact: the next cold probe is a
    // verified disk hit again, and no in-flight temp files were left behind.
    cache.evict_memory();
    (void)cache.get_or_build(key, [&]() -> mor::ReducedModel {
        ADD_FAILURE() << "builder must not run after the repair persisted";
        return mor::lowrank_pmor(sys, ropts).model;
    });
    EXPECT_EQ(cache.stats().builds, 2);
    EXPECT_EQ(cache.stats().disk_hits, 1);
    EXPECT_EQ(count_tmp_files(copts.disk_dir), 0);
}

TEST(ModelCache, TruncatedDiskFileIsRebuiltAndRepersisted) {
    expect_corruption_repaired("varmor_cache_truncated", [](const std::string& path) {
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    });
}

TEST(ModelCache, BadMagicDiskFileIsRebuiltAndRepersisted) {
    expect_corruption_repaired("varmor_cache_badmagic", [](const std::string& path) {
        std::ofstream out(path, std::ios::trunc);
        out << "not a varmor model\n";
    });
}

TEST(ModelCache, FlippedPayloadBitIsRebuiltAndRepersisted) {
    expect_corruption_repaired("varmor_cache_bitflip", [](const std::string& path) {
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t pos = text.find("G0\n");
        ASSERT_NE(pos, std::string::npos);
        text[pos + 3] = text[pos + 3] == '1' ? '2' : '1';
        std::ofstream out(path, std::ios::trunc);
        out << text;
    });
}

TEST(ModelCache, StaleTmpFromCrashedWriterIsSweptAtStartup) {
    const std::string dir = fresh_disk_dir("varmor_cache_staletmp");
    std::filesystem::create_directories(dir);
    // A crashed writer's leftovers: a writer-unique temp name that will
    // never be renamed into place.
    {
        std::ofstream orphan(dir + "/deadbeefdeadbeef.rom.tmp.99999.0");
        orphan << "half-written artifact";
    }

    ModelCacheOptions copts;
    copts.disk_dir = dir;
    copts.tmp_ttl_seconds = 0.0;  // everything qualifies as stale
    ModelCache cache(copts);      // construction runs the recovery sweep

    EXPECT_EQ(count_tmp_files(dir), 0);
    EXPECT_GE(cache.telemetry().counter("disk_store.tmp_removed"), 1);

    // The sweep touched only temp files; a real artifact written afterwards
    // is untouched by subsequent sweeps even at TTL zero.
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);
    (void)cache.get_or_build(key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    cache.disk_store()->sweep();
    EXPECT_TRUE(std::filesystem::exists(cache.disk_path(key)));
}

TEST(ModelCache, DiskGcEvictsOldestArtifact) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions o1 = small_reduction();
    mor::LowRankPmorOptions o2 = small_reduction();
    o2.s_order = 4;

    // Measure one artifact to size the capacity bound: k1 fits alone, k1+k2
    // does not.
    const std::string probe_dir = fresh_disk_dir("varmor_cache_gc_probe");
    std::uintmax_t artifact_bytes = 0;
    {
        ModelCacheOptions copts;
        copts.disk_dir = probe_dir;
        ModelCache probe(copts);
        (void)probe.get_or_build(cache_key(sys, o1),
                                 [&] { return mor::lowrank_pmor(sys, o1).model; });
        artifact_bytes = std::filesystem::file_size(probe.disk_path(cache_key(sys, o1)));
    }

    ModelCacheOptions copts;
    copts.disk_dir = fresh_disk_dir("varmor_cache_gc");
    copts.disk_capacity_bytes = artifact_bytes + 16;
    ModelCache cache(copts);
    const CacheKey k1 = cache_key(sys, o1), k2 = cache_key(sys, o2);

    (void)cache.get_or_build(k1, [&] { return mor::lowrank_pmor(sys, o1).model; });
    EXPECT_TRUE(std::filesystem::exists(cache.disk_path(k1)));  // fits alone

    // k2 pushes the store over capacity: the GC removes the OLDEST artifact
    // (k1) and never the one just written.
    (void)cache.get_or_build(k2, [&] { return mor::lowrank_pmor(sys, o2).model; });
    EXPECT_FALSE(std::filesystem::exists(cache.disk_path(k1)));
    EXPECT_TRUE(std::filesystem::exists(cache.disk_path(k2)));
    EXPECT_EQ(cache.telemetry().counter("disk_store.gc_removed"), 1);
    EXPECT_EQ(rom_stems(copts.disk_dir), std::vector<std::string>{k2.hex()});

    // A GC-evicted key is a clean miss: it rebuilds (memory still holds it
    // here, so evict that tier first to prove the disk path).
    cache.evict_memory();
    (void)cache.get_or_build(k1, [&] { return mor::lowrank_pmor(sys, o1).model; });
    EXPECT_EQ(cache.stats().builds, 3);
}

TEST(ModelCache, SecondInstanceServesFromSharedDiskWithoutBuilding) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = small_reduction();
    const CacheKey key = cache_key(sys, ropts);
    const std::string dir = fresh_disk_dir("varmor_cache_shared_seq");

    ModelCacheOptions copts;
    copts.disk_dir = dir;
    ModelCache first(copts);
    const ModelCache::ModelPtr built = first.get_or_build(
        key, [&] { return mor::lowrank_pmor(sys, ropts).model; });

    // A second instance on the same directory — another process in spirit —
    // must serve the key from the shared store with zero reduction work.
    ModelCache second(copts);
    const ModelCache::ModelPtr reloaded = second.get_or_build(
        key, [&]() -> mor::ReducedModel {
            ADD_FAILURE() << "second instance must reload, not rebuild";
            return mor::lowrank_pmor(sys, ropts).model;
        });
    expect_bit_identical(*built, *reloaded);
    EXPECT_EQ(second.stats().builds, 0);
    EXPECT_EQ(second.stats().disk_hits, 1);
}

TEST(ModelCache, TwoInstancesOneDiskConcurrentBuildsUnderFaultsStayCoherent) {
    using util::FaultInjector;
    using util::ScopedFault;

    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions o1 = small_reduction();
    mor::LowRankPmorOptions o2 = small_reduction();
    o2.s_order = 4;
    const CacheKey k1 = cache_key(sys, o1), k2 = cache_key(sys, o2);
    const mor::ReducedModel ref1 = mor::lowrank_pmor(sys, o1).model;
    const mor::ReducedModel ref2 = mor::lowrank_pmor(sys, o2).model;

    FaultInjector::instance().clear();
    ModelCacheOptions copts;
    copts.disk_dir = fresh_disk_dir("varmor_cache_shared_conc");
    copts.retry.backoff_ms = 0.1;
    ModelCache a(copts), b(copts);

    // A transient disk-write fault in the middle of the stampede: the retry
    // policy must absorb it without breaking any of the guarantees below.
    ScopedFault flaky("model_cache.disk_write",
                      FaultInjector::fail_first(1, "EIO once"));

    std::atomic<int> built1{0}, built2{0};
    auto build1 = [&] { ++built1; return mor::lowrank_pmor(sys, o1).model; };
    auto build2 = [&] { ++built2; return mor::lowrank_pmor(sys, o2).model; };

    std::vector<ModelCache::ModelPtr> out(8);
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t)
        clients.emplace_back([&, t] {
            ModelCache& cache = (t % 2 == 0) ? a : b;
            out[static_cast<std::size_t>(t)] =
                (t < 4) ? cache.get_or_build(k1, build1)
                        : cache.get_or_build(k2, build2);
        });
    for (std::thread& c : clients) c.join();

    // No double builds: in-process single-flight dedups within an instance,
    // the per-key file lock + re-probe dedups ACROSS instances — exactly one
    // reduction per key, total, no matter who won.
    EXPECT_EQ(built1.load(), 1);
    EXPECT_EQ(built2.load(), 1);
    EXPECT_EQ(a.stats().builds + b.stats().builds, 2);

    // No corruption: every client of either instance got the reference bits.
    for (int t = 0; t < 8; ++t) {
        ASSERT_TRUE(out[static_cast<std::size_t>(t)] != nullptr);
        expect_bit_identical(*out[static_cast<std::size_t>(t)],
                             t < 4 ? ref1 : ref2);
    }

    // The shared directory holds exactly the two keys' artifacts, and no
    // in-flight temp files survive.
    std::vector<std::string> want = {k1.hex(), k2.hex()};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(rom_stems(copts.disk_dir), want);
    EXPECT_EQ(count_tmp_files(copts.disk_dir), 0);
    FaultInjector::instance().clear();
}

TEST(ModelCache, MemoryOnlyCacheHasNoDiskPath) {
    ModelCache cache;
    EXPECT_TRUE(cache.disk_path(cache_key(test_system(), small_reduction())).empty());
}

}  // namespace
}  // namespace varmor::service
