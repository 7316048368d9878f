#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "la/ops.h"
#include "mor/lowrank_pmor.h"
#include "mor/model_io.h"
#include "mor_test_utils.h"

namespace varmor::mor {
namespace {

using varmor::testing::small_parametric_rc;

ReducedModel make_model() {
    circuit::ParametricSystem sys = small_parametric_rc(25, 2, 401);
    LowRankPmorOptions opts;
    opts.s_order = 3;
    opts.param_order = 2;
    return lowrank_pmor(sys, opts).model;
}

TEST(ModelIo, RoundTripPreservesEverything) {
    ReducedModel original = make_model();
    std::ostringstream os;
    write_model(original, os);
    std::istringstream is(os.str());
    ReducedModel loaded = read_model(is);

    ASSERT_EQ(loaded.size(), original.size());
    ASSERT_EQ(loaded.num_ports(), original.num_ports());
    ASSERT_EQ(loaded.num_params(), original.num_params());
    EXPECT_EQ(la::norm_max(loaded.g0 - original.g0), 0.0);
    EXPECT_EQ(la::norm_max(loaded.c0 - original.c0), 0.0);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(la::norm_max(loaded.dg[static_cast<std::size_t>(i)] -
                               original.dg[static_cast<std::size_t>(i)]),
                  0.0);
        EXPECT_EQ(la::norm_max(loaded.dc[static_cast<std::size_t>(i)] -
                               original.dc[static_cast<std::size_t>(i)]),
                  0.0);
    }

    // Behavioural equality: same transfer function at an arbitrary point.
    const la::cplx s(0.0, 0.7);
    const std::vector<double> p{0.4, -0.6};
    EXPECT_EQ(la::norm_max(loaded.transfer(s, p) - original.transfer(s, p)), 0.0);
}

TEST(ModelIo, FileRoundTrip) {
    ReducedModel original = make_model();
    const std::string path = ::testing::TempDir() + "/model.rom";
    write_model_file(original, path);
    ReducedModel loaded = read_model_file(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_THROW(read_model_file("/nonexistent/model.rom"), Error);
    EXPECT_THROW(write_model_file(original, "/nonexistent/dir/model.rom"), Error);
}

TEST(ModelIo, MalformedInputsThrow) {
    auto parse = [](const std::string& text) {
        std::istringstream is(text);
        return read_model(is);
    };
    EXPECT_THROW(parse(""), Error);
    EXPECT_THROW(parse("wrong-magic 1\n"), Error);
    EXPECT_THROW(parse("varmor-rom 3\nsize 1 ports 1 params 0\n"), Error);  // version
    EXPECT_THROW(parse("varmor-rom 2\nsize 1 ports 1 params 0\n"), Error);  // missing meta
    EXPECT_THROW(parse("varmor-rom 1\nsize 0 ports 1 params 0\n"), Error);  // dims
    EXPECT_THROW(parse("varmor-rom 1\nsize 1 ports 1 params 0\nG0 1.0\n"), Error);  // truncated
    // Wrong section order.
    EXPECT_THROW(parse("varmor-rom 1\nsize 1 ports 1 params 0\nC0 1.0\n"), Error);
    // Numbers: non-finite tokens, trailing garbage, out of range.
    const std::string head = "varmor-rom 1\nsize 1 ports 1 params 0\nG0 ";
    const std::string tail = "\nC0 1\nB 1\nL 1\n";
    EXPECT_NO_THROW(parse(head + "2.5" + tail));
    for (const char* bad : {"nan", "inf", "-inf", "2.5x", "1e999"})
        EXPECT_THROW(parse(head + bad + tail), Error) << bad;
    // A 52-byte file whose header claims q = 200000 (3.2e11 bytes of G0
    // alone) is rejected as malformed, not answered with an allocation.
    const std::string huge = "varmor-rom 1\nsize 200000 ports 1 params 0\nG0 1.25 2\n";
    ASSERT_EQ(huge.size(), 52u);
    EXPECT_THROW(parse(huge), Error);
}

TEST(ModelIo, Version1FilesStillReadable) {
    // A pre-metadata file (no meta line): parses, and reports empty meta.
    const std::string v1 =
        "varmor-rom 1\nsize 1 ports 1 params 0\nG0 2.0\nC0 1.0\nB 1.0\nL 1.0\n";
    std::istringstream is(v1);
    ModelMeta meta;
    meta.cache_key = "stale";
    meta.content_hash = 7;
    const ReducedModel m = read_model(is, &meta);
    EXPECT_EQ(m.size(), 1);
    EXPECT_TRUE(meta.cache_key.empty());
    EXPECT_EQ(meta.content_hash, 0u);
}

TEST(ModelIo, MetaAndContentHashRoundTrip) {
    const ReducedModel original = make_model();
    const std::uint64_t hash = model_content_hash(original);
    EXPECT_NE(hash, 0u);

    ModelMeta meta;
    meta.cache_key = "deadbeefdeadbeef";
    std::ostringstream os;
    write_model(original, os, &meta);
    std::istringstream is(os.str());
    ModelMeta loaded_meta;
    const ReducedModel loaded = read_model(is, &loaded_meta);

    // The persisted hash is recomputed at write time, and the 17-digit text
    // format round-trips doubles exactly — so the hash of the LOADED model
    // equals both the original's hash and the recorded meta hash. This is
    // the invariant the disk cache tier's integrity check relies on.
    EXPECT_EQ(loaded_meta.cache_key, "deadbeefdeadbeef");
    EXPECT_EQ(loaded_meta.content_hash, hash);
    EXPECT_EQ(model_content_hash(loaded), hash);

    // Bitwise sensitivity: one ulp in one entry changes the hash.
    ReducedModel tweaked = original;
    tweaked.g0(0, 0) = std::nextafter(tweaked.g0(0, 0), 1e300);
    EXPECT_NE(model_content_hash(tweaked), hash);
}

TEST(ModelIo, ZeroParameterModelSupported) {
    circuit::ParametricSystem sys = small_parametric_rc(10, 0, 402, 1);
    ReducedModel m = project(sys, la::Matrix::identity(10));
    std::ostringstream os;
    write_model(m, os);
    std::istringstream is(os.str());
    ReducedModel loaded = read_model(is);
    EXPECT_EQ(loaded.num_params(), 0);
    EXPECT_EQ(loaded.size(), 10);
}

}  // namespace
}  // namespace varmor::mor
