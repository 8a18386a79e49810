// Persistence round-trip guarantees beyond the structural checks in
// integration_test: saved-then-loaded artifacts must be *behaviourally*
// identical — the same adaptive run bit-for-bit, the same golden
// trajectory within the committed tolerances — so a deployment that
// reloads artifacts from disk serves exactly what the offline phase
// produced.

#include "core/persistence.hpp"
#include "core/session.hpp"
#include "golden_support.hpp"
#include "nn/conv2d.hpp"
#include "serve/session_server.hpp"
#include "serve_test_support.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace sfn {
namespace {

class PersistenceRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    original_ = new core::OfflineArtifacts(test::make_test_artifacts());
    dir_ = std::filesystem::temp_directory_path() / "sfn_persistence_test";
    core::save_artifacts(*original_, dir_);
    loaded_ = new core::OfflineArtifacts(core::load_artifacts(dir_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(dir_);
    delete original_;
    delete loaded_;
    original_ = nullptr;
    loaded_ = nullptr;
  }

  static core::OfflineArtifacts* original_;
  static core::OfflineArtifacts* loaded_;
  static std::filesystem::path dir_;
};

core::OfflineArtifacts* PersistenceRoundTrip::original_ = nullptr;
core::OfflineArtifacts* PersistenceRoundTrip::loaded_ = nullptr;
std::filesystem::path PersistenceRoundTrip::dir_;

TEST_F(PersistenceRoundTrip, StructureSurvives) {
  ASSERT_EQ(loaded_->library.size(), original_->library.size());
  EXPECT_EQ(loaded_->pareto_ids, original_->pareto_ids);
  EXPECT_EQ(loaded_->selected_ids, original_->selected_ids);
  EXPECT_EQ(loaded_->quality_db.size(), original_->quality_db.size());
  EXPECT_DOUBLE_EQ(loaded_->requirement.quality_loss,
                   original_->requirement.quality_loss);
  for (std::size_t m = 0; m < loaded_->library.size(); ++m) {
    EXPECT_TRUE(loaded_->library[m].spec == original_->library[m].spec);
    EXPECT_EQ(loaded_->library[m].net.param_count(),
              original_->library[m].net.param_count());
  }
}

TEST_F(PersistenceRoundTrip, AdaptiveRunIsBitIdenticalAfterReload) {
  // The strongest equivalence: the reloaded artifact set drives the same
  // problem to the same final field, the same decisions, the same
  // per-step model trace — save→load changed nothing that matters.
  const auto problem = test::make_test_problem(7001, 16, 12);
  const auto before = core::run_adaptive(problem, *original_);
  const auto after = core::run_adaptive(problem, *loaded_);

  ASSERT_EQ(before.final_density.size(), after.final_density.size());
  for (std::size_t k = 0; k < before.final_density.size(); ++k) {
    ASSERT_EQ(before.final_density[k], after.final_density[k]) << k;
  }
  EXPECT_EQ(before.model_per_step, after.model_per_step);
  EXPECT_EQ(before.restarted_with_pcg, after.restarted_with_pcg);
  ASSERT_EQ(before.events.size(), after.events.size());
  for (std::size_t i = 0; i < before.events.size(); ++i) {
    EXPECT_EQ(before.events[i].decision, after.events[i].decision);
    EXPECT_EQ(before.events[i].cum_div_norm, after.events[i].cum_div_norm);
    EXPECT_EQ(before.events[i].predicted_quality,
              after.events[i].predicted_quality);
  }
}

TEST_F(PersistenceRoundTrip, LoadedArtifactsReproduceGoldenTrajectories) {
  // Ties persistence to the golden layer: the committed baselines were
  // recorded with library[0]; the *reloaded* library[0] must reproduce
  // them within the same tolerances the golden test enforces.
  for (const auto& which : test::canonical_golden_cases()) {
    const std::string path =
        std::string(SFN_GOLDEN_DIR) + "/" + which.name + ".json";
    const auto golden = test::load_golden(path);
    const auto actual = test::record_trajectory(which.name, which.problem,
                                                loaded_->library[0]);
    const test::GoldenTolerances tol;
    util::Table diff = test::make_diff_table();
    EXPECT_TRUE(test::compare_golden(golden, actual, tol, &diff))
        << which.name << ": reloaded model drifted from baseline\n"
        << diff.to_string();
  }
}

TEST_F(PersistenceRoundTrip, ReloadedArtifactsServeIdenticallyToOriginals) {
  // End-to-end: a server fed reloaded artifacts coalesces across sessions
  // referencing *its* weight copies and still matches the original solo
  // run exactly.
  const auto problem = test::make_test_problem(7002, 16, 10);
  const auto solo = core::run_adaptive(problem, *original_);

  serve::ServerConfig config;
  config.session_threads = 2;
  serve::SessionServer server(config);
  const auto a = server.submit_adaptive(problem, *loaded_);
  const auto b = server.submit_adaptive(problem, *loaded_);
  for (const auto id : {a, b}) {
    const auto served = server.wait(id);
    ASSERT_EQ(solo.final_density.size(), served.final_density.size());
    for (std::size_t k = 0; k < solo.final_density.size(); ++k) {
      ASSERT_EQ(solo.final_density[k], served.final_density[k]) << k;
    }
    EXPECT_EQ(solo.model_per_step, served.model_per_step);
  }
}

TEST_F(PersistenceRoundTrip, SecondRoundTripIsStable) {
  // save(load(save(x))) == load(save(x)): the format has a fixed point,
  // so repeated deploy cycles cannot accumulate drift.
  const auto dir2 =
      std::filesystem::temp_directory_path() / "sfn_persistence_test2";
  core::save_artifacts(*loaded_, dir2);
  const auto twice = core::load_artifacts(dir2);
  std::filesystem::remove_all(dir2);

  const auto problem = test::make_test_problem(7003, 16, 8);
  const auto once_run = core::run_adaptive(problem, *loaded_);
  const auto twice_run = core::run_adaptive(problem, twice);
  ASSERT_EQ(once_run.final_density.size(), twice_run.final_density.size());
  for (std::size_t k = 0; k < once_run.final_density.size(); ++k) {
    ASSERT_EQ(once_run.final_density[k], twice_run.final_density[k]) << k;
  }
}

/// `bytes` with the i32 at `offset` replaced by `tag`.
std::string with_tag(std::string bytes, std::size_t offset, std::int32_t tag) {
  std::memcpy(bytes.data() + offset, &tag, sizeof(tag));
  return bytes;
}

/// Runs `load` and expects the runtime_error that names the precision
/// field.
template <typename Load>
void expect_precision_rejected(Load load) {
  try {
    load();
    ADD_FAILURE() << "a non-fp32 precision tag loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("precision"), std::string::npos)
        << e.what();
  }
}

TEST(PersistenceFormat, NetworkRejectsNonFp32PrecisionTag) {
  // Every conv still writes the fp32 tag (0) in its precision slot: after
  // the magic, version, layer count, kind string and four dimensions.
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 4, 3);
  std::stringstream buffer;
  net.save(buffer);
  const std::size_t offset = 4 * 4 + std::string("conv2d").size() + 4 * 4;
  std::int32_t written = -1;
  std::memcpy(&written, buffer.str().data() + offset, sizeof(written));
  EXPECT_EQ(0, written);
  for (const std::int32_t tag : {1, 2}) {
    SCOPED_TRACE(tag);
    expect_precision_rejected([&] {
      std::istringstream in(with_tag(buffer.str(), offset, tag));
      (void)nn::Network::load(in);
    });
  }
}

TEST_F(PersistenceRoundTrip, ArtifactSpecRejectsNonFp32PrecisionTag) {
  // Saved to a directory of its own: ctest runs each test of this suite
  // in its own process, and their teardowns remove dir_.
  const auto dir =
      std::filesystem::temp_directory_path() / "sfn_persistence_tag_test";
  core::save_artifacts(*original_, dir);
  std::string bytes;
  {
    std::ifstream in(dir / "artifacts.bin", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The first model's spec slot sits after the magic, version, model
  // count and the spec's in/out channel counts.
  const std::size_t offset = 5 * 4;
  ASSERT_GT(bytes.size(), offset + 4);
  std::int32_t written = -1;
  std::memcpy(&written, bytes.data() + offset, sizeof(written));
  EXPECT_EQ(0, written);
  for (const std::int32_t tag : {1, 2}) {
    SCOPED_TRACE(tag);
    {
      std::ofstream out(dir / "artifacts.bin", std::ios::binary);
      const std::string patched = with_tag(bytes, offset, tag);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    expect_precision_rejected([&] { (void)core::load_artifacts(dir); });
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sfn
