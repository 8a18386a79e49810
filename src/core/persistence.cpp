#include "core/persistence.hpp"

#include "core/stepper.hpp"
#include "nn/serialize.hpp"

#include <fstream>

namespace sfn::core {

void save_session_checkpoint(const SessionStepper& stepper,
                             const std::filesystem::path& file) {
  std::ofstream out(file, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_session_checkpoint: cannot open " +
                             file.string());
  }
  stepper.save_checkpoint(out);
  out.flush();
  if (!out) {
    throw std::runtime_error("save_session_checkpoint: write failed for " +
                             file.string());
  }
}

void load_session_checkpoint(SessionStepper* stepper,
                             const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_session_checkpoint: cannot open " +
                             file.string());
  }
  stepper->restore_checkpoint(in);
}

static constexpr std::int32_t kArtifactMagic = 0x53464152;  // "SFAR"
// v2 added a precision slot to each spec, which now always holds
// nn::io::kPrecisionTagF32. No v1 artifacts are shipped, so load rejects
// them.
static constexpr std::int32_t kArtifactVersion = 2;

void save_spec(const modelgen::ArchSpec& spec, std::ostream& out) {
  using namespace nn::io;
  write_i32(out, spec.in_channels);
  write_i32(out, spec.out_channels);
  write_i32(out, kPrecisionTagF32);
  write_string(out, spec.name);
  write_i32(out, static_cast<std::int32_t>(spec.stages.size()));
  for (const auto& s : spec.stages) {
    write_i32(out, s.kernel);
    write_i32(out, s.channels);
    write_i32(out, s.pool);
    write_i32(out, s.unpool);
    write_i32(out, s.residual ? 1 : 0);
    write_i32(out, s.relu ? 1 : 0);
    write_i32(out, s.max_pool ? 1 : 0);
    write_f64(out, s.dropout);
  }
}

modelgen::ArchSpec load_spec(std::istream& in) {
  using namespace nn::io;
  modelgen::ArchSpec spec;
  spec.in_channels = read_i32(in);
  spec.out_channels = read_i32(in);
  const std::int32_t tag = read_i32(in);
  if (tag != kPrecisionTagF32) {
    throw std::runtime_error("load_spec: precision = " + std::to_string(tag) +
                             ", want 0 (fp32)");
  }
  spec.name = read_string(in);
  const int stages = read_i32(in);
  spec.stages.resize(static_cast<std::size_t>(stages));
  for (auto& s : spec.stages) {
    s.kernel = read_i32(in);
    s.channels = read_i32(in);
    s.pool = read_i32(in);
    s.unpool = read_i32(in);
    s.residual = read_i32(in) != 0;
    s.relu = read_i32(in) != 0;
    s.max_pool = read_i32(in) != 0;
    s.dropout = read_f64(in);
  }
  return spec;
}

namespace {

using namespace nn::io;

void save_records(const quality::ModelRecords& records, std::ostream& out) {
  write_i32(out, static_cast<std::int32_t>(records.model_id));
  write_i32(out, static_cast<std::int32_t>(records.records.size()));
  for (const auto& r : records.records) {
    write_f64(out, r.quality_loss);
    write_f64(out, r.seconds);
  }
}

quality::ModelRecords load_records(std::istream& in) {
  quality::ModelRecords records;
  records.model_id = static_cast<std::size_t>(read_i32(in));
  const int n = read_i32(in);
  records.records.resize(static_cast<std::size_t>(n));
  for (auto& r : records.records) {
    r.quality_loss = read_f64(in);
    r.seconds = read_f64(in);
  }
  return records;
}

void save_ids(const std::vector<std::size_t>& ids, std::ostream& out) {
  write_i32(out, static_cast<std::int32_t>(ids.size()));
  for (std::size_t id : ids) {
    write_i32(out, static_cast<std::int32_t>(id));
  }
}

std::vector<std::size_t> load_ids(std::istream& in) {
  const int n = read_i32(in);
  std::vector<std::size_t> ids(static_cast<std::size_t>(n));
  for (auto& id : ids) {
    id = static_cast<std::size_t>(read_i32(in));
  }
  return ids;
}

void save_curve(const std::vector<double>& xs, std::ostream& out) {
  write_i32(out, static_cast<std::int32_t>(xs.size()));
  for (double x : xs) {
    write_f64(out, x);
  }
}

std::vector<double> load_curve(std::istream& in) {
  const int n = read_i32(in);
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (auto& x : xs) {
    x = read_f64(in);
  }
  return xs;
}

}  // namespace

void save_artifacts(const OfflineArtifacts& artifacts,
                    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / "artifacts.bin", std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_artifacts: cannot open " +
                             (dir / "artifacts.bin").string());
  }
  write_i32(out, kArtifactMagic);
  write_i32(out, kArtifactVersion);

  write_i32(out, static_cast<std::int32_t>(artifacts.library.size()));
  for (const auto& model : artifacts.library.models) {
    save_spec(model.spec, out);
    model.net.save(out);
    write_string(out, model.origin);
    write_f64(out, model.train_loss);
    write_f64(out, model.mean_seconds);
    write_f64(out, model.mean_quality);
    save_records(model.records, out);
  }

  save_ids(artifacts.pareto_ids, out);
  save_ids(artifacts.selected_ids, out);

  write_i32(out, static_cast<std::int32_t>(artifacts.scores.size()));
  for (const auto& s : artifacts.scores) {
    write_i32(out, static_cast<std::int32_t>(s.model_id));
    write_f64(out, s.success_probability);
    write_f64(out, s.model_seconds);
    write_f64(out, s.expected_seconds);
    write_i32(out, s.selected ? 1 : 0);
  }

  write_i32(out, artifacts.predictor ? 1 : 0);
  if (artifacts.predictor) {
    artifacts.predictor->network().save(out);
    const auto& scale = artifacts.predictor->scale();
    write_f64(out, scale.max_quality);
    write_f64(out, scale.max_time);
    write_f64(out, scale.max_layers);
    write_f64(out, scale.max_kernel);
    write_f64(out, scale.max_channels);
    write_f64(out, scale.max_pool);
  }

  save_curve(artifacts.mlp_curve.train_loss, out);
  save_curve(artifacts.mlp_curve.validation_loss, out);

  const auto& entries = artifacts.quality_db.entries();
  write_i32(out, static_cast<std::int32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    write_f64(out, key);
    write_f64(out, value);
  }

  write_f64(out, artifacts.pcg_mean_seconds);
  write_f64(out, artifacts.requirement.quality_loss);
  write_f64(out, artifacts.requirement.seconds);
}

OfflineArtifacts load_artifacts(const std::filesystem::path& dir) {
  std::ifstream in(dir / "artifacts.bin", std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_artifacts: cannot open " +
                             (dir / "artifacts.bin").string());
  }
  if (read_i32(in) != kArtifactMagic) {
    throw std::runtime_error("load_artifacts: bad magic");
  }
  if (read_i32(in) != kArtifactVersion) {
    throw std::runtime_error("load_artifacts: unsupported version");
  }

  OfflineArtifacts artifacts;
  const int models = read_i32(in);
  artifacts.library.models.reserve(static_cast<std::size_t>(models));
  for (int m = 0; m < models; ++m) {
    TrainedModel model;
    model.spec = load_spec(in);
    model.net = nn::Network::load(in);
    // Build packed weights now, not on the first inference request: load
    // is the one place every serving/session path funnels through, and a
    // cold pack inside a latency-sensitive step would show up as a
    // first-call spike (see Network::prepack_for_inference).
    model.net.prepack_for_inference();
    model.origin = read_string(in);
    model.train_loss = read_f64(in);
    model.mean_seconds = read_f64(in);
    model.mean_quality = read_f64(in);
    model.records = load_records(in);
    artifacts.library.models.push_back(std::move(model));
  }

  artifacts.pareto_ids = load_ids(in);
  artifacts.selected_ids = load_ids(in);

  const int scores = read_i32(in);
  artifacts.scores.resize(static_cast<std::size_t>(scores));
  for (auto& s : artifacts.scores) {
    s.model_id = static_cast<std::size_t>(read_i32(in));
    s.success_probability = read_f64(in);
    s.model_seconds = read_f64(in);
    s.expected_seconds = read_f64(in);
    s.selected = read_i32(in) != 0;
  }

  if (read_i32(in) != 0) {
    nn::Network net = nn::Network::load(in);
    quality::FeatureScale scale;
    scale.max_quality = read_f64(in);
    scale.max_time = read_f64(in);
    scale.max_layers = read_f64(in);
    scale.max_kernel = read_f64(in);
    scale.max_channels = read_f64(in);
    scale.max_pool = read_f64(in);
    artifacts.predictor = std::make_unique<quality::SuccessPredictor>(
        std::move(net), scale);
  }

  artifacts.mlp_curve.train_loss = load_curve(in);
  artifacts.mlp_curve.validation_loss = load_curve(in);

  const int entries = read_i32(in);
  for (int e = 0; e < entries; ++e) {
    const double key = read_f64(in);
    const double value = read_f64(in);
    artifacts.quality_db.add(key, value);
  }

  artifacts.pcg_mean_seconds = read_f64(in);
  artifacts.requirement.quality_loss = read_f64(in);
  artifacts.requirement.seconds = read_f64(in);
  return artifacts;
}

}  // namespace sfn::core
