// perfbench_driver: runs one benchmark workload against the SSRESF library
// and writes a raw measurement report (JSON) that perfbench/run.py reduces
// to the end-to-end and per-layer metrics. Inputs come only from the files
// the seeded generator wrote: a scenario YAML and a request stream.
//
// Every workload runs the chain scenario -> campaign records -> trained
// model -> served predictions. The workload decides which link is the
// measured loop (repeated for --seconds) and how large each link is:
//
//   campaign  loop = in-memory core::Session, scenario to whole-netlist
//             predictions (the simulate stage dominates)
//   retrain   setup simulates and persists .ssfs v2 records; loop = a
//             resumed core::Session (feature selection + grid search + CV)
//   serve     setup runs the campaign chain and starts a PredictServer;
//             loop = closed-loop passes over the request stream
//   fleet     loop = net::Coordinator + 2 net::Worker threads on loopback,
//             then the same ML stages on the merged records
//
// The other links still run in every run, so every workload reports every
// end-to-end metric: the campaign links in set-up or once after the loop,
// the serve link as passes of the request stream spread between the loop's
// iterations. With --trace 1 the same links run once more decomposed into
// the layers' public functions, each call wrapped in a span (trace.h).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/kcluster.h"
#include "core/features.h"
#include "core/model_io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "fi/record_store.h"
#include "fi/shard.h"
#include "ml/cross_validation.h"
#include "ml/feature_selection.h"
#include "ml/scaler.h"
#include "net/coordinator.h"
#include "net/protocol.h"
#include "net/worker.h"
#include "radiation/soft_error_db.h"
#include "serve/predict_client.h"
#include "serve/predict_server.h"
#include "serve/registry.h"
#include "trace.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace fs = std::filesystem;
using namespace ssresf;
using perfbench::Span;

namespace {

// Execution knobs shared by every workload: 2 campaign threads at 256 lanes,
// 2 fleet workers of 1 thread each (same parallelism as the in-process
// campaign, so the fleet/campaign gap is transport cost), and one serve
// handler thread per client connection. A handler keeps a connection that
// is never idle, so with fewer handlers than closed-loop connections one
// connection waits for another's whole stream (measured with 2 handlers:
// a ~0.6 s first request and a bimodal pass time).
constexpr int kThreads = 2;
constexpr int kLanes = 256;
constexpr int kFleetWorkers = 2;
constexpr int kServeConnections = 3;  // connections 0, 1: SSNP; 2: HTTP
constexpr int kServeThreads = kServeConnections;
constexpr std::size_t kCheckStride = 16;
// Serve passes of a non-serve run; each pass is 1200 requests, so its p99
// has 12 samples beyond it, and the run reports the median over passes. One
// pass's p99 moves by up to 40% between consecutive passes, so the median
// needs several.
constexpr int kServePasses = 9;

struct Options {
  std::string workload;
  std::string scenario_path;
  std::string requests_path;
  std::string work_dir;
  std::string out_path;
  std::string trace_path;
  double seconds = 10.0;
  int setups = 0;  // required: set by the workload size
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Raw report

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RequestSample {
  int pass = 0;
  int rows = 0;
  double seconds = -1.0;  // < 0: the request failed
};

class Report {
 public:
  void sample(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(v);
  }
  void value(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = v;
  }
  void fact(const std::string& name, std::string v) {
    std::lock_guard<std::mutex> lock(mu_);
    facts_[name] = std::move(v);
  }
  void check(std::string name, bool ok, std::string detail) {
    std::lock_guard<std::mutex> lock(mu_);
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  void request(int pass, int rows, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    requests_.push_back({pass, rows, seconds});
  }
  /// Drops every sample and request latency taken so far.
  void clear_samples() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    requests_.clear();
  }
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> facts_;
  std::vector<Check> checks_;
  std::vector<RequestSample> requests_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Report::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream o;
  o << "{\"attempted\":" << attempted.load() << ",\"failed\":" << failed.load()
    << ",\n\"samples\":{";
  const char* sep = "";
  for (const auto& [name, list] : samples_) {
    o << sep << json_string(name) << ":[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      o << (i ? "," : "") << json_number(list[i]);
    }
    o << "]";
    sep = ",\n";
  }
  o << "},\n\"values\":{";
  sep = "";
  for (const auto& [name, v] : values_) {
    o << sep << json_string(name) << ":" << json_number(v);
    sep = ",";
  }
  o << "},\n\"facts\":{";
  sep = "";
  for (const auto& [name, v] : facts_) {
    o << sep << json_string(name) << ":" << json_string(v);
    sep = ",";
  }
  o << "},\n\"checks\":[";
  sep = "";
  for (const Check& c : checks_) {
    o << sep << "{\"name\":" << json_string(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << json_string(c.detail) << "}";
    sep = ",\n";
  }
  o << "],\n\"requests\":[";
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    o << (i ? "," : "") << "[" << requests_[i].pass << ","
      << requests_[i].rows << "," << json_number(requests_[i].seconds) << "]";
  }
  o << "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << o.str();
  return static_cast<bool>(f);
}

/// Failure accounting: every stage call, served request and worker session
/// is one attempted operation; one that throws is a failed one.
template <typename F>
auto attempt(Report& report, F&& f) -> decltype(f()) {
  ++report.attempted;
  try {
    return f();
  } catch (...) {
    ++report.failed;
    throw;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::uint8_t> bundle_bytes(const core::ModelBundle& bundle,
                                       const std::string& path) {
  core::write_model_file(path, bundle);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  fs::remove(path);
  return bytes;
}

// ---------------------------------------------------------------------------
// Inputs

struct RequestSpec {
  int conn = 0;
  int rows = 0;
  std::uint64_t first = 0;
  std::uint64_t stride = 1;
};

std::vector<RequestSpec> load_requests(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read request stream " + path);
  std::vector<RequestSpec> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    RequestSpec r;
    if (!(in >> r.conn >> r.rows >> r.first >> r.stride) || r.conn < 0 ||
        r.conn >= kServeConnections || r.rows <= 0 || r.stride == 0) {
      throw std::runtime_error("malformed request line: " + line);
    }
    out.push_back(r);
  }
  if (out.empty()) throw std::runtime_error("empty request stream " + path);
  return out;
}

struct Env {
  Options opt;
  radiation::SoftErrorDatabase db = radiation::SoftErrorDatabase::default_database();
  core::ScenarioSpec spec;
  std::vector<RequestSpec> requests;
  Report report;
  int dir_counter = 0;

  std::string fresh_dir(const std::string& stem) {
    const fs::path dir =
        fs::path(opt.work_dir) / (stem + "-" + std::to_string(++dir_counter));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }
};

fi::CampaignConfig exec_config(const Env& env) {
  fi::CampaignConfig config = env.spec.campaign.config;
  config.threads = kThreads;
  config.lanes = kLanes;
  return config;
}

core::SessionOptions session_options(std::string artifact_dir = {}) {
  core::SessionOptions so;
  so.threads = kThreads;
  so.lanes = kLanes;
  so.artifact_dir = std::move(artifact_dir);
  so.record_format = 2;
  return so;
}

soc::SocModel build_soc(Env& env) {
  Span span("soc", "soc.build");
  soc::SocModel model =
      attempt(env.report, [&] { return env.spec.build_model(); });
  env.report.sample("soc.build_s", span.seconds());
  return model;
}

// ---------------------------------------------------------------------------
// The chain through core::Session (untraced runs)

struct ChainResult {
  fi::CampaignResult campaign;
  core::ModelBundle bundle;
  std::vector<netlist::CellId> cells;
  std::vector<int> labels;
  double cv_accuracy = 0.0;
  double simulate_s = 0.0;
  double pipeline_s = 0.0;
  double predict_s = 0.0;
};

/// simulate (or adopt / resume) -> build_dataset -> tune -> train -> predict,
/// each stage timed from outside. The model copy is made before the clock
/// starts: the pipeline owns its model, the benchmark reuses its build.
ChainResult run_session(Env& env, const soc::SocModel& model,
                        core::SessionOptions options,
                        std::optional<fi::CampaignResult> adopt = {}) {
  Report& r = env.report;
  soc::SocModel copy = model;
  ChainResult out;
  util::Timer wall;
  core::Session session(std::move(copy), env.spec, env.db, std::move(options));
  {
    util::Timer t;
    if (adopt) {
      attempt(r, [&] { session.adopt_campaign(std::move(*adopt)); });
    } else {
      attempt(r, [&] { (void)session.simulate(); });
    }
    out.simulate_s = t.seconds();
  }
  attempt(r, [&] { (void)session.build_dataset(); });
  attempt(r, [&] { (void)session.tune(); });
  attempt(r, [&] { (void)session.train(); });
  {
    util::Timer t;
    attempt(r, [&] { (void)session.predict(); });
    out.predict_s = t.seconds();
  }
  out.pipeline_s = wall.seconds();
  out.campaign = session.simulate();
  out.bundle = session.train();
  out.cells = session.predict().cells;
  out.labels = session.predict().labels;
  out.cv_accuracy = session.cv().mean_accuracy;
  return out;
}

/// Samples of one pipeline run. `campaign_s` is the wall of its simulate
/// stage; none when the run loaded its records instead (retrain samples
/// campaign_inj_per_s in set-up).
void record_chain(Env& env, const ChainResult& c,
                  std::optional<double> campaign_s) {
  Report& r = env.report;
  r.sample("pipeline_s", c.pipeline_s);
  if (campaign_s) {
    r.sample("campaign_inj_per_s",
             static_cast<double>(c.campaign.records.size()) / *campaign_s);
  }
  r.sample("predict_cells_per_s",
           static_cast<double>(c.cells.size()) / c.predict_s);
  r.value("cv_accuracy", c.cv_accuracy);
  r.value("fi.plan_injections", static_cast<double>(c.campaign.records.size()));
  r.value("ml.support_vectors",
          static_cast<double>(c.bundle.model.num_support_vectors()));
}

/// Every classifiable cell of the netlist (constants are not) with its
/// feature row, in netlist order: what Session::predict classifies.
struct FeatureTable {
  std::vector<netlist::CellId> cells;
  std::vector<std::vector<double>> rows;
};

FeatureTable classifiable_rows(const soc::SocModel& model) {
  FeatureTable table;
  const core::FeatureExtractor extractor(model.netlist);
  for (const netlist::CellId id : model.netlist.all_cells()) {
    const netlist::CellKind kind = model.netlist.cell(id).kind;
    if (kind == netlist::CellKind::kConst0 ||
        kind == netlist::CellKind::kConst1) {
      continue;
    }
    table.cells.push_back(id);
    table.rows.push_back(extractor.extract(id));
  }
  return table;
}

// ---------------------------------------------------------------------------
// The chain decomposed into the layers' public functions (traced runs)

struct TracedCampaign {
  fi::CampaignResult result;
  double prepare_s = 0.0;
  double execute_s = 0.0;
  double probe_s = 0.0;  // golden-bundle probe inside the run, not workload
};

TracedCampaign traced_campaign(Env& env, const soc::SocModel& model) {
  Report& r = env.report;
  const fi::CampaignConfig config = exec_config(env);
  TracedCampaign out;
  fi::detail::CampaignPrep prep;
  {
    Span span("fi", "fi.prepare");
    prep = attempt(r, [&] {
      return fi::detail::prepare_campaign(model, config, env.db, true);
    });
    out.prepare_s = span.seconds();
  }
  r.sample("fi.prepare_s", out.prepare_s);
  r.value("fi.plan_injections", static_cast<double>(prep.plan.size()));
  r.value("fi.run_cycles", prep.run_cycles);
  r.value("fi.ladder_rungs", static_cast<double>(prep.ladder.size()));
  {
    // What the socket coordinator ships to every worker.
    Span span("fi", "fi.golden_bundle");
    const fi::GoldenBundle bundle =
        fi::extract_golden_bundle(model, config, prep);
    util::ByteWriter w;
    fi::encode_golden_bundle(w, bundle);
    r.value("fi.golden_bundle_bytes", static_cast<double>(w.size()));
    out.probe_s += span.seconds();
  }
  std::vector<fi::InjectionRecord> records(prep.plan.size());
  std::vector<std::size_t> owned(prep.plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  {
    Span span("sim", "fi.execute");
    attempt(r, [&] {
      fi::detail::execute_injections(model, config, prep, owned, records);
    });
    out.execute_s = span.seconds();
  }
  r.sample("fi.execute_s", out.execute_s);
  r.sample("fi.execute_inj_per_s",
           static_cast<double>(records.size()) / out.execute_s);
  {
    Span span("fi", "fi.finalize");
    out.result = attempt(r, [&] {
      return fi::detail::finalize_campaign(model, config, env.db,
                                           std::move(prep), std::move(records));
    });
    r.sample("fi.finalize_s", span.seconds());
  }
  std::size_t soft = 0;
  for (const auto& rec : out.result.records) soft += rec.soft_error ? 1 : 0;
  r.value("fi.soft_errors", static_cast<double>(soft));
  return out;
}

/// Session::tune/train/predict re-composed from ml::, core:: calls in the
/// Session's order and RNG fork sequence, so the bundle is byte-identical
/// to the Session's (checked by the caller).
ChainResult traced_ml(Env& env, const soc::SocModel& model,
                      fi::CampaignResult campaign,
                      const std::string& artifact_dir = {}) {
  Report& r = env.report;
  const core::ScenarioSpec& spec = env.spec;
  const std::uint64_t digest =
      fi::campaign_config_digest(model, spec.campaign.config);
  ChainResult out;
  ml::Dataset data;
  {
    Span span("core", "core.build_dataset");
    data = attempt(r, [&] { return core::build_dataset(model, campaign); });
    r.sample("core.build_dataset_s", span.seconds());
  }
  if (!artifact_dir.empty()) {
    Span span("core", "core.write_dataset_file");
    core::write_dataset_file(artifact_dir + "/" + spec.name + ".ssds",
                             core::DatasetArtifact{digest, data});
  }
  util::Rng ml_rng(spec.ml_seed);
  std::vector<int> selected;
  if (spec.feature_selection && data.count_label(1) > 0 &&
      data.count_label(-1) > 0) {
    util::Rng selection_rng = ml_rng.fork();
    Span span("ml", "ml.select_features");
    const ml::FeatureSelectionResult fsr = attempt(r, [&] {
      return ml::select_features(data, spec.svm, spec.cv_folds, selection_rng);
    });
    selected.assign(fsr.ranked.begin(), fsr.ranked.begin() + fsr.best_count);
    r.sample("ml.select_features_s", span.seconds());
  } else {
    selected.resize(data.num_features());
    std::iota(selected.begin(), selected.end(), 0);
  }
  const ml::Dataset projected = data.project(selected);
  ml::SvmConfig chosen = spec.svm;
  if (spec.run_grid_search) {
    util::Rng grid_rng = ml_rng.fork();
    Span span("ml", "ml.grid_search");
    chosen = attempt(r, [&] {
               return ml::grid_search(projected, spec.svm, spec.grid_c,
                                      spec.grid_gamma, spec.cv_folds, grid_rng);
             }).best;
    r.sample("ml.grid_search_s", span.seconds());
  }
  util::Rng cv_rng = ml_rng.fork();
  ml::CvResult cv;
  {
    Span span("ml", "ml.cross_validate");
    cv = attempt(r, [&] {
      return ml::cross_validate(projected, chosen, spec.cv_folds, cv_rng);
    });
    r.sample("ml.cross_validate_s", span.seconds());
  }
  core::ModelBundle& bundle = out.bundle;
  {
    Span span("ml", "ml.train");
    ml::Dataset scaled = projected;
    bundle.scaler.fit_transform(scaled);
    bundle.model = ml::SvmClassifier(chosen);
    attempt(r, [&] { bundle.model.train(scaled); });
    r.sample("ml.train_s", span.seconds());
  }
  r.value("ml.kernel_evals", static_cast<double>(bundle.model.kernel_evals()));
  r.value("ml.support_vectors",
          static_cast<double>(bundle.model.num_support_vectors()));
  bundle.config_digest = digest;
  bundle.scenario_name = spec.name;
  bundle.chosen_svm = chosen;
  bundle.selected_features = selected;
  bundle.feature_names = core::node_feature_names();
  bundle.cv_mean_accuracy = cv.mean_accuracy;
  out.cv_accuracy = cv.mean_accuracy;
  if (!artifact_dir.empty()) {
    Span span("core", "core.write_model_file");
    core::write_model_file(artifact_dir + "/" + spec.name + ".ssmd", bundle);
  }

  std::vector<std::vector<double>> rows;
  {
    Span span("core", "core.features");
    FeatureTable table = classifiable_rows(model);
    out.cells = std::move(table.cells);
    rows = std::move(table.rows);
    r.sample("core.features_s", span.seconds());
  }
  {
    Span span("ml", "ml.classify");
    out.labels.reserve(rows.size());
    attempt(r, [&] {
      for (const auto& row : rows) {
        out.labels.push_back(core::bundle_classify(bundle, row));
      }
    });
    r.sample("ml.classify_s", span.seconds());
  }
  out.campaign = std::move(campaign);
  return out;
}

/// Trace-only probes of calls the pipeline makes internally (clustering
/// and the plan-only prepare inside prepare_campaign; the .ssfs v2 writer
/// and reader over this campaign's records).
void layer_probes(Env& env, const soc::SocModel& model,
                  const fi::CampaignResult& campaign) {
  Report& r = env.report;
  const fi::CampaignConfig config = exec_config(env);
  {
    util::Rng rng(config.seed);
    util::Rng cluster_rng = rng.fork();  // prepare_campaign's first fork
    Span span("cluster", "cluster.cluster_cells");
    (void)attempt(r, [&] {
      return cluster::cluster_cells(model.netlist, config.clustering,
                                    cluster_rng);
    });
    r.sample("cluster.cluster_cells_s", span.seconds());
  }
  {
    Span span("fi", "fi.prepare_plan");
    (void)attempt(r, [&] {
      return fi::detail::prepare_campaign(model, config, env.db, false);
    });
    r.sample("fi.prepare_plan_s", span.seconds());
  }
  const std::string path = env.fresh_dir("probe") + "/records.ssfs";
  fi::ShardFileMeta meta;
  meta.seed = config.seed;
  meta.total_injections = campaign.records.size();
  meta.num_records = campaign.records.size();
  meta.config_digest = fi::campaign_config_digest(model, config);
  {
    Span span("fi", "fi.records_write");
    attempt(r, [&] {
      fi::ColumnarFileWriter writer(path, meta);
      fi::RecordBatch batch;
      for (std::size_t i = 0; i < campaign.records.size(); ++i) {
        batch.push_back(i, campaign.records[i]);
      }
      writer.append(batch);
      writer.flush();
    });
    r.sample("fi.records_write_s", span.seconds());
  }
  r.value("fi.records_bytes", static_cast<double>(fs::file_size(path)));
  {
    Span span("fi", "fi.records_read");
    std::size_t rows = 0;
    attempt(r, [&] {
      fi::ColumnarFileSource source(path);
      fi::RecordBatch batch;
      while (source.next_batch(batch)) rows += batch.row_count();
    });
    r.sample("fi.records_read_s", span.seconds());
    r.check("records_v2_roundtrip", rows == campaign.records.size(),
            std::to_string(rows) + " of " +
                std::to_string(campaign.records.size()) + " rows read back");
  }
}

// ---------------------------------------------------------------------------
// Checks

/// Re-executes every kCheckStride-th planned injection on the scalar
/// levelized engine and compares the records field by field.
void check_strided_levelized(Env& env, const soc::SocModel& model,
                             const fi::CampaignResult& campaign) {
  fi::CampaignConfig config = exec_config(env);
  config.engine = sim::EngineKind::kLevelized;
  const fi::detail::CampaignPrep prep =
      fi::detail::prepare_campaign(model, config, env.db, true);
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < prep.plan.size(); i += kCheckStride) {
    owned.push_back(i);
  }
  std::vector<fi::InjectionRecord> records(prep.plan.size());
  fi::detail::execute_injections(model, config, prep, owned, records);
  std::size_t mismatches = prep.plan.size() == campaign.records.size() ? 0 : 1;
  for (const std::size_t i : owned) {
    if (i >= campaign.records.size() || !(records[i] == campaign.records[i])) {
      ++mismatches;
    }
  }
  env.report.check("campaign_vs_levelized", mismatches == 0,
                   std::to_string(owned.size()) +
                       " injections re-executed on levelized, " +
                       std::to_string(mismatches) + " mismatches");
}

void check_same_records(Env& env, const std::string& name,
                        const fi::CampaignResult& a,
                        const fi::CampaignResult& b) {
  std::size_t mismatches = a.records.size() == b.records.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(a.records.size(), b.records.size());
       ++i) {
    if (!(a.records[i] == b.records[i])) ++mismatches;
  }
  env.report.check(name, mismatches == 0,
                   std::to_string(a.records.size()) + " records, " +
                       std::to_string(mismatches) + " mismatches");
}

void check_traced_matches(Env& env, const ChainResult& traced,
                          const ChainResult& untraced) {
  const std::string dir = env.fresh_dir("compare");
  const bool same_bundle =
      bundle_bytes(traced.bundle, dir + "/a.ssmd") ==
      bundle_bytes(untraced.bundle, dir + "/b.ssmd");
  env.report.check("traced_equals_session",
                   same_bundle && traced.labels == untraced.labels &&
                       traced.cells == untraced.cells,
                   std::string("bundle ") + (same_bundle ? "equal" : "differs") +
                       ", " + std::to_string(traced.labels.size()) +
                       " predictions");
}

// ---------------------------------------------------------------------------
// Serving

/// Feature rows of every classifiable cell plus the offline label
/// core::bundle_classify gives each: the reference served answers must match.
struct RowTable {
  std::vector<std::vector<double>> rows;
  std::vector<int> expected;
};

RowTable offline_rows(const soc::SocModel& model,
                      const core::ModelBundle& bundle) {
  RowTable table;
  table.rows = classifiable_rows(model).rows;
  for (const auto& row : table.rows) {
    table.expected.push_back(core::bundle_classify(bundle, row));
  }
  return table;
}

std::vector<std::size_t> request_cells(const RequestSpec& spec,
                                       std::size_t num_cells) {
  std::vector<std::size_t> cells(static_cast<std::size_t>(spec.rows));
  for (std::size_t j = 0; j < cells.size(); ++j) {
    cells[j] = static_cast<std::size_t>((spec.first + j * spec.stride) %
                                        num_cells);
  }
  return cells;
}

struct ServeTarget {
  std::unique_ptr<serve::PredictServer> server;
  std::string alias;
  std::uint64_t digest = 0;
  RowTable table;
};

/// Publishes the bundle into a fresh models dir, loads it through the
/// registry's loader and starts a PredictServer (reload watcher off).
ServeTarget start_server(Env& env, const soc::SocModel& model,
                         const core::ModelBundle& bundle) {
  Report& r = env.report;
  ServeTarget target;
  target.alias = "bench";
  target.digest = bundle.config_digest;
  const std::string dir = env.fresh_dir("models");
  const std::string path = dir + "/" + target.alias + ".ssmd";
  {
    Span span("core", "core.write_model_file");
    attempt(r, [&] { core::write_model_file(path, bundle); });
  }
  {
    Span span("serve", "serve.registry_load");
    (void)attempt(r, [&] { return serve::ModelRegistry::load_file(path); });
    r.sample("serve.registry_load_s", span.seconds());
  }
  {
    Span span("serve", "serve.start");
    serve::PredictServerOptions options;
    options.models_dir = dir;
    options.threads = kServeThreads;
    options.reload_interval_seconds = 0;
    target.server = attempt(r, [&] {
      auto server = std::make_unique<serve::PredictServer>(std::move(options));
      server->start();
      return server;
    });
  }
  target.table = offline_rows(model, bundle);
  return target;
}

struct ServeTally {
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> label_mismatches{0};
  std::atomic<std::uint64_t> digest_mismatches{0};
  int passes = 0;
};

/// One closed-loop pass over the request stream: one thread per connection,
/// each sending its requests back to back. Rows are assembled before each
/// request's clock starts. Returns the pass's wall seconds.
double serve_pass(Env& env, ServeTarget& target, ServeTally& tally) {
  Report& r = env.report;
  const int index = tally.passes++;
  const std::size_t num_cells = target.table.rows.size();
  std::atomic<std::uint64_t> rows_ok{0};
  Span pass("serve", "serve.closed_loop");
  const std::uint64_t parent = pass.id();
  auto client_loop = [&](int conn) {
    Span span("serve", "serve.connection.c" + std::to_string(conn), parent);
    std::unique_ptr<serve::PredictClient> ssnp;
    std::unique_ptr<serve::HttpPredictClient> http;
    for (const RequestSpec& spec : env.requests) {
      if (spec.conn != conn) continue;
      const std::vector<std::size_t> cells = request_cells(spec, num_cells);
      std::vector<std::vector<double>> rows;
      rows.reserve(cells.size());
      for (const std::size_t c : cells) rows.push_back(target.table.rows[c]);
      ++r.attempted;
      try {
        util::Timer timer;
        serve::PredictResult result;
        if (conn < 2) {
          if (!ssnp) {
            ssnp = std::make_unique<serve::PredictClient>(
                "127.0.0.1", target.server->ssnp_port());
          }
          result = ssnp->predict(target.alias, target.digest, rows);
        } else {
          if (!http) {
            http = std::make_unique<serve::HttpPredictClient>(
                "127.0.0.1", target.server->http_port());
          }
          result = http->predict(target.alias, target.digest, rows);
        }
        r.request(index, spec.rows, timer.seconds());
        rows_ok += cells.size();
        ++tally.responses;
        if (result.config_digest != target.digest) ++tally.digest_mismatches;
        std::uint64_t bad = result.labels.size() == cells.size() ? 0 : 1;
        for (std::size_t j = 0; j < std::min(cells.size(), result.labels.size());
             ++j) {
          if (result.labels[j] != target.table.expected[cells[j]]) ++bad;
        }
        tally.label_mismatches += bad;
      } catch (const std::exception& e) {
        ++r.failed;
        r.request(index, spec.rows, -1.0);
        ssnp.reset();  // reconnect for the next request
        http.reset();
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeConnections; ++c) clients.emplace_back(client_loop, c);
  for (std::thread& t : clients) t.join();
  const double wall = pass.seconds();
  r.sample("serve.pass_rows", static_cast<double>(rows_ok.load()));
  r.sample("serve.pass_s", wall);
  return wall;
}

void check_serve(Env& env, const ServeTally& tally) {
  env.report.check(
      "served_equals_offline",
      tally.responses > 0 && tally.label_mismatches == 0 &&
          tally.digest_mismatches == 0,
      std::to_string(tally.responses.load()) + " responses, " +
          std::to_string(tally.label_mismatches.load()) +
          " label mismatches, " +
          std::to_string(tally.digest_mismatches.load()) +
          " digest mismatches");
}

/// Trace-only: the request core and the request codec called directly, per
/// request size class.
void serve_probes(Env& env, ServeTarget& target) {
  Report& r = env.report;
  const std::pair<int, int> classes[] = {{1, 200}, {64, 100}, {4096, 10}};
  for (const auto& [rows, reps] : classes) {
    net::PredictRequestMsg request;
    request.alias = target.alias;
    request.config_digest = target.digest;
    request.num_rows = static_cast<std::uint64_t>(rows);
    request.num_features = target.table.rows.front().size();
    const std::vector<std::size_t> cells = request_cells(
        RequestSpec{0, rows, 7, 13}, target.table.rows.size());
    for (const std::size_t c : cells) request.rows.push_back(target.table.rows[c]);
    const std::string suffix = ".r" + std::to_string(rows);
    Span span("serve", "serve.handle_batch" + suffix);
    for (int i = 0; i < reps; ++i) {
      util::Timer timer;
      (void)attempt(r, [&] { return target.server->handle_batch(request); });
      r.sample("serve.handle_batch_us" + suffix, timer.seconds() * 1e6);
    }
    if (rows != 4096) continue;
    Span codec("net", "net.predict_codec" + suffix);
    for (int i = 0; i < reps; ++i) {
      util::Timer timer;
      util::ByteWriter w;
      request.encode(w);
      const std::vector<std::uint8_t> bytes = w.take();
      util::ByteReader in(bytes);
      (void)net::PredictRequestMsg::decode(in);
      r.sample("net.predict_codec_us" + suffix, timer.seconds() * 1e6);
    }
  }
}

/// How many of `total` runs spread over the measured loop are due once
/// `progress` (0..1) of the loop is done.
int due(int total, double progress) {
  return static_cast<int>(std::ceil(total * std::min(1.0, progress) - 1e-9));
}

/// The serve link of the campaign, retrain and fleet workloads: their loop's
/// bundle on one PredictServer. catch_up() runs after every loop iteration
/// and runs the passes due by then, so the kServePasses passes spread over
/// the loop in proportion to its progress and sample the same stretch of
/// the run as the loop's metrics: on a shared host, slow spells last
/// seconds, and passes run back to back fall into one spell together.
/// finish() runs any still due and checks the answers.
struct ServeLink {
  std::optional<ServeTarget> target;
  ServeTally tally;

  void catch_up(Env& env, const soc::SocModel& model,
                const core::ModelBundle& bundle, double progress) {
    while (tally.passes < due(kServePasses, progress)) {
      if (!target) target = start_server(env, model, bundle);
      (void)serve_pass(env, *target, tally);
    }
  }

  void finish(Env& env, const soc::SocModel& model,
              const core::ModelBundle& bundle) {
    catch_up(env, model, bundle, 1.0);
    if (env.opt.trace) serve_probes(env, *target);
    check_serve(env, tally);
    target->server->stop();
  }
};

// ---------------------------------------------------------------------------
// Fleet

struct FleetRun {
  fi::CampaignResult result;
  double seconds = 0.0;
};

FleetRun fleet_simulate(Env& env) {
  Report& r = env.report;
  FleetRun out;
  Span span("net", "net.coordinator_run");
  net::CoordinatorOptions copts;
  copts.worker_timeout_seconds = env.spec.fleet.worker_timeout;
  copts.frame_deadline_seconds = env.spec.fleet.frame_deadline;
  copts.secret = env.spec.fleet.secret;
  auto coordinator = attempt(r, [&] {
    return std::make_unique<net::Coordinator>(env.spec.campaign, env.db, copts);
  });
  const std::uint16_t port = coordinator->port();
  const std::uint64_t parent = span.id();
  std::uint64_t worker_records[kFleetWorkers] = {};
  double worker_seconds[kFleetWorkers] = {};
  std::vector<std::thread> workers;
  for (int k = 0; k < kFleetWorkers; ++k) {
    workers.emplace_back([&, k] {
      Span ws("net", "net.worker_run.w" + std::to_string(k), parent);
      net::WorkerOptions wopts;
      wopts.port = port;
      wopts.threads = 1;
      wopts.lanes = kLanes;
      wopts.worker_id = static_cast<std::uint64_t>(k + 1);
      wopts.secret = env.spec.fleet.secret;
      wopts.connect_timeout_seconds = env.spec.fleet.connect_timeout;
      wopts.max_reconnect_attempts = 2;  // a lost coordinator ends the run
      ++r.attempted;
      try {
        net::Worker worker(env.db, wopts);
        worker_records[k] = worker.run();
      } catch (const std::exception& e) {
        ++r.failed;
        std::fprintf(stderr, "fleet worker %d failed: %s\n", k, e.what());
      }
      worker_seconds[k] = ws.seconds();
    });
  }
  std::exception_ptr error;
  try {
    out.result = attempt(r, [&] { return coordinator->run(); });
  } catch (...) {
    error = std::current_exception();
    coordinator.reset();  // closes the listener so the workers give up
  }
  out.seconds = span.seconds();
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
  for (int k = 0; k < kFleetWorkers; ++k) {
    const std::string w = ".w" + std::to_string(k);
    r.sample("net.worker_run_s" + w, worker_seconds[k]);
    r.value("net.worker_records" + w, static_cast<double>(worker_records[k]));
  }
  r.sample("net.coordinator_run_s", out.seconds);
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

using Clock = std::chrono::steady_clock;

/// Runs `f`, logging what it throws instead of propagating it (a throwing
/// operation was already counted as failed). Returns whether `f` completed.
bool run_logged(const std::function<void()>& f) {
  try {
    f();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    return false;
  }
}

/// Repeats `op` until the run's measuring time is spent (at least `min_ops`
/// times), running `between` (the run's other links) after each op that
/// completed. `between` gets the share of the loop done so far: measured
/// time over the loop's expected length, the larger of --seconds and
/// `min_ops` iterations at the mean iteration time so far. Time spent in
/// `between` does not count as measuring time. peak_rss_mb is taken after
/// the first op that completes: the footprint of set-up plus one iteration,
/// before `between` adds set-ups and a server that live beside the loop's
/// state.
void measure_loop(Env& env, int min_ops, const std::function<void()>& op,
                  const std::function<void(double)>& between) {
  double measured = 0.0;
  int done = 0;
  bool rss_taken = false;
  while (done < min_ops || measured < env.opt.seconds) {
    util::Timer timer;
    const bool ok = run_logged(op);
    measured += timer.seconds();
    ++done;
    if (ok && !rss_taken) {
      env.report.value("peak_rss_mb", peak_rss_mb());
      rss_taken = true;
    }
    if (ok) {
      const double expected =
          std::max(env.opt.seconds, min_ops * measured / done);
      (void)run_logged([&] { between(measured / expected); });
    }
    if (done > 10000) break;
  }
  env.report.value("ops", done);
}

/// The run's opt.setups set-ups, each timed into setup_s. first() builds
/// the state the loop uses; between() runs the ones due by the loop's
/// progress and discards their state, so the set-up samples (setup_s and
/// what set-up records) spread over the run: on a shared host a slow spell
/// of a few seconds would otherwise cover every set-up. finish() runs any
/// still due, and cheap ones until half a second is spent (at most 25).
template <typename State>
class SetupRuns {
 public:
  SetupRuns(Env& env, std::function<State()> setup)
      : env_(env), setup_(std::move(setup)) {}

  State first() { return timed(); }

  void between(double progress) {
    while (done_ < due(env_.opt.setups, progress)) (void)timed();
  }

  void finish() {
    while (done_ < env_.opt.setups || (spent_ < 0.5 && done_ < 25)) {
      (void)timed();
    }
  }

 private:
  /// The returned state is torn down by the caller, outside the clock.
  State timed() {
    util::Timer timer;
    State state = setup_();
    const double seconds = timer.seconds();
    env_.report.sample("setup_s", seconds);
    spent_ += seconds;
    ++done_;
    return state;
  }

  Env& env_;
  std::function<State()> setup_;
  double spent_ = 0.0;
  int done_ = 0;
};

/// Trace mode. `chain` runs the workload's set-up and loop op decomposed
/// into the layers' public calls and returns the op's wall; `rest` runs the
/// probes, checks and serve link that follow it. `chain` runs twice, first
/// with tracing off, then under the root span with tracing on, so
/// trace.overhead_s compares the same code. The samples taken before the
/// traced run are dropped: per-layer medians come from the traced run only.
void traced_run(Env& env, const std::function<double()>& chain,
                const std::function<void()>& rest) {
  const double untraced_s = chain();
  env.report.clear_samples();
  perfbench::Tracer tracer;
  struct Install {
    explicit Install(perfbench::Tracer* t) { perfbench::g_tracer = t; }
    ~Install() { perfbench::g_tracer = nullptr; }
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;
  } install(&tracer);
  double traced_s = 0.0;
  {
    Span root("bench", "bench.traced_run");
    traced_s = chain();
    rest();
  }
  env.report.sample("trace.overhead_s", traced_s - untraced_s);
  if (!tracer.write_chrome_json(env.opt.trace_path)) {
    throw std::runtime_error("cannot write " + env.opt.trace_path);
  }
}

void workload_campaign(Env& env) {
  auto setup = [&] { return build_soc(env); };
  SetupRuns<soc::SocModel> setups(env, setup);
  const soc::SocModel model = setups.first();
  std::optional<ChainResult> last;
  auto op = [&] {
    ChainResult c = run_session(env, model, session_options());
    record_chain(env, c, c.simulate_s);
    last = std::move(c);
  };
  if (!env.opt.trace) {
    ServeLink serve;
    measure_loop(env, 1, op, [&](double progress) {
      serve.catch_up(env, model, last->bundle, progress);
      setups.between(progress);
    });
    setups.finish();
    if (!last) return;
    check_strided_levelized(env, model, last->campaign);
    serve.finish(env, model, last->bundle);
    return;
  }
  op();
  std::optional<soc::SocModel> traced_model;
  std::optional<ChainResult> traced;
  auto chain = [&] {
    traced_model.emplace(setup());
    util::Timer timer;
    TracedCampaign tc = traced_campaign(env, *traced_model);
    traced = traced_ml(env, *traced_model, std::move(tc.result));
    return timer.seconds() - tc.probe_s;
  };
  traced_run(env, chain, [&] {
    check_traced_matches(env, *traced, *last);
    layer_probes(env, *traced_model, traced->campaign);
    ServeLink serve;
    serve.finish(env, *traced_model, traced->bundle);
  });
}

void workload_retrain(Env& env) {
  struct State {
    soc::SocModel model;
    std::string dir;
  };
  const std::string name = env.spec.name;
  // Set-up: simulate the campaign once and persist its records (.ssfs v2).
  auto setup = [&] {
    State s{build_soc(env), env.fresh_dir("artifacts")};
    util::Timer timer;
    core::Session session(s.model, env.spec, env.db, session_options(s.dir));
    const std::size_t plan = attempt(env.report, [&] {
      return session.simulate().records.size();
    });
    env.report.sample("campaign_inj_per_s",
                      static_cast<double>(plan) / timer.seconds());
    env.report.value("fi.plan_injections", static_cast<double>(plan));
    return s;
  };
  SetupRuns<State> setups(env, setup);
  const State state = setups.first();
  std::vector<std::vector<std::uint8_t>> models;
  std::vector<double> accuracies;
  std::optional<ChainResult> last;
  auto op = [&] {
    ChainResult c = run_session(env, state.model, session_options(state.dir));
    record_chain(env, c, std::nullopt);
    const std::string model_path = state.dir + "/" + name + ".ssmd";
    models.push_back(read_bytes(model_path));
    accuracies.push_back(c.cv_accuracy);
    // The next resumed session must tune again, not load these.
    fs::remove(model_path);
    fs::remove(state.dir + "/" + name + ".ssds");
    last = std::move(c);
  };
  if (!env.opt.trace) {
    ServeLink serve;
    measure_loop(env, 2, op, [&](double progress) {
      serve.catch_up(env, state.model, last->bundle, progress);
      setups.between(progress);
    });
    setups.finish();
    bool same = models.size() >= 2;
    for (std::size_t i = 1; i < models.size(); ++i) {
      same = same && models[i] == models[0] && accuracies[i] == accuracies[0];
    }
    env.report.check("retrain_repeats", same,
                     std::to_string(models.size()) +
                         " resumed sessions, .ssmd and cv accuracy " +
                         (same ? "identical" : "differ"));
    if (!models.empty()) env.report.fact("model_fnv1a", hex(fnv1a(models[0])));
    if (last) serve.finish(env, state.model, last->bundle);
    return;
  }
  op();
  std::optional<State> traced_state;
  std::optional<ChainResult> traced;
  auto chain = [&] {
    traced_state.emplace(State{build_soc(env), env.fresh_dir("artifacts")});
    const soc::SocModel& model = traced_state->model;
    const std::string records_path = traced_state->dir + "/" + name + ".ssfs";
    TracedCampaign tc = traced_campaign(env, model);
    {
      fi::ShardFileMeta meta;
      meta.seed = env.spec.campaign.config.seed;
      meta.total_injections = tc.result.records.size();
      meta.num_records = tc.result.records.size();
      meta.config_digest =
          fi::campaign_config_digest(model, env.spec.campaign.config);
      std::vector<fi::ShardRecord> rows;
      for (std::size_t i = 0; i < tc.result.records.size(); ++i) {
        rows.push_back({i, tc.result.records[i]});
      }
      Span span("fi", "fi.records_persist");
      fi::write_columnar_file(records_path, meta, rows);
    }
    // The resumed session's stages: load (plan-only prepare + merge of the
    // records file), then the ML chain persisting .ssds and .ssmd.
    util::Timer timer;
    const fi::CampaignConfig config = exec_config(env);
    fi::detail::CampaignPrep prep;
    {
      Span span("fi", "fi.prepare_plan");
      prep = fi::detail::prepare_campaign(model, config, env.db, false);
    }
    fi::CampaignResult loaded;
    {
      Span span("fi", "fi.records_load");
      loaded = attempt(env.report, [&] {
        return fi::merge_shard_files(model, config, env.db, std::move(prep),
                                     {records_path});
      });
    }
    traced = traced_ml(env, model, std::move(loaded), traced_state->dir);
    return timer.seconds();
  };
  traced_run(env, chain, [&] {
    check_traced_matches(env, *traced, *last);
    layer_probes(env, traced_state->model, traced->campaign);
    ServeLink serve;
    serve.finish(env, traced_state->model, traced->bundle);
  });
}

void workload_serve(Env& env) {
  struct State {
    soc::SocModel model;
    ChainResult chain;
    ServeTarget target;
  };
  // Set-up: the campaign chain produces the bundle, which is published,
  // loaded and served.
  auto make_state = [&](bool traced) {
    soc::SocModel model = build_soc(env);
    ChainResult chain;
    if (traced) {
      TracedCampaign tc = traced_campaign(env, model);
      chain = traced_ml(env, model, std::move(tc.result));
    } else {
      chain = run_session(env, model, session_options());
      record_chain(env, chain, chain.simulate_s);
    }
    ServeTarget target = start_server(env, model, chain.bundle);
    return State{std::move(model), std::move(chain), std::move(target)};
  };
  SetupRuns<State> setups(env, [&] { return make_state(false); });
  State state = setups.first();
  ServeTally tally;
  if (!env.opt.trace) {
    measure_loop(
        env, 1, [&] { (void)serve_pass(env, state.target, tally); },
        [&](double progress) { setups.between(progress); });
    setups.finish();
    check_serve(env, tally);
    state.target.server->stop();
    return;
  }
  state.target.server->stop();
  std::optional<State> traced_state;
  auto chain = [&] {
    if (traced_state) traced_state->target.server->stop();
    traced_state.reset();
    traced_state.emplace(make_state(true));
    return serve_pass(env, traced_state->target, tally);
  };
  traced_run(env, chain, [&] {
    check_traced_matches(env, traced_state->chain, state.chain);
    layer_probes(env, traced_state->model, traced_state->chain.campaign);
    serve_probes(env, traced_state->target);
    check_serve(env, tally);
    traced_state->target.server->stop();
  });
}

void workload_fleet(Env& env) {
  auto setup = [&] { return build_soc(env); };
  SetupRuns<soc::SocModel> setups(env, setup);
  const soc::SocModel model = setups.first();
  std::optional<ChainResult> last;
  std::vector<double> fleet_seconds;
  auto op = [&] {
    util::Timer wall;
    FleetRun run = fleet_simulate(env);
    ChainResult c =
        run_session(env, model, session_options(), std::move(run.result));
    c.pipeline_s = wall.seconds();
    record_chain(env, c, run.seconds);
    fleet_seconds.push_back(run.seconds);
    last = std::move(c);
  };
  // Reference: the same campaign in process at the same parallelism.
  auto compare = [&](const soc::SocModel& m, const fi::CampaignResult& fleet,
                     double fleet_s) {
    const TracedCampaign ref = traced_campaign(env, m);
    check_same_records(env, "fleet_equals_in_process", fleet, ref.result);
    env.report.sample("net.transport_overhead_s",
                      fleet_s - ref.prepare_s - ref.execute_s);
  };
  if (!env.opt.trace) {
    ServeLink serve;
    // One fleet run takes most of the measuring time; the metrics are the
    // median of at least three.
    measure_loop(env, 3, op, [&](double progress) {
      serve.catch_up(env, model, last->bundle, progress);
      setups.between(progress);
    });
    setups.finish();
    if (!last) return;
    std::sort(fleet_seconds.begin(), fleet_seconds.end());
    compare(model, last->campaign, fleet_seconds[fleet_seconds.size() / 2]);
    serve.finish(env, model, last->bundle);
    return;
  }
  op();
  std::optional<soc::SocModel> traced_model;
  std::optional<ChainResult> traced;
  double traced_fleet_s = 0.0;
  auto chain = [&] {
    traced_model.emplace(setup());
    util::Timer timer;
    FleetRun run = fleet_simulate(env);
    traced_fleet_s = run.seconds;
    traced = traced_ml(env, *traced_model, std::move(run.result));
    return timer.seconds();
  };
  traced_run(env, chain, [&] {
    check_traced_matches(env, *traced, *last);
    compare(*traced_model, traced->campaign, traced_fleet_s);
    layer_probes(env, *traced_model, traced->campaign);
    ServeLink serve;
    serve.finish(env, *traced_model, traced->bundle);
  });
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") o.workload = v;
    else if (key == "--scenario") o.scenario_path = v;
    else if (key == "--requests") o.requests_path = v;
    else if (key == "--work-dir") o.work_dir = v;
    else if (key == "--out") o.out_path = v;
    else if (key == "--trace-out") o.trace_path = v;
    else if (key == "--seconds") o.seconds = std::stod(v);
    else if (key == "--setups") o.setups = std::stoi(v);
    else if (key == "--trace") o.trace = v == "1";
    else throw std::runtime_error("unknown option " + key);
  }
  if (o.workload.empty() || o.scenario_path.empty() ||
      o.requests_path.empty() || o.work_dir.empty() || o.out_path.empty() ||
      o.setups < 1 || (o.trace && o.trace_path.empty())) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload W --scenario YAML --requests FILE "
        "--work-dir DIR --out JSON --setups N [--seconds S] [--trace 0|1 "
        "--trace-out FILE]");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::set_log_level(util::LogLevel::kError);
    Env env;
    env.opt = parse_args(argc, argv);
    env.spec = core::ScenarioSpec::load_file(env.opt.scenario_path);
    env.requests = load_requests(env.opt.requests_path);
    fs::create_directories(env.opt.work_dir);
    const std::map<std::string, std::function<void(Env&)>> workloads = {
        {"campaign", workload_campaign},
        {"retrain", workload_retrain},
        {"serve", workload_serve},
        {"fleet", workload_fleet},
    };
    const auto it = workloads.find(env.opt.workload);
    if (it == workloads.end()) {
      throw std::runtime_error("unknown workload " + env.opt.workload);
    }
    try {
      it->second(env);
    } catch (const std::exception& e) {
      // A failed stage is already counted; report what was measured.
      std::fprintf(stderr, "workload aborted: %s\n", e.what());
      env.report.check("workload_completed", false, e.what());
    }
    env.report.value("hardware_threads", std::thread::hardware_concurrency());
    env.report.fact("build_type", PERFBENCH_BUILD_TYPE);
    if (!env.report.write(env.opt.out_path)) {
      std::fprintf(stderr, "cannot write %s\n", env.opt.out_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
