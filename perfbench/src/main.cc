// heaven_perfbench: runs one workload against the HEAVEN library and
// prints its metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it lists
// the inputs that explain the numbers. See perfbench/README.md.
//
//   heaven_perfbench --workload cold_archive|hot_storm|ingest_mixed
//                    --seed N --seconds S --trace 0|1
//                    [--tiny] [--corrupt-oracle] [--out-dir DIR]
//                    [--fingerprint ID]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "array/compression.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Config* config, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = arg + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload") {
      if (!value(&config->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      config->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      config->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (!value(&v)) return false;
      config->trace = v == "1";
    } else if (arg == "--out-dir") {
      if (!value(&config->out_dir)) return false;
    } else if (arg == "--fingerprint") {
      if (!value(&config->fingerprint)) return false;
    } else if (arg == "--tiny") {
      config->tiny = true;
    } else if (arg == "--corrupt-oracle") {
      config->corrupt_oracle = true;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
  }
  if (config->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(config->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

std::string FormatSim(const std::vector<std::pair<std::string, double>>& sim) {
  std::string out;
  char buf[96];
  for (const auto& [name, value] : sim) {
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", name.c_str(), value);
    out += buf;
  }
  return out;
}

/// Sim-clock figures must repeat exactly for a seed: compares them with
/// the record an earlier run of the same build and seed left, or leaves
/// one. Returns false on a difference.
bool CheckSimRecord(const Config& config,
                    const std::vector<std::pair<std::string, double>>& sim,
                    std::string* error) {
  const std::string path = config.out_dir + "/sim-" + config.workload + "-" +
                           std::to_string(config.seed) + (config.tiny ? "-tiny" : "") +
                           ".txt";
  const std::string header = "build " + config.fingerprint + "\n";
  const std::string body = FormatSim(sim);
  std::ifstream in(path);
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    const std::string text = previous.str();
    if (text.rfind(header, 0) == 0) {
      if (text.substr(header.size()) == body) return true;
      *error = "sim-clock figures differ from an earlier run of seed " +
               std::to_string(config.seed) + " (" + path + ")";
      return false;
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << header << body;
  }
  std::rename(tmp.c_str(), path.c_str());
  return true;
}

int Run(int argc, char** argv) {
  Config config;
  std::string error;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &config, &error) || !MakeSpec(config, &spec, &error)) {
    std::fprintf(stderr, "heaven_perfbench: %s\n", error.c_str());
    return 2;
  }

  // Inputs first; their generation is not part of any metric.
  std::vector<std::shared_ptr<const heaven::MddArray>> models;
  double user_bytes = 0;
  for (const ObjectSpec& object : spec.initial) {
    models.push_back(std::make_shared<const heaven::MddArray>(GenerateField(object)));
    user_bytes += static_cast<double>(models.back()->size_bytes());
  }

  Oracle oracle;
  Archive archive;
  ClientLog setups;      // every set-up's mutators
  ClientLog last_setup;  // the set-up the timed phase runs on
  std::vector<double> setup_seconds;
  std::vector<std::string> errors;
  bool ok = true;
  auto setup_once = [&] {
    archive = Archive{};
    ClientLog log;
    double seconds = 0;
    const bool done = Setup(spec, models, &oracle, &archive, &log, &seconds);
    setups.Merge(log);
    last_setup = log;
    setup_seconds.push_back(seconds);
    if (!done) {
      errors.push_back("set-up: " + log.first_error);
      ok = false;
    }
    return done;
  };
  // setup_s and the set-up writes are taken from several set-ups, half
  // before the timed phase (the last of them is the one it runs on) and
  // half after it, so that they sample the host over the whole run rather
  // than its first seconds. A traced run does not report them and sets up
  // once per phase.
  const int setups_before = config.trace ? 1 : (spec.setups + 1) / 2;
  for (int s = 0; s < setups_before && ok; ++s) setup_once();
  const double stored_after_setup = last_setup.stored_per_user;

  PhaseResult phase;
  std::vector<std::pair<std::string, double>> sim;
  std::vector<Metric> layer;
  ClientLog extra;
  uint64_t spans_written = 0;
  if (ok) {
    if (config.corrupt_oracle) oracle.CorruptNextCheck();
    phase = RunPhase(spec, config, &archive, &oracle, false);
    sim = SimSummary(last_setup, phase);
    if (!CheckSimRecord(config, sim, &error)) {
      errors.push_back(error);
      ok = false;
    }
    if (!config.trace) {
      for (int s = setups_before; s < spec.setups && ok; ++s) setup_once();
    }
  }
  const double read_p50_ms = Percentile(phase.log.read_ms, 50);
  if (ok && config.trace) {
    // The traced phase replays the same inputs on a fresh set-up.
    if (setup_once()) {
      const ClientLog traced_setup = last_setup;
      PhaseResult traced = RunPhase(spec, config, &archive, &oracle, true);
      if (FormatSim(SimSummary(traced_setup, traced)) != FormatSim(sim)) {
        errors.push_back("sim-clock figures of the traced phase differ from the untraced one");
        ok = false;
      }
      layer = LayerMetrics(spec, &archive, traced_setup, traced, read_p50_ms, &oracle, &extra);
      extra.Merge(traced.log);
      const std::string path = config.out_dir + "/spans-" + config.workload + "-" +
                               std::to_string(config.seed) + ".jsonl";
      if (SpanRecorder::Get().WriteJsonLines(path)) spans_written = SpanRecorder::Get().size();
    }
  }
  archive = Archive{};

  const uint64_t attempted = setups.attempted + phase.log.attempted + extra.attempted;
  const uint64_t failed = setups.failed + phase.log.failed + extra.failed;
  for (const ClientLog* log : {&setups, &phase.log, &extra}) {
    if (!log->first_error.empty()) errors.push_back(log->first_error);
  }
  const bool correct = ok && failed == 0 && oracle.mismatches() == 0;

  // ---- End-to-end metrics --------------------------------------------------
  std::vector<Metric> metrics;
  if (!config.trace) {
    const ClientLog& log = phase.log;
    std::vector<double> write_ms = setups.write_ms;
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    const double read_cpu_s = phase.process_cpu_s - log.outside_cpu_s - log.write_cpu_s;
    auto sim_value = [&](const std::string& name) {
      for (const auto& [key, value] : sim) {
        if (key == name) return value;
      }
      return 0.0;
    };
    metrics = {
        {"setup_s", Percentile(setup_seconds, 50), "s"},
        {"read_p50_ms", read_p50_ms, "ms"},
        {"read_p99_ms", Percentile(log.read_ms, 99), "ms"},
        {"reads_per_s", static_cast<double>(log.reads) / phase.wall_s, "1/s"},
        {"cpu_ms_per_mib",
         log.result_bytes > 0 ? read_cpu_s * 1e3 / (log.result_bytes / kMiB) : 0.0, "ms/MiB"},
        {"write_p50_ms", Percentile(write_ms, 50), "ms"},
        {"write_p90_ms", Percentile(write_ms, 90), "ms"},
        {"export_mib_per_s",
         (setups.export_bytes + log.export_bytes) / kMiB /
             (setups.export_wall_s + log.export_wall_s),
         "MiB/s"},
        {"sim_export_s_per_mib", sim_value("sim_export_s_per_mib"), "s/MiB"},
        {"stored_bytes_per_user_byte", sim_value("stored_bytes_per_user_byte"), "ratio"},
        {"peak_rss_mib", PeakRssMiB(), "MiB"},
    };
  } else {
    metrics = layer;
  }

  // ---- Inputs that explain the numbers --------------------------------------
  std::string inputs = "{\"inputs\":{";
  auto add = [&](const std::string& key, const std::string& json) {
    if (inputs.back() != '{') inputs += ',';
    inputs += JsonString(key) + ":" + json;
  };
  const heaven::HeavenOptions& o = spec.options;
  add("workload", JsonString(config.workload));
  add("seed", std::to_string(config.seed));
  add("seconds", JsonNumber(config.seconds));
  add("trace", config.trace ? "1" : "0");
  add("tiny", config.tiny ? "true" : "false");
  add("clients", std::to_string(spec.clients));
  add("num_threads", std::to_string(o.num_threads));
  add("codec", JsonString(heaven::CompressionName(o.compression)));
  add("objects", std::to_string(spec.initial.size()));
  add("working_set_user_bytes", JsonNumber(user_bytes));
  add("working_set_tape_bytes", JsonNumber(stored_after_setup * user_bytes));
  add("cache_bytes", std::to_string(o.cache.capacity_bytes));
  add("media", std::to_string(o.library.num_media));
  add("drives", std::to_string(o.library.num_drives));
  add("tile_bytes", std::to_string(o.disk_tile_bytes));
  add("supertile_bytes", std::to_string(o.supertile_bytes));
  add("sync_on_commit", o.storage.sync_on_commit ? "true" : "false");
  add("op_mix", JsonString(spec.op_mix));
  add("setups", std::to_string(setup_seconds.size()));
  add("timed_wall_s", JsonNumber(phase.wall_s));
  add("reads", std::to_string(phase.log.reads));
  add("writes", std::to_string(phase.log.writes));
  add("steps", std::to_string(phase.log.steps));
  add("write_samples", std::to_string(setups.write_ms.size() + phase.log.write_ms.size()));
  add("error_rate", JsonNumber(attempted > 0 ? static_cast<double>(failed) / attempted : 0.0));
  add("oracle_checks", std::to_string(oracle.checks()));
  add("spans_written", std::to_string(spans_written));
  add("spans_dropped", std::to_string(SpanRecorder::Get().dropped()));
  std::string sim_json = "{";
  for (const auto& [name, value] : sim) {
    if (sim_json.size() > 1) sim_json += ',';
    sim_json += JsonString(name) + ":" + JsonNumber(value);
  }
  add("sim_window", sim_json + "}");
  std::string error_json = "[";
  for (const std::string& e : errors) {
    if (error_json.size() > 1) error_json += ',';
    error_json += JsonString(e);
  }
  add("errors", error_json + "]");
  std::printf("%s}}\n", inputs.c_str());

  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ',';
    result += JsonString(metrics[i].name) + ":{\"value\":" + JsonNumber(metrics[i].value) +
              ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
  for (const std::string& e : errors) std::fprintf(stderr, "heaven_perfbench: %s\n", e.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
