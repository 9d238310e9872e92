#include "src/common/options.hpp"

#include <cstdlib>
#include <sstream>
#include <string_view>

#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace moheco {
namespace {

BenchScale parse_scale(std::string_view text) {
  if (text == "smoke") return BenchScale::kSmoke;
  if (text == "default" || text == "") return BenchScale::kDefault;
  if (text == "full" || text == "paper") return BenchScale::kFull;
  throw InvalidArgument("unknown scale: " + std::string(text));
}

void apply_scale(BenchOptions& options) {
  switch (options.scale) {
    case BenchScale::kSmoke:
      options.runs = 1;
      options.reference_samples = 2000;
      break;
    case BenchScale::kDefault:
      options.runs = 3;
      options.reference_samples = 8000;
      break;
    case BenchScale::kFull:
      options.runs = 10;
      options.reference_samples = 50000;
      break;
  }
}

bool consume(std::string_view arg, std::string_view prefix,
             std::string_view* value) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  if (const char* env = std::getenv("MOHECO_SCALE")) {
    options.scale = parse_scale(env);
  }
  apply_scale(options);
  if (const char* env = std::getenv("MOHECO_SEED")) {
    options.seed = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("MOHECO_THREADS")) {
    options.threads = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  if (const char* env = std::getenv("MOHECO_LOG")) {
    set_log_level(parse_log_level(env));
    options.verbose = log_level() <= LogLevel::kInfo;
  }
  if (const char* env = std::getenv("MOHECO_TRANSIENT")) {
    options.transient = std::string_view(env) != "0";
  }

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    if (consume(arg, "--scale=", &value)) {
      options.scale = parse_scale(value);
      apply_scale(options);
    } else if (consume(arg, "--runs=", &value)) {
      options.runs = std::atoi(std::string(value).c_str());
      require(options.runs > 0, "--runs must be positive");
    } else if (consume(arg, "--ref=", &value)) {
      options.reference_samples = std::atoi(std::string(value).c_str());
      require(options.reference_samples > 0, "--ref must be positive");
    } else if (consume(arg, "--seed=", &value)) {
      options.seed = std::strtoull(std::string(value).c_str(), nullptr, 10);
    } else if (consume(arg, "--threads=", &value)) {
      options.threads = std::atoi(std::string(value).c_str());
    } else if (consume(arg, "--json=", &value)) {
      options.json = std::string(value);
    } else if (arg == "--transient") {
      options.transient = true;
    } else if (arg == "--verbose" || arg == "-v") {
      options.verbose = true;
      set_log_level(LogLevel::kInfo);
    } else if (arg == "--help" || arg == "-h") {
      // Benches print their own usage; rethrow as a sentinel.
      throw InvalidArgument(
          "usage: [--scale=smoke|default|full] [--runs=N] [--ref=N] "
          "[--seed=N] [--threads=N] [--json=PATH] [--transient] "
          "[--verbose]");
    } else {
      throw InvalidArgument("unknown argument: " + std::string(arg));
    }
  }
  return options;
}

std::string describe(const BenchOptions& options) {
  std::ostringstream oss;
  oss << "scale="
      << (options.scale == BenchScale::kSmoke
              ? "smoke"
              : options.scale == BenchScale::kFull ? "full" : "default")
      << " runs=" << options.runs << " ref-mc=" << options.reference_samples
      << " seed=" << options.seed;
  if (options.transient) oss << " transient=on";
  return oss.str();
}

}  // namespace moheco
