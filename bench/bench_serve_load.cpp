// bench_serve_load: load + latency harness for the moheco_d serving path.
//
// Spins up an in-process serve::Daemon on a scratch Unix socket and drives
// it through serve::ServeClient exactly like moheco_cli --connect would,
// measuring client-observed submit->terminal latency for the three
// workload classes the daemon distinguishes:
//
//   - fresh:  never-seen deck bytes (unique comment suffix per deck) --
//             a result-cache miss that runs on the shared pool,
//   - repeat: exact resubmits of the fresh decks -- result-cache hits
//             answered without touching the pool,
//   - new seed: the same decks at a new seed -- result-cache misses that
//             run on the pool from cold sessions, like fresh jobs.
//
// Gates (exit non-zero so CI fails):
//   - every repeat is served from the cache, byte-identical to its fresh
//     run, and the repeat class is >= 10x faster than fresh (p50),
//   - a saturation burst past the admission bound loses no job: every
//     submit ends in exactly one of done / rejected, and the daemon's
//     counters agree with the client's books.
//
// --json=PATH writes the metrics (the CI perf artifact BENCH_serve.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/common/json.hpp"
#include "src/common/table.hpp"
#include "src/serve/client.hpp"
#include "src/serve/daemon.hpp"
#include "src/serve/protocol.hpp"

namespace {

using namespace moheco;
using Clock = std::chrono::steady_clock;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_serve_load: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + frac * (sorted_ms[hi] - sorted_ms[lo]);
}

struct ClassMetrics {
  std::vector<double> latency_ms;
  double total_s = 0.0;
  double p50() const { return percentile(latency_ms, 0.50); }
  double p90() const { return percentile(latency_ms, 0.90); }
  double p99() const { return percentile(latency_ms, 0.99); }
  double throughput() const {
    return total_s > 0.0 ? static_cast<double>(latency_ms.size()) / total_s
                         : 0.0;
  }
};

/// Submits one job and blocks for its terminal line; returns the terminal.
JsonValue run_job(serve::ServeClient& client, const serve::JobSpec& spec,
                  ClassMetrics* metrics) {
  const auto start = Clock::now();
  client.send(serve::encode_submit(spec, ""));
  while (true) {
    const std::optional<std::string> line = client.read_line();
    if (!line) {
      std::fprintf(stderr, "bench_serve_load: daemon hung up mid-job\n");
      std::exit(1);
    }
    const std::optional<JsonValue> parsed = parse_json(*line);
    if (!parsed) continue;
    if ((*parsed)["op"].as_string() != "result") continue;  // the ack
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count();
    if (metrics != nullptr) {
      metrics->latency_ms.push_back(ms);
      metrics->total_s += ms / 1000.0;
    }
    return *parsed;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Serve: moheco_d load, latency and cache hit-rate");

  // Scale knobs: number of distinct decks (= fresh jobs) and MC samples
  // per estimate job.  "full" approximates a long-lived daemon's day.
  int decks = 12;
  long long samples = 400;
  int burst = 24;
  if (options.scale == BenchScale::kSmoke) {
    decks = 4;
    samples = 200;
    burst = 8;
  } else if (options.scale == BenchScale::kFull) {
    decks = 64;
    samples = 2000;
    burst = 128;
  }

  const std::string deck =
      read_file(std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir");

  char socket_dir[] = "/tmp/moheco_bench_serve_XXXXXX";
  if (::mkdtemp(socket_dir) == nullptr) {
    std::fprintf(stderr, "bench_serve_load: mkdtemp failed\n");
    return 1;
  }
  serve::DaemonOptions daemon_options;
  daemon_options.socket_path = std::string(socket_dir) + "/d.sock";
  daemon_options.threads = options.threads;
  daemon_options.queue_depth = 4;  // small bound so the burst saturates
  daemon_options.result_cache_entries = static_cast<std::size_t>(decks) * 4;
  serve::Daemon daemon(daemon_options);
  daemon.start();

  serve::ServeClient client;
  client.connect(daemon_options.socket_path);

  // Unique deck bytes per fresh job: content-hash identity, so a comment
  // suffix is a brand-new workload even though the circuit is identical.
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < decks; ++i) {
    serve::JobSpec spec;
    spec.deck_name = "five_t_ota_" + std::to_string(i) + ".cir";
    spec.deck_text = deck + "\n* workload variant " + std::to_string(i) + "\n";
    spec.mode = serve::JobMode::kEstimate;
    spec.estimate_samples = samples;
    spec.moheco.seed = options.seed;
    specs.push_back(std::move(spec));
  }

  ClassMetrics fresh;
  ClassMetrics repeat;
  ClassMetrics new_seed;
  std::vector<std::string> fresh_bytes;
  bool ok = true;

  for (const serve::JobSpec& spec : specs) {
    const JsonValue t = run_job(client, spec, &fresh);
    ok = ok && t["ok"].as_bool() && !t["cached"].as_bool(true);
    fresh_bytes.push_back(t["result"].raw());
  }
  for (int i = 0; i < decks; ++i) {
    const JsonValue t = run_job(client, specs[i], &repeat);
    if (!t["cached"].as_bool() ||
        t["result"].raw() != fresh_bytes[static_cast<std::size_t>(i)]) {
      std::fprintf(stderr,
                   "FAIL: repeat %d not served byte-identically from cache\n",
                   i);
      ok = false;
    }
  }
  for (serve::JobSpec spec : specs) {
    spec.moheco.seed = options.seed + 1;
    const JsonValue t = run_job(client, spec, &new_seed);
    ok = ok && t["ok"].as_bool();
  }

  // Saturation burst: fire-and-forget submits far past queue_depth, then
  // account for every single one.  The daemon must answer each with an ack
  // (queued or rejected) and each queued job with exactly one terminal.
  serve::ServeClient burster;
  burster.connect(daemon_options.socket_path);
  for (int i = 0; i < burst; ++i) {
    serve::JobSpec spec = specs[static_cast<std::size_t>(i) % specs.size()];
    spec.moheco.seed = options.seed + 2;  // result-cache misses: real work
    burster.send(serve::encode_submit(spec, "burst-" + std::to_string(i)));
  }
  int accepted = 0;
  int rejected = 0;
  int terminals = 0;
  int done = 0;
  while (accepted + rejected < burst || terminals < accepted) {
    const std::optional<std::string> line = burster.read_line();
    if (!line) break;
    const std::optional<JsonValue> parsed = parse_json(*line);
    if (!parsed) continue;
    const JsonValue& r = *parsed;
    if (r["op"].as_string() == "submit") {
      if (r["ok"].as_bool()) {
        ++accepted;
      } else if (r["code"].as_string() == serve::kErrRejected) {
        ++rejected;
      } else {
        std::fprintf(stderr, "FAIL: unexpected submit answer: %s\n",
                     line->c_str());
        ok = false;
        ++rejected;  // keep the books balanced so the loop terminates
      }
    } else if (r["op"].as_string() == "result") {
      ++terminals;
      if (r["state"].as_string() == "done") ++done;
    }
  }
  if (accepted + rejected != burst || terminals != accepted ||
      done != accepted) {
    std::fprintf(stderr,
                 "FAIL: burst accounting: %d accepted, %d rejected, %d "
                 "terminals, %d done of %d submits\n",
                 accepted, rejected, terminals, done, burst);
    ok = false;
  }
  if (rejected == 0) {
    std::fprintf(stderr,
                 "FAIL: burst of %d never tripped the admission bound %zu\n",
                 burst, daemon_options.queue_depth);
    ok = false;
  }

  const JsonValue stats = client.request(serve::encode_op("stats"));
  const long long result_hits = stats["result_hits"].as_int();

  Table table({"class", "jobs", "p50 ms", "p90 ms", "p99 ms", "jobs/s"});
  const auto row = [&table](const char* name, const ClassMetrics& m) {
    table.add_row({name, std::to_string(m.latency_ms.size()),
                   format_sig(m.p50()), format_sig(m.p90()),
                   format_sig(m.p99()), format_sig(m.throughput())});
  };
  row("fresh", fresh);
  row("repeat(cached)", repeat);
  row("new seed", new_seed);
  table.print(std::cout, "moheco_d serving latency");
  std::printf("result cache hits: %lld\n", result_hits);
  std::printf("burst: %d submits -> %d done, %d rejected (depth %zu)\n",
              burst, done, rejected, daemon_options.queue_depth);

  const double speedup = repeat.p50() > 0.0 ? fresh.p50() / repeat.p50() : 0.0;
  std::printf("repeat speedup (p50): %.1fx\n", speedup);
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: cached repeats only %.1fx faster (need 10x)\n",
                 speedup);
    ok = false;
  }
  if (result_hits < decks) {
    std::fprintf(stderr, "FAIL: expected >= %d result-cache hits, saw %lld\n",
                 decks, result_hits);
    ok = false;
  }

  if (!options.json.empty()) {
    JsonObject body;
    const auto add_class = [&body](const char* name, const ClassMetrics& m) {
      JsonObject obj;
      obj.add_int("jobs", static_cast<long long>(m.latency_ms.size()));
      obj.add_number("p50_ms", m.p50());
      obj.add_number("p90_ms", m.p90());
      obj.add_number("p99_ms", m.p99());
      obj.add_number("jobs_per_s", m.throughput());
      body.add_raw(name, obj.str());
    };
    add_class("fresh", fresh);
    add_class("repeat", repeat);
    add_class("new_seed", new_seed);
    body.add_number("repeat_speedup_p50", speedup);
    body.add_int("result_hits", result_hits);
    body.add_int("burst_submits", burst);
    body.add_int("burst_done", done);
    body.add_int("burst_rejected", rejected);
    body.add_bool("pass", ok);
    const std::string inner = body.str();
    bench::write_bench_json(options.json, "serve_load",
                            inner.substr(1, inner.size() - 2));
  }

  daemon.request_stop();
  daemon.wait();
  std::error_code ec;
  std::filesystem::remove_all(socket_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "bench_serve_load: FAILED\n");
    return 1;
  }
  std::printf("bench_serve_load: all gates passed\n");
  return 0;
}
