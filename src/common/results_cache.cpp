#include "src/common/results_cache.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/log.hpp"
#include "src/obs/metrics.hpp"

namespace moheco {
namespace {

// Keys become file names; keep them portable.
std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// Row names are the first whitespace-separated field of a row, so bytes that
// would split or hide a row (whitespace, control bytes, a leading '#') are
// percent-escaped, and so is '%' itself.  Names without such bytes are
// written verbatim, which keeps older cache files readable.
std::string escape_name(const std::string& name) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7F || c == '%' || c == '#') {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Inverse of escape_name(); nullopt on a malformed escape.
std::optional<std::string> unescape_name(const std::string& field) {
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '%') {
      out.push_back(field[i]);
      continue;
    }
    if (i + 2 >= field.size()) return std::nullopt;
    const int hi = hex(field[i + 1]);
    const int lo = hex(field[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

}  // namespace

ResultsCache::ResultsCache(std::string path) : path_(std::move(path)) {}

ResultsCache ResultsCache::default_cache() {
  if (const char* env = std::getenv("MOHECO_CACHE_DIR")) {
    return ResultsCache(env);
  }
  return ResultsCache("/tmp/moheco_cache");
}

std::string ResultsCache::file_for(const std::string& key) const {
  return path_ + "/" + sanitize(key) + ".txt";
}

std::optional<ResultMap> ResultsCache::load(const std::string& key) const {
  static obs::Counter& hits = obs::registry().counter("results_cache.hits");
  static obs::Counter& misses =
      obs::registry().counter("results_cache.misses");
  std::ifstream in(file_for(key));
  if (!in) {
    misses.add(1);
    return std::nullopt;
  }
  ResultMap results;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string field;
    if (!(iss >> field)) return std::nullopt;
    const std::optional<std::string> name = unescape_name(field);
    std::vector<double> values;
    double v = 0.0;
    while (iss >> v) values.push_back(v);
    // A malformed name or unparseable bytes after the values mean the file
    // is truncated or corrupted (crash mid-write predating the
    // atomic-rename discipline, disk damage, somebody's stray edit).  A
    // cache must never serve a half-read row: warn and start empty --
    // everything it held is recomputable by definition.
    if (!name || !iss.eof()) {
      log_warn("results cache: ignoring corrupted file ", file_for(key),
               " (unparseable row '", field, "'); starting empty");
      misses.add(1);
      return std::nullopt;
    }
    results[*name] = std::move(values);
  }
  if (results.empty()) {
    misses.add(1);
    return std::nullopt;
  }
  hits.add(1);
  return results;
}

void ResultsCache::store(const std::string& key, const ResultMap& results) const {
  std::error_code ec;
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    log_warn("results cache: cannot create ", path_, ": ", ec.message());
    return;
  }
  // Write to a per-process temp file, then atomically rename into place:
  // concurrently running bench binaries sharing the cache directory either
  // see the old complete file or the new complete file, never a torn write.
  const std::string final_path = file_for(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path);
    if (!out) {
      log_warn("results cache: cannot write ", tmp_path);
      return;
    }
    out.precision(17);
    out << "# moheco results cache, key=" << key << "\n";
    for (const auto& [name, values] : results) {
      out << escape_name(name);
      for (double v : values) out << ' ' << v;
      out << '\n';
    }
    out.flush();
    if (!out) {
      log_warn("results cache: failed writing ", tmp_path);
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    log_warn("results cache: cannot rename ", tmp_path, " -> ", final_path,
             ": ", ec.message());
    std::filesystem::remove(tmp_path, ec);
  }
}

std::optional<std::string> ResultsCache::load_text(const std::string& key) const {
  static obs::Counter& hits =
      obs::registry().counter("results_cache.text_hits");
  static obs::Counter& misses =
      obs::registry().counter("results_cache.text_misses");
  std::ifstream in(path_ + "/" + sanitize(key) + ".blob",
                   std::ios::in | std::ios::binary);
  if (!in) {
    misses.add(1);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    misses.add(1);
    return std::nullopt;
  }
  hits.add(1);
  return buffer.str();
}

void ResultsCache::store_text(const std::string& key,
                              const std::string& text) const {
  std::error_code ec;
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    log_warn("results cache: cannot create ", path_, ": ", ec.message());
    return;
  }
  const std::string final_path = path_ + "/" + sanitize(key) + ".blob";
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path, std::ios::out | std::ios::binary);
    if (!out) {
      log_warn("results cache: cannot write ", tmp_path);
      return;
    }
    out << text;
    out.flush();
    if (!out) {
      log_warn("results cache: failed writing ", tmp_path);
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    log_warn("results cache: cannot rename ", tmp_path, " -> ", final_path,
             ": ", ec.message());
    std::filesystem::remove(tmp_path, ec);
  }
}

}  // namespace moheco
