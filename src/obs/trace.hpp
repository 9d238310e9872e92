// Span tracer with Chrome trace-event export.
//
// Tracing is off by default; set_trace_enabled(true) arms it (the
// --trace=FILE flags on moheco_cli and moheco_d do this at startup).
// While armed, every obs::Span records one complete ("ph":"X") event —
// name, start, duration, thread — into a fixed-capacity per-thread ring
// buffer; when a ring wraps, the oldest events are overwritten and
// counted as dropped.  Disarmed, constructing a Span costs one relaxed
// load.
//
// write_trace()/trace_json() serialize every ring into Chrome
// trace-event JSON ({"traceEvents":[...]}) that chrome://tracing and
// Perfetto open directly.  Span names must be string literals (or
// otherwise outlive the trace); the ring stores the pointer only, which
// is what keeps recording heap-free.
//
// The span hierarchy instrumented across the repo (see
// docs/observability.md): daemon job -> optimize run -> generation ->
// phase flush -> transient run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace moheco::obs {

/// Events retained per thread; older events are overwritten (dropped).
inline constexpr std::size_t kTraceRingCapacity = 16384;

bool trace_enabled();
void set_trace_enabled(bool enabled);

namespace detail {
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::int64_t arg, bool has_arg);
}

/// RAII complete-event span.  `name` must outlive the trace (use string
/// literals).  The optional arg is emitted as {"args":{"n":...}}.
class Span {
 public:
  explicit Span(const char* name) : Span(name, 0, false) {}
  Span(const char* name, std::int64_t arg) : Span(name, arg, true) {}
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Span(const char* name, std::int64_t arg, bool has_arg);
  void end();

  const char* name_;
  std::uint64_t start_ns_;
  std::int64_t arg_;
  bool has_arg_;
};

/// Total events currently buffered / overwritten across all rings.
std::size_t trace_event_count();
std::size_t trace_dropped_count();

/// Clears every ring and the dropped counters (rings stay registered).
void trace_reset();

/// Chrome trace-event JSON for everything buffered, one "X" event per
/// span, timestamps in microseconds since the first buffered event.
std::string trace_json();

/// Writes trace_json() to `path`; returns false (after logging) on I/O
/// failure.
bool write_trace(const std::string& path);

}  // namespace moheco::obs
