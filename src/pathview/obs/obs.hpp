// Self-instrumentation: spans, counters, histograms, and trace snapshots.
//
// Pathview's own pipeline (sim -> correlate -> merge -> summarize -> views ->
// export) is instrumented with the same call-path philosophy the paper
// advocates for application code: RAII spans record a per-thread call tree of
// pipeline phases, and a process-wide registry of named counters and
// log-linear latency histograms tracks volume and distribution metrics
// (samples processed, CCT nodes created, per-op request latency...).
//
// Cost model:
//   * disabled (default): every PV_SPAN / PV_COUNTER_* site is one relaxed
//     atomic load and a predictable branch;
//   * compiled out (-DPATHVIEW_OBS_DISABLED): the macros expand to nothing;
//   * enabled: spans take one uncontended per-thread mutex and one
//     steady_clock read at entry and exit; counters are relaxed fetch_adds.
//   * Counter/Histogram references obtained directly from the registry
//     (counter()/histogram()) record unconditionally — that is what a
//     long-running server uses for always-on telemetry; only the PV_*
//     macros are gated on enabled().
//
// Registry keys may carry a small label set in the canonical form produced
// by labeled(): `name{k="v",...}`. Exporters (Prometheus text format in
// particular) parse that suffix back into per-series labels.
//
// Exporters live in obs/export.hpp (Chrome trace JSON, Prometheus text,
// phase summary table), obs/log.hpp (structured event log) and
// obs/self_profile.hpp (span tree -> experiment database for pvviewer).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pathview::obs {

namespace detail {
/// Process-wide span mode bits. kRecord is the classic "tracing enabled"
/// switch (spans append to per-thread buffers); kLive is set while at least
/// one continuous-profiling sampler holds a live-sampling reference (spans
/// additionally publish onto the thread's lock-free live stack). The
/// per-thread kFlight bit lives in `t_flight_armed`, not here.
extern std::atomic<std::uint32_t> g_mode;
extern constinit thread_local bool t_flight_armed;
inline constexpr std::uint32_t kModeRecord = 1u;
inline constexpr std::uint32_t kModeLive = 2u;
inline constexpr std::uint32_t kModeFlight = 4u;

/// Combined mode for a span opening on this thread right now: one relaxed
/// atomic load plus one thread-local load.
inline std::uint32_t span_mode() {
  std::uint32_t m = g_mode.load(std::memory_order_relaxed);
  if (t_flight_armed) m |= kModeFlight;
  return m;
}

/// Multi-mode span entry/exit (record and/or live-publish and/or flight
/// capture, per the bits in `mode`). Returns the record-buffer index when
/// kRecord is set, 0 otherwise.
std::size_t span_enter(const char* name, std::uint32_t mode);
void span_exit(std::size_t index, std::uint32_t mode);
}  // namespace detail

/// Master runtime switch for span *recording*. Reading it is one relaxed
/// atomic load; span buffers stay empty while it is false. Counters,
/// histograms, live sampling and flight capture are independent of it.
inline bool enabled() {
  return (detail::g_mode.load(std::memory_order_relaxed) &
          detail::kModeRecord) != 0;
}
void set_enabled(bool on);

/// Live-sampling references, held by continuous-profiling samplers while
/// they run. While the refcount is nonzero every Span push/pop additionally
/// publishes onto the owning thread's lock-free live stack (no clock read,
/// a handful of relaxed/release stores) so sample_live_stacks() can see it.
void acquire_live_sampling();
void release_live_sampling();
inline bool live_sampling_enabled() {
  return (detail::g_mode.load(std::memory_order_relaxed) &
          detail::kModeLive) != 0;
}

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

/// A named process-wide accumulator. Thread-safe; hot paths should cache the
/// reference (PV_COUNTER_ADD does this with a function-local static).
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Gauge semantics: overwrite instead of accumulate.
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend void reset();
  std::atomic<std::uint64_t> v_{0};
};

/// Find-or-create the counter registered under `name`. The reference stays
/// valid for the life of the process (reset() zeroes values, it does not
/// invalidate registrations).
Counter& counter(const std::string& name);

/// Build the canonical labeled registry key: `name{k="v",...}` with labels
/// in the order given. Values are escaped (backslash, quote, newline) so
/// the key parses back unambiguously in exporters.
std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

class Histogram;

/// A mergeable point-in-time copy of one histogram's buckets. Percentile
/// extraction is exact over the recorded bucket counts: value_at(q) returns
/// the inclusive upper bound of the bucket holding the rank-ceil(q*count)
/// sample (so the true sample value is <= the reported one, within the
/// bucket's <= 12.5% relative width).
struct HistogramSnapshot {
  static constexpr std::size_t kNumBuckets = 305;  // == Histogram::kNumBuckets

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kNumBuckets> buckets{};

  /// Accumulate another snapshot (bucket-wise; the layouts are identical).
  void merge(const HistogramSnapshot& other);

  /// Upper bound of the bucket containing quantile `q` in [0,1]; 0 when the
  /// histogram is empty. q<=0 is the minimum bucket, q>=1 the maximum.
  std::uint64_t value_at(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A fixed-size log-linear histogram: 8 linear sub-buckets per power of two
/// ("octave"), values 0..7 exact, everything above 2^40-1 clamped into one
/// overflow bucket. add() is lock-free (two relaxed fetch_adds) and safe
/// against concurrent snapshot(); snapshot() is not atomic with respect to
/// in-flight adds (count and sum may disagree by the adds that raced it),
/// which is fine for telemetry.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;            // 2^3 sub-buckets/octave
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr unsigned kMaxExp = 40;            // ~1100 s in ns, ~12 d in us
  // One exact block for 0..kSub-1, one block per octave kSubBits..kMaxExp-1,
  // plus the overflow bucket.
  static constexpr std::size_t kNumBuckets =
      kSub * (kMaxExp - kSubBits + 1) + 1;
  static_assert(kNumBuckets == HistogramSnapshot::kNumBuckets,
                "snapshot layout must match");

  void add(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  /// Bucket layout (exposed for exporters and tests).
  static std::size_t bucket_index(std::uint64_t v);
  /// Inclusive upper bound of bucket `i`; UINT64_MAX for the overflow
  /// bucket.
  static std::uint64_t bucket_upper_bound(std::size_t i);

 private:
  friend void reset();
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Find-or-create the histogram registered under `name` (optionally a
/// labeled() key). Same lifetime contract as counter().
Histogram& histogram(const std::string& name);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One closed (or still-open) span in a thread's buffer. `name` must point
/// to storage outliving the registry — string literals in practice.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;  // relative to the process-wide epoch
  std::uint64_t end_ns = 0;    // 0 while the span is still open
  std::int32_t parent = -1;    // index into the same thread's span list
  std::uint64_t trace_id = 0;  // request-scoped correlation id (0 = none)
  /// Entry weight: 1 for a real RAII span; the number of wall-clock samples
  /// folded into this record when it is a synthetic continuous-profiling
  /// node (obs/sampler.hpp). self_profile_experiment maps it onto the
  /// instructions column.
  std::uint64_t weight = 1;
  /// Request-attributed weight (samples that landed while a trace id was
  /// set). 0 means "derive from trace_id": a real span with trace_id != 0
  /// counts its full weight as traced.
  std::uint64_t traced_weight = 0;
};

/// Request-scoped trace id: spans begun while a thread's trace id is set
/// are stamped with it, correlating server-side work with the client
/// request that caused it. Thread-local; 0 means "no trace".
void set_trace_id(std::uint64_t id);
std::uint64_t current_trace_id();

/// RAII guard installing `id` as the calling thread's trace id for the
/// enclosing scope (restores the previous id on exit, so nested requests —
/// should they ever happen — unwind correctly).
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id) : prev_(current_trace_id()) {
    set_trace_id(id);
  }
  ~TraceIdScope() { set_trace_id(prev_); }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Begin a span on the calling thread; returns its buffer index.
std::size_t begin_span(const char* name);
/// Close the span opened as `index` (normally via the RAII Span below).
void end_span(std::size_t index);

/// RAII span guard. Captures the mode bits (record / live-publish / flight)
/// at construction so a span opened under one mode is always closed under
/// the same mode, even if switches are toggled mid-span.
class Span {
 public:
  explicit Span(const char* name) : mode_(detail::span_mode()) {
    if (mode_ != 0) index_ = detail::span_enter(name, mode_);
  }
  ~Span() {
    if (mode_ != 0) detail::span_exit(index_, mode_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t mode_;
  std::size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Live stacks (continuous-profiling substrate).
// ---------------------------------------------------------------------------

/// Frames kept per live stack; deeper stacks publish only the outermost
/// kMaxLiveDepth frames and report their true logical depth.
inline constexpr std::uint32_t kMaxLiveDepth = 128;

/// One thread's live call-path at the instant a sampler walked it:
/// outermost frame first, innermost last. `depth` is the logical depth and
/// may exceed frames.size() when the stack was deeper than kMaxLiveDepth.
struct LiveThreadSample {
  std::uint32_t tid = 0;       // dense obs thread id
  std::uint64_t trace_id = 0;  // request id active on that thread (0 = none)
  std::uint32_t depth = 0;
  std::vector<const char*> frames;
};

/// Result of one walk over every registered thread's live stack. Threads
/// with an empty stack are omitted. `torn` counts stacks that could not be
/// read consistently within the bounded retry budget (the thread kept
/// mutating its stack under the reader) and were skipped; `truncated`
/// counts sampled stacks deeper than kMaxLiveDepth.
struct LiveStackWalk {
  std::vector<LiveThreadSample> samples;
  std::uint64_t torn = 0;
  std::uint64_t truncated = 0;
};

/// Walk every thread's published live stack. Wait-free with respect to the
/// sampled threads (they never block; the reader retries on a version
/// mismatch and gives up after a bounded number of attempts). Returns
/// nothing useful unless live sampling is on (acquire_live_sampling()).
LiveStackWalk sample_live_stacks();

// ---------------------------------------------------------------------------
// Flight recorder (slow-request capture).
// ---------------------------------------------------------------------------

/// One span captured by an armed flight recorder on its owning thread.
struct FlightSpan {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;   // 0 while still open at take()/disarm
  std::int32_t parent = -1;   // index into the same capture
};

/// RAII per-thread span capture, independent of enabled(): while armed,
/// every Span on the calling thread records its timing and nesting into a
/// bounded private buffer, and flight_note() attaches free-text annotations
/// (e.g. a query plan). A server arms one around each request it may need
/// to explain; if the request turns out slow it formats take() into the
/// event log, otherwise the capture is dropped for free. Single-threaded:
/// the recorder must be taken/destroyed on the thread that armed it, and
/// arming is not reentrant (a nested recorder is a no-op shell).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t max_spans = 256);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// True when this recorder actually armed the thread (no other recorder
  /// was active on it).
  bool armed() const { return armed_; }

  /// Copy out the spans captured so far; open spans are clamped to now.
  std::vector<FlightSpan> spans() const;
  /// Notes attached via flight_note() since arming, in order.
  const std::vector<std::string>& notes() const;
  /// True when at least one span was discarded because the buffer filled.
  bool overflowed() const;

 private:
  bool armed_ = false;
};

/// Attach a note to the flight recorder armed on the calling thread, if
/// any; otherwise a no-op. Safe to call unconditionally from instrumented
/// code (e.g. the query engine recording its plan).
void flight_note(std::string text);

/// True while a flight recorder is armed on the calling thread: a note is
/// worth building only then.
inline bool flight_armed() { return detail::t_flight_armed; }

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

struct ThreadTrace {
  std::uint32_t tid = 0;  // dense registration order, not the OS tid
  std::vector<SpanRecord> spans;
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;  // threads with at least one span
  /// Counter name -> value, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Histogram name -> bucket snapshot, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Copy out every thread's spans, every counter and every histogram. Open
/// spans are clamped to "now" — the SAME now for every thread and span, so
/// an open parent and its open child each get clamped exactly once and
/// their self/total times stay consistent in phase summaries.
TraceSnapshot snapshot();

/// Clear all recorded spans and zero all counters and histograms
/// (registrations and thread buffers survive). Intended for tests and
/// long-lived servers.
void reset();

/// Nanoseconds since the process-wide trace epoch.
std::uint64_t now_ns();

}  // namespace pathview::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.
// ---------------------------------------------------------------------------

#if defined(PATHVIEW_OBS_DISABLED)

#define PV_SPAN(name) static_cast<void>(0)
#define PV_COUNTER_ADD(name, n) static_cast<void>(0)
#define PV_COUNTER_SET(name, n) static_cast<void>(0)
#define PV_HISTOGRAM_ADD(name, v) static_cast<void>(0)

#else

#define PV_OBS_CONCAT2(a, b) a##b
#define PV_OBS_CONCAT(a, b) PV_OBS_CONCAT2(a, b)

/// Open a span for the rest of the enclosing scope.
#define PV_SPAN(name) \
  ::pathview::obs::Span PV_OBS_CONCAT(pv_obs_span_, __LINE__)(name)

/// Add `n` to the counter `name` (registered once per call site).
#define PV_COUNTER_ADD(name, n)                                         \
  do {                                                                  \
    if (::pathview::obs::enabled()) {                                   \
      static ::pathview::obs::Counter& pv_obs_ctr =                     \
          ::pathview::obs::counter(name);                               \
      pv_obs_ctr.add(static_cast<std::uint64_t>(n));                    \
    }                                                                   \
  } while (0)

/// Gauge write: overwrite the counter `name` with `n`.
#define PV_COUNTER_SET(name, n)                                         \
  do {                                                                  \
    if (::pathview::obs::enabled()) {                                   \
      static ::pathview::obs::Counter& pv_obs_ctr =                     \
          ::pathview::obs::counter(name);                               \
      pv_obs_ctr.set(static_cast<std::uint64_t>(n));                    \
    }                                                                   \
  } while (0)

/// Record `v` into the histogram `name` (registered once per call site).
#define PV_HISTOGRAM_ADD(name, v)                                       \
  do {                                                                  \
    if (::pathview::obs::enabled()) {                                   \
      static ::pathview::obs::Histogram& pv_obs_hist =                  \
          ::pathview::obs::histogram(name);                             \
      pv_obs_hist.add(static_cast<std::uint64_t>(v));                   \
    }                                                                   \
  } while (0)

#endif  // PATHVIEW_OBS_DISABLED
