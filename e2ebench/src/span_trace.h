#ifndef E2EBENCH_SPAN_TRACE_H_
#define E2EBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer: name, interval, the span that caused it
/// (-1 for a cycle root) and the cycle it belongs to — the identifier all
/// spans of one cycle share.
struct Span {
  const char* name = "";  // a string literal; spans never own names
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t cycle = 0;
};

/// In-memory span recorder for the traced run. Spans are appended in
/// start order and written out once the run ends. A disabled trace
/// records nothing, so untraced runs pay one branch per call site.
class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_cycle(int64_t cycle) { cycle_ = cycle; }

  /// RAII span: opens on construction, closes on destruction. Scopes
  /// must nest (the innermost open scope is the parent of a new one).
  class Scope {
   public:
    Scope(SpanTrace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace& trace_;
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's self time: its duration minus the part of its interval
  /// covered by its direct children.
  std::vector<int64_t> SelfTimes() const;

  /// Largest |sum of self times of a cycle's spans - the cycle root's
  /// duration| over all cycle roots named `root`. Zero when every child
  /// span nests inside its parent and siblings do not overlap.
  int64_t MaxReconcileResidualNs(const std::string& root) const;

  /// Writes one tab-separated line per span (name, start, end, parent,
  /// cycle, self) to `path`. Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  int64_t cycle_ = 0;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPAN_TRACE_H_
