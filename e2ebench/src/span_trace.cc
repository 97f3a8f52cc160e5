#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace e2ebench {

SpanTrace::Scope::Scope(SpanTrace& trace, const char* name) : trace_(trace) {
  if (!trace_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = trace_.open_;
  span.cycle = trace_.cycle_;
  index_ = static_cast<int32_t>(trace_.spans_.size());
  saved_parent_ = trace_.open_;
  trace_.open_ = index_;
  trace_.spans_.push_back(span);
  // Stamp last so the bookkeeping above is not inside the interval.
  trace_.spans_.back().start_ns = NowNs();
}

SpanTrace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_.spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  trace_.open_ = saved_parent_;
}

std::vector<int64_t> SpanTrace::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  // Children are appended in start order, so a running union per parent
  // measures how much of the parent's interval they cover.
  std::vector<int64_t> covered_until(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
    covered_until[i] = spans_[i].start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int32_t p = spans_[i].parent;
    if (p < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(p)];
    const int64_t begin =
        std::max(spans_[i].start_ns, covered_until[static_cast<size_t>(p)]);
    const int64_t end = std::min(spans_[i].end_ns, parent.end_ns);
    if (end > begin) {
      self[static_cast<size_t>(p)] -= end - begin;
      covered_until[static_cast<size_t>(p)] = end;
    }
  }
  return self;
}

int64_t SpanTrace::MaxReconcileResidualNs(const std::string& root) const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<int64_t, int64_t> self_sum_by_cycle;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_sum_by_cycle[spans_[i].cycle] += self[i];
  }
  int64_t worst = 0;
  for (const Span& span : spans_) {
    if (span.parent >= 0 || root != span.name) continue;
    const int64_t residual =
        self_sum_by_cycle[span.cycle] - (span.end_ns - span.start_ns);
    worst = std::max(worst, residual < 0 ? -residual : residual);
  }
  return worst;
}

bool SpanTrace::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::fprintf(file, "name\tstart_ns\tend_ns\tparent\tcycle\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%s\t%lld\t%lld\t%d\t%lld\t%lld\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.cycle),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace e2ebench
