#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "perfbench/stats.h"

namespace perfbench {

int64_t TraceRecorder::Open(std::string name, int64_t parent,
                            uint64_t session) {
  if (!enabled_) return -1;
  Span span{std::move(name), NowNs(), 0, parent, session};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceRecorder::Close(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t TraceRecorder::Record(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

int64_t SelfTimeNs(const Span& parent,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  // Clip every child to the parent, then add up the union of the clipped
  // intervals in one sweep over them sorted by start.
  for (auto& [start, end] : children) {
    start = std::max(start, parent.start_ns);
    end = std::min(end, parent.end_ns);
  }
  std::erase_if(children, [](const auto& c) { return c.second <= c.first; });
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : children) {
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                               span.end_ns);
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = by_name[spans[i].name];
    s.name = spans[i].name;
    s.count++;
    s.total_ms += NsToMs(spans[i].end_ns - spans[i].start_ns);
    s.self_ms += NsToMs(SelfTimeNs(spans[i], std::move(children[i])));
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"session\": %llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.session),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
