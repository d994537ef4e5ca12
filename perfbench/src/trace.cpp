#include "trace.h"

#include <atomic>

namespace perfbench {

Tracer* g_tracer = nullptr;

namespace {

thread_local std::vector<std::uint64_t> t_stack;  // open main-thread spans

std::uint64_t current_span() { return t_stack.empty() ? 0 : t_stack.back(); }

void write_escaped(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

/// Small per-thread ids for the trace's `tid` field.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Span::Span(const char* layer, std::string name)
    : start_(std::chrono::steady_clock::now()) {
  if (g_tracer == nullptr) return;
  record_.layer = layer;
  record_.name = std::move(name);
  record_.id = g_tracer->next_id();
  record_.parent = current_span();
  record_.tid = thread_index();
  record_.start_ns = g_tracer->now_ns();
  t_stack.push_back(record_.id);
  on_stack_ = true;
}

Span::Span(const char* layer, std::string name, std::uint64_t parent)
    : start_(std::chrono::steady_clock::now()) {
  if (g_tracer == nullptr) return;
  record_.layer = layer;
  record_.name = std::move(name);
  record_.id = g_tracer->next_id();
  record_.parent = parent;
  record_.tid = thread_index();
  record_.concurrent = true;
  record_.start_ns = g_tracer->now_ns();
}

Span::~Span() {
  if (g_tracer == nullptr || record_.id == 0) return;
  record_.end_ns = g_tracer->now_ns();
  if (on_stack_ && !t_stack.empty()) t_stack.pop_back();
  g_tracer->add(std::move(record_));
}

double Span::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fputs("{\"name\":\"", f);
    write_escaped(f, s.name);
    std::fputs("\",\"cat\":\"", f);
    write_escaped(f, s.layer);
    std::fprintf(f,
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"concurrent\":%d}}%s\n",
                 s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.concurrent ? 1 : 0, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
