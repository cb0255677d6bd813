#ifndef HDB_PERFBENCH_SPANS_H_
#define HDB_PERFBENCH_SPANS_H_

// In-memory spans recorded by the benchmark around its calls into the
// engine's public functions. Each span has a name, start, end, parent and
// statement id; spans are kept per thread and written out when the run
// ends. A layer's self time is its span minus the time its child spans
// cover. With recording off a Span costs one relaxed load.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void SetEnabled(bool on);
bool Enabled();

/// Statement id stamped on the spans this thread records next.
void SetStatement(uint64_t stmt_id);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ns_ = 0;
};

struct Totals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double mean_us() const { return count == 0 ? 0 : total_us / count; }
  double mean_self_us() const { return count == 0 ? 0 : self_us / count; }
};

/// Per span name: count, total and self time over everything recorded.
std::map<std::string, Totals> Summarize();
/// Writes every recorded span as Chrome trace-event JSON; false on I/O
/// failure.
bool WriteChromeTrace(const std::string& path);
/// Forgets every recorded span.
void Clear();
uint64_t Recorded();

}  // namespace perfbench::spans

#endif  // HDB_PERFBENCH_SPANS_H_
