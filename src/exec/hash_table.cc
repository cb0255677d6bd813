#include "exec/hash_table.h"

#include <algorithm>
#include <string>

#include "exec/spill.h"

namespace hdb::exec {

std::vector<uint32_t> KeyTable::EncodedOrder() const {
  const size_t n = size();
  std::string bytes;
  std::vector<size_t> start(n + 1);
  for (size_t e = 0; e < n; ++e) {
    start[e] = bytes.size();
    AppendEncodedValues(key(static_cast<uint32_t>(e)), arity_, &bytes);
  }
  start[n] = bytes.size();
  auto encoded = [&](uint32_t e) {
    return std::string_view(bytes.data() + start[e], start[e + 1] - start[e]);
  };
  std::vector<uint32_t> order(n);
  for (size_t e = 0; e < n; ++e) order[e] = static_cast<uint32_t>(e);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return encoded(a) < encoded(b);
  });
  return order;
}

}  // namespace hdb::exec
