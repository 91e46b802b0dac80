// Test helper: numbered strings ("t7", "s3.com") for generated fixtures.
#ifndef BDI_TESTS_NUMBERED_H_
#define BDI_TESTS_NUMBERED_H_

#include <string>
#include <string_view>

namespace bdi::testing_util {

/// `prefix` followed by decimal `n`: what `"t" + std::to_string(n)` gives,
/// built with += because GCC 12 misreads that `const char* +
/// std::string&&` form as an overlapping copy (a false -Wrestrict
/// warning).
template <typename Int>
std::string Numbered(std::string_view prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace bdi::testing_util

#endif  // BDI_TESTS_NUMBERED_H_
