#ifndef BDI_TEXT_TOKENIZER_H_
#define BDI_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace bdi::text {

/// Lowercased alphanumeric word tokens ("Canon EOS-5D" -> {"canon", "eos",
/// "5d"}). Non-alphanumeric characters are separators.
std::vector<std::string> WordTokens(std::string_view s);

/// Word tokens deduplicated and sorted — the token *set* used by set
/// similarities.
std::vector<std::string> TokenSet(std::string_view s);

/// Tokens that look like product/entity identifiers: alphanumeric tokens of
/// length >= min_len that contain at least one digit (e.g. "eos5dmkiv",
/// "sku12345"). This encodes the tutorial's observation that specification
/// pages publish identifiers usable as linkage keys. With `require_letter`,
/// pure digit runs (years, prices, weights) are excluded — use it when
/// mining mixed content rather than a dedicated identifier field.
std::vector<std::string> IdentifierTokens(std::string_view s,
                                          size_t min_len = 4,
                                          bool require_letter = false);

}  // namespace bdi::text

#endif  // BDI_TEXT_TOKENIZER_H_
