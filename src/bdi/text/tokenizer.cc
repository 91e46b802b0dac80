#include "bdi/text/tokenizer.h"

#include <algorithm>
#include <cctype>

namespace bdi::text {

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : s) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) != 0) {
      current.push_back(static_cast<char>(std::tolower(uc)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::vector<std::string> TokenSet(std::string_view s) {
  std::vector<std::string> tokens = WordTokens(s);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

std::vector<std::string> IdentifierTokens(std::string_view s,
                                          size_t min_len,
                                          bool require_letter) {
  std::vector<std::string> out;
  for (std::string& token : WordTokens(s)) {
    if (token.size() < min_len) continue;
    bool has_digit = false, has_letter = false;
    for (char c : token) {
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        has_digit = true;
      } else {
        has_letter = true;
      }
    }
    if (has_digit && (!require_letter || has_letter)) {
      out.push_back(std::move(token));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace bdi::text
