#include "util/cli.h"

namespace hs {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const KvToken token = ClassifyToken(argv[i], "--");
    if (token.kind == KvToken::Kind::kPositional) {
      positional_.emplace_back(argv[i]);
    } else if (token.kind == KvToken::Kind::kBare) {
      Add(std::string(token.key), "true", argv[i]);
    } else {
      Add(token, /*decode=*/false);
    }
  }
}

}  // namespace hs
