// Positive control for the compile-fail harness: this file uses the same
// headers and flags as the probes and MUST compile. If it stops compiling,
// the WILL_FAIL probes would "pass" for the wrong reason (broken include
// paths instead of the taint type doing its job).
#include <cstdint>

#include "common/logging.h"
#include "obs/trace.h"
#include "secret/secret.h"

int main() {
  const eppi::SecretU64 share(41);
  const eppi::secret::ModRing ring(1 << 10);
  const eppi::SecretU64 sum = share.add(eppi::SecretU64(1), ring);
  // XOR with a secret or a public word and AND with a public word are
  // share-local and compile; an AND of two secrets does not (and_shares.cpp).
  const eppi::SecretU64 word =
      (share ^ sum ^ std::uint64_t{5}) & std::uint64_t{0xff};
  (void)word;
  // Logging the *public* opening is fine; logging the share is not (see
  // log_share.cpp).
  EPPI_DEBUG("opened value " << sum.reveal());
  // Same contract for trace attributes: a public value is fine; a Secret is
  // rejected at compile time (see trace_secret_attr.cpp). This also keeps
  // the probe honest — if obs/trace.h stopped compiling here, the WILL_FAIL
  // probe would "pass" for the wrong reason.
  eppi::obs::Span span("harness.ok");
  span.attr("opened", std::uint64_t{41});
  return sum.reveal() == 42 ? 0 : 1;
}
