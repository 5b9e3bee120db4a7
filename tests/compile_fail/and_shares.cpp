// MUST NOT COMPILE: AND of two secret words. XOR and AND with a *public*
// word are share-local, but an AND of two secrets is not: it must go
// through a Beaver triple in the GMW engine (mpc/gmw.cpp).
#include "secret/secret.h"

int main() {
  const eppi::SecretU64 a(6), b(3);
  const eppi::SecretU64 c = a & b;  // use of deleted function
  return static_cast<int>(c.reveal());
}
