// "Collection table" CSV interchange format.
//
// The paper's dataset [23] is a table mapping documents to collections; each
// collection is treated as a provider and each document's source URL as an
// owner identity. This module reads and writes that shape as CSV lines
//
//   collection_id,identity
//
// (one line per membership fact; duplicates are idempotent), so users with a
// real collection table — or any provider/owner membership dump — can run
// the library on their own data.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/membership_fact.h"
#include "dataset/synthetic.h"

namespace eppi::dataset {

struct CollectionTable {
  Network network;
  std::vector<std::string> provider_names;  // row index -> collection id
  std::vector<std::string> identity_names;  // col index -> identity
};

// A collection table's facts without the dense matrix. Provider and
// identity ids are the ones load_collection_table assigns (order of first
// appearance); `facts` holds every distinct (provider, identity) fact,
// ascending by provider and then by identity — the order of a row-major
// walk over the matrix.
struct CollectionFacts {
  using Fact = eppi::MembershipFact;
  std::vector<std::string> provider_names;  // provider id -> collection id
  std::vector<std::string> identity_names;  // identity id -> identity
  std::vector<Fact> facts;
};

// Parses the CSV from a stream in one pass over large blocks. Blank lines
// and lines starting with '#' are skipped, and one trailing '\r' is
// stripped from every line, so a CRLF file parses like its LF twin. Throws
// SerializeError on malformed lines.
CollectionFacts load_collection_facts(std::istream& in);

// The same, as a provider × identity matrix.
CollectionTable load_collection_table(std::istream& in);

// Writes a Network back out using the given (or synthesized) names.
void save_collection_table(std::ostream& out, const Network& network,
                           const std::vector<std::string>& provider_names = {},
                           const std::vector<std::string>& identity_names = {});

}  // namespace eppi::dataset
