// One membership fact by index: provider `provider` holds identity
// `identity`'s records. The form in which a loaded collection
// (dataset/collection_table.h) is handed to the locator service's bulk
// delegate (core/locator_service.h); each index names an entry of the
// caller's provider and identity name tables.
#pragma once

#include <cstdint>

namespace eppi {

struct MembershipFact {
  std::uint32_t provider;
  std::uint32_t identity;
  bool operator==(const MembershipFact&) const = default;
};

}  // namespace eppi
