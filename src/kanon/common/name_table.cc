#include "kanon/common/name_table.h"

namespace kanon {

Status UnknownName(const char* what, const std::string& flag) {
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 flag + "'");
}

}  // namespace kanon
