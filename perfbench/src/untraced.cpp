// The untraced program links no wraps: every layer is called directly.
#include "trace.hpp"

namespace pb::trace {
const bool traced_binary = false;
}
