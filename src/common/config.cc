#include "common/config.hh"

namespace protozoa {

const char *
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::MESI:         return "MESI";
      case ProtocolKind::ProtozoaSW:   return "Protozoa-SW";
      case ProtocolKind::ProtozoaSWMR: return "Protozoa-SW+MR";
      case ProtocolKind::ProtozoaMW:   return "Protozoa-MW";
    }
    return "?";
}

} // namespace protozoa
