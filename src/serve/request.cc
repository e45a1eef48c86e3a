#include "serve/request.hh"

#include "base/logging.hh"

namespace lia {
namespace serve {

const char *
toString(RequestState state)
{
    switch (state) {
      case RequestState::Queued:
        return "queued";
      case RequestState::Prefilling:
        return "prefilling";
      case RequestState::Decoding:
        return "decoding";
      case RequestState::Preempted:
        return "preempted";
      case RequestState::Swapped:
        return "swapped";
      case RequestState::SwappingIn:
        return "swapping_in";
      case RequestState::Finished:
        return "finished";
      case RequestState::Rejected:
        return "rejected";
    }
    LIA_PANIC("unknown request state");
}

} // namespace serve
} // namespace lia
