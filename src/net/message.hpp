// Wire-level message representation.
//
// Payloads are immutable, shared between the k receivers of a broadcast.
// Every protocol defines its own payload structs deriving from Payload;
// dispatch is by dynamic type (the per-message cost is dwarfed by the
// simulation bookkeeping around it, and it keeps the protocols honest about
// what is actually on the wire).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace stabl::net {

/// Identity of a machine on the simulated network. NodeIds are dense
/// indices: blockchain nodes first, then client machines.
using NodeId = std::uint32_t;

/// Base class of everything that travels on the wire.
struct Payload {
  virtual ~Payload() = default;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// A payload in flight between two machines.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 256;  // serialized size, for bandwidth accounting
  PayloadPtr payload;
};

/// Connection-management control frames (the simulated TCP layer).
struct ControlPayload final : Payload {
  enum class Kind : std::uint8_t {
    kSyn,     // dial attempt
    kSynAck,  // dial accepted
    kPing,    // keepalive probe
    kPong,    // keepalive answer
    kRst,     // peer process is dead (emitted by the network on delivery
              // to a dead endpoint, mirroring a TCP RST from the OS)
  };
  explicit ControlPayload(Kind k) : kind(k) {}
  Kind kind;
};

/// The shared frame of a control kind. Control frames are immutable and
/// identical, so every sender reuses one instance per kind.
inline PayloadPtr control_frame(ControlPayload::Kind kind) {
  static const PayloadPtr frames[] = {
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kSyn),
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kSynAck),
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kPing),
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kPong),
      std::make_shared<const ControlPayload>(ControlPayload::Kind::kRst)};
  return frames[static_cast<std::size_t>(kind)];
}

/// Receiving side of the network. A machine's deliver() is only invoked
/// while its process is alive.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(const Envelope& envelope) = 0;
  [[nodiscard]] virtual bool endpoint_alive() const = 0;
};

}  // namespace stabl::net
