// Test fake for surgical loss: a LinkImpairment that discards exactly the
// units a predicate selects and passes everything else through untouched.

#ifndef TESTS_DROP_IF_H_
#define TESTS_DROP_IF_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "src/link/wire.h"

namespace tcplat {

class DropIf : public LinkImpairment {
 public:
  explicit DropIf(std::function<bool(std::span<const uint8_t> unit)> pred)
      : pred_(std::move(pred)) {}

  Verdict OnTransmit(SimTime, std::span<const uint8_t> unit) override {
    Verdict verdict;
    verdict.drop = pred_(unit);
    return verdict;
  }

 private:
  std::function<bool(std::span<const uint8_t> unit)> pred_;
};

}  // namespace tcplat

#endif  // TESTS_DROP_IF_H_
