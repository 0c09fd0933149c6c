// Test helper for driving SpliceEngine::Start directly with one sink.

#ifndef TESTS_ONE_SINK_H_
#define TESTS_ONE_SINK_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/splice/endpoint.h"

namespace ikdp {

// Start() takes the list of sinks a route program fans out to; without a
// program that list holds exactly one sink.
inline std::vector<std::unique_ptr<SpliceSink>> OneSink(std::unique_ptr<SpliceSink> sink) {
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  sinks.push_back(std::move(sink));
  return sinks;
}

}  // namespace ikdp

#endif  // TESTS_ONE_SINK_H_
