#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/node.hpp"
#include "cpu/machine.hpp"
#include "sim/sim_thread.hpp"

namespace openmx::core {

/// One simulated application process, pinned to a core of one node.
///
/// The body runs as a fiber (sim::SimThread) on the OS thread that runs
/// its node's engine, one entity at a time; Endpoint objects created
/// against a Process charge their library/syscall costs to this core.
class Process {
 public:
  Process(Node& node, int core, std::string name,
          std::function<void(Process&)> body)
      : node_(node),
        core_(core),
        thread_(node.engine(), std::move(name),
                [this, body = std::move(body)] { body(*this); }) {}

  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] int core() const { return core_; }
  [[nodiscard]] sim::SimThread& thread() { return thread_; }
  [[nodiscard]] sim::Time now() const { return node_.engine().now(); }

  /// Spends `t` of application compute time on this process's core.
  void compute(sim::Time t) {
    node_.machine().thread_advance(thread_, core_, t, cpu::Cat::App);
  }

  void start() { thread_.start(); }

 private:
  Node& node_;
  int core_;
  sim::SimThread thread_;
};

}  // namespace openmx::core
