// PR32 machine simulator with cycle-accurate cost model, clock
// configuration and the PUF port.
//
// The clock matters twice: it converts the cycle count into the wall time
// the verifier measures against the bound delta, and it feeds the PUF's
// capture deadline — overclocking shortens the cycle below T_ALU + T_set
// and corrupts PUF responses (paper Section 4.2, "Overclocking Attack
// Resiliency").
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "cpu/isa.hpp"

namespace pufatt::cpu {

/// Runtime fault (bad address, decode failure, FIFO underflow...).
class MachineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hardware interface between the core and the ALU-PUF block.  The adapter
/// that binds a PufDevice to this port lives in src/core (the CPU layer
/// stays independent of the PUF implementation).
class PufPort {
 public:
  virtual ~PufPort() = default;

  /// pstart: reset the response accumulator, enter PUF mode.
  virtual void start() = 0;

  /// add (in PUF mode): race one challenge; the raw response stays inside
  /// the block.  `challenge` = (rs1_value << 32) | rs2_value.
  /// `cycle_ps` is the current clock period (capture deadline).
  virtual void feed(std::uint64_t challenge, double cycle_ps) = 0;

  /// pend: post-process the accumulated responses; returns z and appends
  /// the helper words (one 32-bit word per raw response, syndrome in the
  /// low bits) to `helper_words`.
  virtual std::uint32_t finish(std::vector<std::uint32_t>& helper_words) = 0;
};

struct RunResult {
  std::uint64_t cycles = 0;
  bool halted = false;  ///< false = max_cycles exhausted
};

/// The interpreter decodes each memory word once, on its first execution,
/// and keeps the decoded form per word address; every write to memory
/// (`load`, `set_mem`, a `sw`) drops the entries it overwrites, so
/// self-modifying code runs exactly as if every step decoded afresh.
class Machine {
 public:
  explicit Machine(std::size_t mem_words = 1 << 16);

  /// Copies `words` into memory at word address `base`.
  void load(const std::vector<std::uint32_t>& words, std::uint32_t base = 0);

  /// Attaches the PUF block (may be null: PUF instructions then trap).
  void attach_puf(PufPort* port) { puf_ = port; }

  /// Clock frequency in MHz; default 400 MHz (a safe base clock for the
  /// simulated 32-bit ALU PUF, whose worst-case settle is ~1.6 ns).
  void set_clock_mhz(double mhz);
  double clock_mhz() const { return clock_mhz_; }
  double cycle_ps() const { return 1e6 / clock_mhz_; }

  std::uint32_t reg(unsigned index) const;
  void set_reg(unsigned index, std::uint32_t value);
  std::uint32_t mem(std::uint32_t addr) const;
  void set_mem(std::uint32_t addr, std::uint32_t value);
  std::size_t mem_words() const { return memory_.size(); }

  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }
  std::uint64_t cycles() const { return cycles_; }

  /// Wall-clock duration of `cycles` at the configured clock, microseconds.
  double wall_time_us(std::uint64_t cycle_count) const {
    return static_cast<double>(cycle_count) / clock_mhz_;
  }

  /// Executes until halt or until `max_cycles` additional cycles elapse
  /// (a budget past the counter's range runs to halt).  On a MachineError
  /// pc(), cycles() and the registers show the faulting step: pc at the
  /// faulting instruction, its cost charged once it decoded.
  RunResult run(std::uint64_t max_cycles = 100'000'000);

  /// Resets registers, pc, cycle counter and PUF mode (memory preserved).
  void reset();

 private:
  /// A memory word as the interpreter runs it; `cost` 0 marks a word not
  /// decoded since it was last written (every opcode costs >= 1 cycle).
  struct Decoded {
    Instruction inst;
    std::uint32_t cost = 0;
  };

  std::vector<std::uint32_t> memory_;
  std::vector<Decoded> decoded_;  ///< per word address, parallel to memory_
  std::array<std::uint32_t, 16> regs_{};
  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  double clock_mhz_ = 400.0;
  bool puf_mode_ = false;
  PufPort* puf_ = nullptr;
  std::deque<std::uint32_t> helper_fifo_;
};

}  // namespace pufatt::cpu
