#include "cpu/machine.hpp"

#include <array>
#include <limits>
#include <string>

namespace pufatt::cpu {

Machine::Machine(std::size_t mem_words)
    : memory_(mem_words, 0), decoded_(mem_words) {}

void Machine::load(const std::vector<std::uint32_t>& words,
                   std::uint32_t base) {
  if (base + words.size() > memory_.size()) {
    throw MachineError("load: program does not fit in memory");
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    memory_[base + i] = words[i];
    decoded_[base + i].cost = 0;
  }
}

void Machine::set_clock_mhz(double mhz) {
  if (mhz <= 0.0) throw MachineError("clock frequency must be positive");
  clock_mhz_ = mhz;
}

std::uint32_t Machine::reg(unsigned index) const {
  if (index > 15) throw MachineError("register index out of range");
  return regs_[index];
}

void Machine::set_reg(unsigned index, std::uint32_t value) {
  if (index > 15) throw MachineError("register index out of range");
  if (index != 0) regs_[index] = value;
}

std::uint32_t Machine::mem(std::uint32_t addr) const {
  if (addr >= memory_.size()) throw MachineError("memory read out of range");
  return memory_[addr];
}

void Machine::set_mem(std::uint32_t addr, std::uint32_t value) {
  if (addr >= memory_.size()) throw MachineError("memory write out of range");
  memory_[addr] = value;
  decoded_[addr].cost = 0;
}

void Machine::reset() {
  regs_.fill(0);
  pc_ = 0;
  cycles_ = 0;
  puf_mode_ = false;
  helper_fifo_.clear();
}

RunResult Machine::run(std::uint64_t max_cycles) {
  // The loop keeps pc, the cycle count and the registers in locals, which
  // no memory store or PUF port call can alias, and writes them back when
  // it returns or throws; r[0] is re-zeroed after every step, so writes to
  // r0 need no test.
  std::uint32_t pc = pc_;
  std::uint64_t cycles = cycles_;
  std::array<std::uint32_t, 16> r = regs_;
  const std::uint64_t limit =
      max_cycles > std::numeric_limits<std::uint64_t>::max() - cycles
          ? std::numeric_limits<std::uint64_t>::max()
          : cycles + max_cycles;
  const std::size_t words = memory_.size();
  std::uint32_t* const memory = memory_.data();
  Decoded* const decoded = decoded_.data();
  bool halted = false;
  auto store_state = [&] {
    pc_ = pc;
    cycles_ = cycles;
    regs_ = r;
  };

  try {
    while (!halted && cycles < limit) {
      if (pc >= words) {
        throw MachineError("pc out of memory at " + std::to_string(pc));
      }
      Decoded& slot = decoded[pc];
      if (slot.cost == 0) {
        try {
          slot.inst = decode(memory[pc]);
        } catch (const std::invalid_argument& e) {
          throw MachineError(std::string("decode fault at pc ") +
                             std::to_string(pc) + ": " + e.what());
        }
        slot.cost = cycle_cost(slot.inst.op);
      }
      // A copy: the instruction may overwrite (and so drop) its own slot.
      const Instruction inst = slot.inst;
      cycles += slot.cost;
      const std::uint32_t a = r[inst.rs1];
      const std::uint32_t b = r[inst.rs2];
      const auto sa = static_cast<std::int32_t>(a);
      const auto imm = static_cast<std::uint32_t>(inst.imm);
      std::uint32_t next_pc = pc + 1;
      auto branch = [&](bool taken) {
        if (taken) {
          next_pc = pc + imm;
          cycles += kTakenBranchPenalty;
        }
      };

      switch (inst.op) {
        case Opcode::kAdd:
          if (puf_mode_) {
            if (puf_ == nullptr) {
              throw MachineError("PUF add without PUF block");
            }
            puf_->feed((static_cast<std::uint64_t>(a) << 32) | b, cycle_ps());
          }
          // The ALU result is architecturally visible in both modes.
          r[inst.rd] = a + b;
          break;
        case Opcode::kSub: r[inst.rd] = a - b; break;
        case Opcode::kAnd: r[inst.rd] = a & b; break;
        case Opcode::kOr: r[inst.rd] = a | b; break;
        case Opcode::kXor: r[inst.rd] = a ^ b; break;
        case Opcode::kSll: r[inst.rd] = a << (b & 31); break;
        case Opcode::kSrl: r[inst.rd] = a >> (b & 31); break;
        case Opcode::kSra:
          r[inst.rd] = static_cast<std::uint32_t>(sa >> (b & 31));
          break;
        case Opcode::kMul: r[inst.rd] = a * b; break;
        case Opcode::kSlt:
          r[inst.rd] = sa < static_cast<std::int32_t>(b) ? 1 : 0;
          break;
        case Opcode::kSltu: r[inst.rd] = a < b ? 1 : 0; break;

        case Opcode::kAddi: r[inst.rd] = a + imm; break;
        case Opcode::kAndi: r[inst.rd] = a & imm; break;
        case Opcode::kOri: r[inst.rd] = a | imm; break;
        case Opcode::kXori: r[inst.rd] = a ^ imm; break;
        case Opcode::kSlli: r[inst.rd] = a << (imm & 31); break;
        case Opcode::kSrli: r[inst.rd] = a >> (imm & 31); break;
        case Opcode::kSrai:
          r[inst.rd] = static_cast<std::uint32_t>(sa >> (imm & 31));
          break;
        case Opcode::kSlti: r[inst.rd] = sa < inst.imm ? 1 : 0; break;
        case Opcode::kLui: r[inst.rd] = imm << 16; break;

        case Opcode::kLw: {
          const std::uint32_t addr = a + imm;
          if (addr >= words) throw MachineError("memory read out of range");
          r[inst.rd] = memory[addr];
          break;
        }
        case Opcode::kSw: {
          const std::uint32_t addr = a + imm;
          if (addr >= words) throw MachineError("memory write out of range");
          memory[addr] = b;
          decoded[addr].cost = 0;
          break;
        }

        case Opcode::kBeq: branch(a == b); break;
        case Opcode::kBne: branch(a != b); break;
        case Opcode::kBlt: branch(sa < static_cast<std::int32_t>(b)); break;
        case Opcode::kBge: branch(sa >= static_cast<std::int32_t>(b)); break;
        case Opcode::kBltu: branch(a < b); break;
        case Opcode::kBgeu: branch(a >= b); break;

        case Opcode::kJal:
          r[inst.rd] = pc + 1;
          next_pc = pc + imm;
          break;
        case Opcode::kJalr:
          r[inst.rd] = pc + 1;
          next_pc = a + imm;
          break;

        case Opcode::kHalt:
          halted = true;
          break;

        case Opcode::kPstart:
          if (puf_ == nullptr) throw MachineError("pstart without PUF block");
          puf_->start();
          puf_mode_ = true;
          break;
        case Opcode::kPend: {
          if (puf_ == nullptr) throw MachineError("pend without PUF block");
          if (!puf_mode_) throw MachineError("pend outside PUF mode");
          std::vector<std::uint32_t> helpers;
          const std::uint32_t z = puf_->finish(helpers);
          for (const auto h : helpers) helper_fifo_.push_back(h);
          r[inst.rd] = z;
          puf_mode_ = false;
          break;
        }
        case Opcode::kHread:
          if (helper_fifo_.empty()) throw MachineError("hread on empty FIFO");
          r[inst.rd] = helper_fifo_.front();
          helper_fifo_.pop_front();
          break;

        case Opcode::kRdcyc:
          r[inst.rd] = static_cast<std::uint32_t>(cycles);
          break;
        case Opcode::kRdcych:
          r[inst.rd] = static_cast<std::uint32_t>(cycles >> 32);
          break;
      }
      r[0] = 0;
      pc = next_pc;
    }
  } catch (...) {
    // Every fault, the PUF port's included, leaves pc at the faulting
    // instruction and its cost charged if it decoded.
    store_state();
    throw;
  }
  store_state();
  return RunResult{cycles, halted};
}

}  // namespace pufatt::cpu
